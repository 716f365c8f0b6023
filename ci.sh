#!/usr/bin/env bash
# Local CI: everything a merge must pass, in the order it usually fails.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test --workspace -q

echo "== kernel tests again, pinned to the scalar SIMD lane =="
# The workspace run above exercises the best-available lane (dispatch
# defaults to the detected ISA); this re-runs the kernel crates with
# dispatch pinned to the portable reference, so the scalar arms of every
# `simd` primitive stay tested on hosts where they are never the default.
# The ISA-sweep proptests inside compare all *detected* lanes regardless
# of the pin.
SCALO_SIMD=scalar cargo test -q -p scalo-signal -p scalo-lsh

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== fmt =="
cargo fmt --all --check

echo "== rustdoc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== serving benchmark builds against the library (lockfile frozen) =="
# perfbench is a package of its own with its own Cargo.lock. A library
# API change that breaks it, or a dependency change that stales its
# lockfile, fails here rather than when the benchmark runs; `--locked`
# never rewrites the lockfile.
CARGO_TARGET_DIR=target/perfbench cargo build --release --locked --offline --manifest-path perfbench/Cargo.toml

echo "== zero-allocation steady state (counting allocator) =="
cargo test -q -p scalo-core --test hot_path

echo "== lock-free pool stress (Chase-Lev steal/take race, release) =="
# The workspace run exercises this in debug; re-run it in release, where
# the missing debug-assert fences make a stale-slot read or a double
# `top` CAS win far more likely to slip through.
cargo test -q --release -p scalo-fleet --lib chase_lev_steal_take_race_claims_each_entry_once

echo "== fleet smoke, scalar SIMD lane (digest baseline) =="
# First pass with kernel dispatch pinned to the portable scalar
# reference: the per-session decision digests it produces are the
# ground truth the best-available-lane run below must reproduce
# byte-for-byte.
SCALO_SIMD=scalar cargo run --release -p scalo-bench --bin experiments -- fleet --sessions 16
mkdir -p target
grep -o '"decisions_fnv":"[0-9a-f]*"' BENCH_fleet.json | sort > target/digests_scalar.txt
test -s target/digests_scalar.txt \
  || { echo "no decision digests in scalar fleet run" >&2; exit 1; }

echo "== fleet smoke (pool + admission + metrics JSON) =="
# The full 16-session population, so the regression guard below compares
# like-for-like against the committed BENCH_fleet.json baseline.
cargo run --release -p scalo-bench --bin experiments -- fleet --sessions 16

echo "== SIMD digest-equivalence guard (scalar vs best-available) =="
grep -o '"decisions_fnv":"[0-9a-f]*"' BENCH_fleet.json | sort > target/digests_simd.txt
cmp target/digests_scalar.txt target/digests_simd.txt \
  || { echo "decision digests diverged between SCALO_SIMD=scalar and the detected lane" >&2; exit 1; }
echo "decision digests identical across SIMD lanes ($(wc -l < target/digests_simd.txt) sessions)"

echo "== fleet throughput regression guard =="
# The pre-batching seed recorded 6751.2 windows/s at 4 workers; the
# batched kernel engine must not give that back.
wps=$(sed -n 's/.*"workers":4,"wall_ms":[^,]*,"windows":[0-9]*,"windows_per_sec":\([0-9.]*\).*/\1/p' BENCH_fleet.json)
test -n "$wps" || { echo "no 4-worker sweep entry in BENCH_fleet.json" >&2; exit 1; }
awk -v w="$wps" 'BEGIN {
  if (w + 0 < 6751.2) { printf "fleet throughput regressed: %.1f < 6751.2 windows/s at 4 workers\n", w; exit 1 }
  printf "fleet 4-worker throughput: %.1f windows/s (seed baseline 6751.2)\n", w
}'

echo "== parked radio wait guard (1-worker solo throughput) =="
# Every fleet session waits 400 us on its radio per window. The pool
# parks a waiting job off its worker (a timer, not a sleep), so one
# worker keeps serving the other sessions through each wait. The seed,
# which slept on the worker, recorded 1975.1 windows/s on the 1-worker
# solo sweep entry; hold 4x that, which a worker that sleeps through
# every wait cannot reach.
wps1=$(sed -n 's/.*"sweep":\[{"workers":1,"wall_ms":[^,]*,"windows":[0-9]*,"windows_per_sec":\([0-9.]*\).*/\1/p' BENCH_fleet.json)
test -n "$wps1" || { echo "no 1-worker sweep entry in BENCH_fleet.json" >&2; exit 1; }
awk -v w="$wps1" 'BEGIN {
  if (w + 0 < 7900) { printf "1-worker fleet throughput below the parked-wait floor: %.1f < 7900 windows/s\n", w; exit 1 }
  printf "fleet 1-worker throughput: %.1f windows/s (floor 7900 = 4x the 1975.1 sleeping seed)\n", w
}'

echo "== swap smoke (10k+ admitted sessions over a 512-slot resident set) =="
# Runs after the fleet smoke so the "swap" section lands in the fresh
# BENCH_fleet.json. The experiment itself asserts replay-by-seed (two
# identical trials must agree on the fleet digest) and never-swapped
# twin equality — a failed assert exits non-zero here.
cargo run --release -p scalo-bench --bin experiments -- swap --sessions 10240
admitted=$(sed -n 's/.*"swap":{"sessions":\([0-9]*\).*/\1/p' BENCH_fleet.json)
test -n "$admitted" || { echo "no swap section in BENCH_fleet.json" >&2; exit 1; }
test "$admitted" -ge 10000 \
  || { echo "swap smoke admitted only $admitted sessions (floor 10000)" >&2; exit 1; }
peak=$(sed -n 's/.*"resident_peak":\([0-9]*\).*/\1/p' BENCH_fleet.json)
test -n "$peak" && test "$peak" -le 512 \
  || { echo "resident set exceeded its 512-slot budget: ${peak:-?}" >&2; exit 1; }
echo "swap smoke: $admitted admitted, resident peak $peak (budget 512)"

echo "== swap smoke pin (fleet digest and swap traffic) =="
# Every fault-in restores from its state image: the session state and
# detectors are installed and only the windows of the burst it serves
# are synthesized, a quantum at a time; no window is re-executed. The run is a function
# of its seeds, so its fleet digest and its swap-in and swap-out counts
# are fixed; a drift in any of them means the restore path or the swap
# policy changed behaviour.
swap_digest=$(sed -n 's/.*"swap":{.*"digest_fnv":"\([0-9a-f]*\)".*/\1/p' BENCH_fleet.json)
swap_ins=$(sed -n 's/.*"swap":{.*"swap_ins":\([0-9]*\).*/\1/p' BENCH_fleet.json)
swap_outs=$(sed -n 's/.*"swap":{.*"swap_outs":\([0-9]*\).*/\1/p' BENCH_fleet.json)
test "$swap_digest" = "a2bb3c9a58bafdb3" && test "$swap_ins" = "267" && test "$swap_outs" = "9049" \
  || { echo "swap smoke drifted: digest ${swap_digest:-?} (pinned a2bb3c9a58bafdb3), swap_ins ${swap_ins:-?} (267), swap_outs ${swap_outs:-?} (9049)" >&2; exit 1; }
echo "swap smoke pinned: digest $swap_digest, $swap_ins swap-ins, $swap_outs swap-outs"

echo "== swap-fault latency regression guard =="
# Fault-in = modeled NVM read + SCSS decode + state restore (synthesis
# of one quantum's windows + digest verify); the current model books p99
# well under 50 ms. Flag anything past 200 ms — that means the restore
# path or the image tier regressed.
p99=$(sed -n 's/.*"swap_in_us":{"count":[0-9]*,"p50_us":[0-9]*,"p99_us":\([0-9]*\).*/\1/p' BENCH_fleet.json)
test -n "$p99" || { echo "no swap_in_us histogram in BENCH_fleet.json" >&2; exit 1; }
awk -v p="$p99" 'BEGIN {
  if (p + 0 > 200000) { printf "swap-fault p99 regressed: %d us (cap 200000)\n", p; exit 1 }
  printf "swap-fault p99: %d us (cap 200000)\n", p
}'

echo "== fleet-shaped fault-in deadline guard =="
# The swap experiment's fleet-shaped trial (2x4 electrodes, 0.9 s) times
# the exact decode + restore of a fault-in holding one 6-window burst,
# as the swap fleet performs it. Its p99 must meet the paper's 10 ms
# seizure response deadline.
shape_p99=$(sed -n 's/.*"fleet_shape":{.*"restore_p99_us":\([0-9]*\).*/\1/p' BENCH_fleet.json)
test -n "$shape_p99" || { echo "no fleet_shape restore_p99_us in BENCH_fleet.json" >&2; exit 1; }
awk -v p="$shape_p99" 'BEGIN {
  if (p + 0 > 10000) { printf "fleet-shaped fault-in p99 past the seizure deadline: %d us (cap 10000)\n", p; exit 1 }
  printf "fleet-shaped fault-in decode + restore p99: %d us (cap 10000)\n", p
}'

echo "== query compilation + hot-reconfigure smoke =="
# Compiles every catalog entry, admits one session per query string and
# asserts decision-digest equality against spec-constructed twins, then
# hot-reconfigures mid-run: one digest-pinned clean cutover and one
# forced mismatch that must roll back — each assert exits non-zero
# here. Runs after the swap smoke so the "query" section splices into
# the fresh BENCH_fleet.json ahead of "swap".
cargo run --release -p scalo-bench --bin experiments -- query
grep -q '"query":{"catalog":\[' BENCH_fleet.json \
  || { echo "no query section in BENCH_fleet.json" >&2; exit 1; }
grep -q '"query":{"catalog":\[[^]]*\],"digests_match":true' BENCH_fleet.json \
  || { echo "query-admitted digests diverged from spec twins" >&2; exit 1; }
grep -q '"swap":{' BENCH_fleet.json \
  || { echo "query splice clobbered the swap section" >&2; exit 1; }
reconf_ok=$(sed -n 's/.*"reconfigures":\[{"id":0,"window":[0-9]*,"ok":\(true\|false\).*/\1/p' BENCH_fleet.json)
test "$reconf_ok" = "true" \
  || { echo "hot-reconfigure cutover did not succeed" >&2; exit 1; }
echo "query smoke: catalog compiled, digests match, cutover + rollback exercised"

echo "== kernel engine smoke (batched vs per-channel microbench) =="
cargo run --release -p scalo-bench --bin experiments -- kernels --reps 40
test -s BENCH_kernels.json || { echo "BENCH_kernels.json missing or empty" >&2; exit 1; }
speedup=$(sed -n 's/.*"name":"filter_fft_features"[^}]*"speedup":\([0-9.]*\).*/\1/p' BENCH_kernels.json)
test -n "$speedup" || { echo "no filter_fft_features stage in BENCH_kernels.json" >&2; exit 1; }
# PR 8's channel-major batching recorded 8.36x here; the SIMD lanes
# roughly doubled that (≥16x on an AVX2 host). Scale the floor by the
# lane the bench actually ran on so the guard holds on SSE2-only or
# non-x86 runners too: 12x on avx2 (catches a silent scalar fallback),
# 6x on sse2, and PR 8's 2x batching floor when only scalar is
# available.
isa=$(sed -n 's/.*"simd_isa":"\([a-z0-9]*\)".*/\1/p' BENCH_kernels.json)
case "$isa" in
  avx2) floor=12.0 ;;
  sse2) floor=6.0 ;;
  *)    floor=2.0 ;;
esac
awk -v s="$speedup" -v f="$floor" -v i="$isa" 'BEGIN {
  if (s + 0 < f + 0) { printf "batched filter+FFT speedup fell below %sx (%s lane): %sx\n", f, i, s; exit 1 }
  printf "batched filter+FFT speedup: %sx (floor %sx on %s lane)\n", s, f, i
}'

echo "== iEEG synthesis guard (CPU ns per sample over the sin floor) =="
# The kernels run above also times generate_range over a 6-window burst
# at 2x4 and at 1x96 electrodes, and this host's sin per call, each the
# minimum of its reps. A sample sums seven oscillators, so ns/sample over
# 7 x sin ns is the synthesis cost over the sin calls it cannot avoid;
# both parts are timed on the runner, so the ratio carries across hosts.
# The 1x96 burst is split over the host's cores, so its wall time reads
# a fraction of the kernel's cost: sin_ratio is taken on process CPU ns
# per sample (every thread's work), which the split does not shrink.
# The chunked, oscillator-major kernel read 1.11-1.28 and the per-sample
# loop it replaced 1.59-1.82 (2-vCPU KVM guest); the cap sits between.
sin_ratio=$(sed -n 's/.*"synthesis":{[^}]*"sin_ratio":\([0-9.]*\).*/\1/p' BENCH_kernels.json)
test -n "$sin_ratio" || { echo "no synthesis row in BENCH_kernels.json" >&2; exit 1; }
awk -v r="$sin_ratio" 'BEGIN {
  if (r + 0 > 1.45) { printf "iEEG synthesis regressed: %.3fx the 7-sin floor per sample (cap 1.45x)\n", r; exit 1 }
  printf "iEEG synthesis: %.3fx the 7-sin floor per sample (cap 1.45x)\n", r
}'

echo "== trace smoke (span attribution + chrome://tracing export) =="
# The binary itself asserts attribution invariants and JSON validity;
# here we only check the artifact landed and is non-empty.
cargo run --release -p scalo-bench --bin experiments -- trace --sessions 2
test -s trace.json || { echo "trace.json missing or empty" >&2; exit 1; }

echo "== kill-recover-replay smoke (digest equality asserted) =="
# The durability experiment kills the fleet twice at seeded points,
# recovers from the write-ahead log, and asserts the merged decision
# digests equal an uninterrupted baseline — a failed assert exits
# non-zero here.
cargo run --release -p scalo-bench --bin experiments -- durability --sessions 4
cargo run --release -p scalo-bench --bin experiments -- replay --from 20 --to 40

echo "== durability log-overhead regression guard =="
test -s BENCH_durability.json || { echo "BENCH_durability.json missing or empty" >&2; exit 1; }
grep -q '"digests_match":true' BENCH_durability.json \
  || { echo "recovered digests diverged from baseline" >&2; exit 1; }
# Decision records are 33 B framed; with checkpoints amortised over 64
# windows the clean-run log must stay under 96 B of frame data per
# served window.
bpw=$(sed -n 's/.*"bytes_per_window":\([0-9.]*\).*/\1/p' BENCH_durability.json)
test -n "$bpw" || { echo "no bytes_per_window in BENCH_durability.json" >&2; exit 1; }
awk -v b="$bpw" 'BEGIN {
  if (b + 0 > 96.0) { printf "WAL overhead regressed: %.1f B/window (cap 96)\n", b; exit 1 }
  printf "WAL overhead: %.1f B/window (cap 96)\n", b
}'

echo "CI OK"
