//! Host facts and process accounting: CPU time, peak RSS, worker
//! count, SIMD lane, steal share, and benchmark-owned reference kernels.

use std::time::Instant;

// `Timespec` below mirrors `struct timespec` on 64-bit Linux only.
const _: () = assert!(std::mem::size_of::<usize>() == 8, "64-bit Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, in µs.
pub fn process_cpu_us() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies summed over every CPU (`/proc/stat`): time
/// the hypervisor ran someone else while this guest wanted the CPU.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads for a workload that wants `want`: never more than
/// the host has.
pub fn workers(want: usize) -> usize {
    want.min(nproc()).max(1)
}

/// The SIMD lane the signal kernels dispatch to.
pub fn simd_isa() -> &'static str {
    scalo_signal::simd::SimdLevel::active().name()
}

/// Two fixed loops owned by the benchmark, in ms: an ALU-bound hash
/// loop and a cache-missing gather over 64 MB. Taken at the start and
/// end of a run, they tell a slow host (busy cores, or a shared cache
/// and memory bus under pressure) apart from a slow program; they never
/// scale any reported metric.
pub fn reference_kernels_ms() -> [f64; 2] {
    let t0 = Instant::now();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut acc = 0.0f64;
    for i in 0..4_000_000u64 {
        h = (h ^ std::hint::black_box(i)).wrapping_mul(0x0100_0000_01b3);
        acc += ((h >> 11) as f64).sqrt();
    }
    std::hint::black_box((h, acc));
    let alu_ms = t0.elapsed().as_secs_f64() * 1e3;

    const WORDS: usize = 8 << 20;
    let buf: Vec<u64> = (0..WORDS as u64).collect();
    let t0 = Instant::now();
    let (mut idx, mut sum) = (0usize, 0u64);
    for _ in 0..2_000_000 {
        sum = sum.wrapping_add(buf[idx]);
        idx = (idx.wrapping_mul(6_364_136_223_846_793_005) ^ sum as usize) % WORDS;
        idx = (idx + 1) % WORDS;
    }
    std::hint::black_box(sum);
    [alu_ms, t0.elapsed().as_secs_f64() * 1e3]
}

/// Quantile of `xs` by the nearest-rank rule, clamped to the sample
/// range (0.0 when empty). The benchmark's own samples, never a
/// bucketed histogram.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
