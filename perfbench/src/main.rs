//! Seeded serving benchmark for the SCALO fleet.
//!
//! ```text
//! perfbench --workload <fleet_radio|swap_churn|crash_recover>
//!           --seed <n> --seconds <s> --trace <0|1> --state-dir <dir> [--peak-rss]
//! ```
//!
//! With `--trace 0` it repeats untraced rounds of the workload for
//! `--seconds` seconds and reports the end-to-end metrics as medians
//! over rounds. With `--trace 1` it alternates untraced and traced rounds
//! for `--seconds` seconds, then times calls into each layer, and
//! reports the per-layer metrics. Every run checks its outputs: sampled
//! sessions against twins stepped by `Session::step`, every round's
//! fleet digest and work counts against the first round of its slice,
//! and both against earlier runs of the same seed recorded in
//! `--state-dir`. The last stdout line is the result object; the line
//! before it carries host facts and per-round detail.
//!
//! With `--peak-rss` it serves one untraced round of each slice and
//! prints only the process's peak resident set and the rounds' digests:
//! peak RSS comes from a process that ran nothing but the workload once.
//!
//! `perfbench --reference` times only the benchmark's own reference
//! kernels (see `host::reference_kernels_ms`).

mod host;
mod layers;
mod population;
mod workloads;

use layers::Metrics;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Inputs, Round, Workload, SLICES};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
    peak_rss: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
        state_dir: PathBuf::from(get("--state-dir")?),
        peak_rss: argv.iter().any(|a| a == "--peak-rss"),
    })
}

/// Records this run's digests and work counts for `(workload, seed)`,
/// one slice after another, or compares them with what an earlier run
/// of the seed recorded. `--state-dir` names one build of the
/// benchmark, so only runs of the same program are compared.
fn check_against_earlier_runs(args: &Args, firsts: &[&Round]) -> Option<String> {
    let mut record = String::new();
    for r in firsts {
        record.push_str(&format!("slice {} digest {:016x}\n", r.slice, r.digest));
        for (k, v) in &r.work {
            record.push_str(&format!("{k} {v}\n"));
        }
    }
    let path = args
        .state_dir
        .join(format!("{}-{}.work", args.workload.name(), args.seed));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == record => None,
        Ok(earlier) => Some(format!(
            "digest or work differs from an earlier run of seed {}:\nearlier:\n{earlier}now:\n{record}",
            args.seed
        )),
        Err(_) => std::fs::write(&path, record)
            .err()
            .map(|e| format!("cannot record work in {}: {e}", path.display())),
    }
}

/// Every round must do the work of its slice's first round and reach
/// its digest.
fn check_equal_rounds(rounds: &[Round], firsts: &[&Round]) -> Vec<String> {
    rounds
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let first = firsts[r.slice];
            (r.digest != first.digest || r.work != first.work).then(|| {
                format!(
                    "round {i} (slice {}): digest {:016x} work {:?} != the slice's first: \
                     digest {:016x} work {:?}",
                    r.slice, r.digest, r.work, first.digest, first.work
                )
            })
        })
        .collect()
}

fn round_json(r: &Round) -> String {
    let work: Vec<String> = r
        .work
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"slice\": {}, \"setup_s\": {:?}, \"serve_s\": {:?}, \"windows_per_s\": {:?}, \
         \"cpu_us_per_window\": {:?}, \"digest\": \"{:016x}\", \"work\": {{{}}}}}",
        r.slice,
        r.setup_s,
        r.serve_s,
        r.windows_per_s(),
        r.cpu_us_per_window(),
        r.digest,
        work.join(", ")
    )
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--reference") {
        // Run in a process of its own, so its buffers never show in a
        // workload's peak RSS.
        let [alu, memory] = host::reference_kernels_ms();
        println!("{{\"alu_ms\": {alu:?}, \"memory_ms\": {memory:?}}}");
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.state_dir) {
        eprintln!("perfbench: {}: {e}", args.state_dir.display());
        std::process::exit(2);
    }
    let workers = host::workers(args.workload.workers_wanted());
    let inputs = Inputs::new(args.workload, args.seed, workers, &args.state_dir);

    if args.peak_rss {
        let rounds: Vec<Round> = (0..SLICES)
            .map(|s| workloads::round(&inputs, s, false))
            .collect();
        let errors: Vec<&String> = rounds.iter().flat_map(|r| &r.errors).collect();
        for e in &errors {
            eprintln!("perfbench: check failed: {e}");
        }
        let digests: Vec<String> = rounds
            .iter()
            .map(|r| format!("\"{:016x}\"", r.digest))
            .collect();
        println!(
            "{{\"peak_rss_mb\": {:?}, \"digests\": [{}], \"correct\": {}}}",
            host::peak_rss_mb(),
            digests.join(", "),
            errors.is_empty()
        );
        return;
    }

    let jiffies0 = host::cpu_jiffies();
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    // Slices take turns. On a traced run an untraced and a traced
    // round of each slice follow each other, so the tracing overhead
    // compares rounds of the same work under the same host conditions.
    let per_slice = if args.trace { 2 } else { 1 };
    // Every slice is served, and a round starts only if one more as
    // long as the last still ends within `--seconds`.
    let mut last_round_s = 0.0;
    while rounds.len() < per_slice * SLICES
        || started.elapsed().as_secs_f64() + last_round_s < args.seconds
    {
        let t0 = Instant::now();
        let traced = args.trace && rounds.len() % 2 == 1;
        let slice = rounds.len() / per_slice % SLICES;
        rounds.push(workloads::round(&inputs, slice, traced));
        last_round_s = t0.elapsed().as_secs_f64();
    }
    let mut metrics = if args.trace {
        per_layer(&rounds)
    } else {
        end_to_end(&rounds)
    };
    let measured_s = started.elapsed().as_secs_f64();
    let jiffies1 = host::cpu_jiffies();
    let steal_share = (jiffies1.0 - jiffies0.0) as f64 / (jiffies1.1 - jiffies0.1).max(1) as f64;

    let mut errors: Vec<String> = rounds.iter().flat_map(|r| r.errors.clone()).collect();
    if errors.is_empty() {
        let firsts: Vec<&Round> = (0..SLICES).map(|s| &rounds[s * per_slice]).collect();
        errors.extend(check_equal_rounds(&rounds, &firsts));
        for r in &firsts {
            errors.extend(workloads::check_twins(&inputs, r));
        }
        errors.extend(check_against_earlier_runs(&args, &firsts));
    }
    if args.trace {
        errors.extend(layers::probes(&inputs, &args.state_dir, &mut metrics));
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let detail: Vec<String> = rounds.iter().map(round_json).collect();
    println!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"simd_isa\": \"{}\", \"workers\": {}, \"sessions\": {}, \"windows_per_session\": {}, \
         \"measured_s\": {:?}, \"host_steal_share\": {:?}, \"errors\": {}, \"rounds\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        host::nproc(),
        host::simd_isa(),
        workers,
        inputs.specs.len(),
        inputs.windows_per_session,
        measured_s,
        steal_share,
        errors.len(),
        detail.join(", ")
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty(),
        attempted.max(1),
        failed,
        metrics.to_json()
    );
}

/// `setup_s` is the median over the run's set-ups. The serving metrics
/// add up the slices, each at the median of its rounds: windows over
/// serving time, and CPU time over windows. (`peak_rss_mb` comes from a
/// process of its own; see `--peak-rss`.)
fn end_to_end(rounds: &[Round]) -> Metrics {
    let mut m = Metrics::default();
    let setup: Vec<f64> = rounds.iter().flat_map(|r| r.setup_s.clone()).collect();
    m.set("setup_s", host::median(&setup), "s");
    let (mut windows, mut serve_s, mut cpu_us) = (0.0, 0.0, 0.0);
    for slice in 0..SLICES {
        let of_slice: Vec<&Round> = rounds.iter().filter(|r| r.slice == slice).collect();
        let median =
            |x: fn(&Round) -> f64| host::median(&of_slice.iter().map(|r| x(r)).collect::<Vec<_>>());
        windows += of_slice[0].windows as f64;
        serve_s += median(|r| r.serve_s);
        cpu_us += median(|r| r.cpu_us);
    }
    m.set("windows_per_s", windows / serve_s, "windows/s");
    m.set("cpu_us_per_window", cpu_us / windows, "us");
    m
}

/// The traced run's serving-layer metrics, as medians over the traced
/// (odd) rounds. Each workload sets every layer, zero where it does
/// none of the layer's work.
fn per_layer(rounds: &[Round]) -> Metrics {
    let mut m = Metrics::default();
    let cpu_median =
        |rs: &[&Round]| host::median(&rs.iter().map(|r| r.cpu_us_per_window()).collect::<Vec<_>>());
    let untraced: Vec<&Round> = rounds.iter().step_by(2).collect();
    let traced: Vec<&Round> = rounds.iter().skip(1).step_by(2).collect();
    let layers: Vec<&Metrics> = traced.iter().map(|r| &r.layers).collect();
    m.extend(&Metrics::median_of(&layers));
    m.set(
        "trace.overhead_share",
        cpu_median(&traced) / cpu_median(&untraced) - 1.0,
        "ratio",
    );
    m
}
