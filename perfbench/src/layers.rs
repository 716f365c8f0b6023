//! Per-layer metrics for the traced run: stage self times read from the
//! `scalo-trace` spans the program emits, plus timed calls into each
//! layer's public functions made from here.

use crate::host::{median, quantile};
use crate::population::{self, mix};
use crate::workloads::{twin_digest, Inputs};
use scalo_core::cohort::{Cohort, CohortKey};
use scalo_core::session::{Session, SessionSpec};
use scalo_core::snapshot::{fnv1a, SessionSnapshot};
use scalo_data::ieeg::{generate, IeegConfig, SeizureEvent};
use scalo_fleet::{DurabilitySummary, MetricsRegistry, RecoveryReport, SessionServing, SwapReport};
use scalo_storage::image::ImageStore;
use scalo_storage::nvm::NvmParams;
use scalo_storage::wal::{WalConfig, WalRecord, WalWriter};
use scalo_trace::{attribute, Stage};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Window stages whose self time is reported per window.
const STAGES: [Stage; 13] = [
    Stage::Filter,
    Stage::Gather,
    Stage::Detect,
    Stage::Sketch,
    Stage::Probe,
    Stage::Dtw,
    Stage::Svm,
    Stage::Kalman,
    Stage::Nn,
    Stage::Radio,
    Stage::StorageRead,
    Stage::StorageWrite,
    Stage::RadioWait,
];

/// Named metric values with units.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Per name, the median of its values across `all`.
    pub fn median_of(all: &[&Metrics]) -> Metrics {
        let mut values: BTreeMap<&str, (Vec<f64>, &'static str)> = BTreeMap::new();
        for m in all {
            for (k, &(v, u)) in &m.0 {
                values.entry(k).or_insert((Vec::new(), u)).0.push(v);
            }
        }
        let mut out = Metrics::default();
        for (k, (vs, u)) in values {
            out.set(k, median(&vs), u);
        }
        out
    }

    pub fn extend(&mut self, other: &Metrics) {
        self.0.extend(other.0.iter().map(|(k, v)| (k.clone(), *v)));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Self time per window stage, summed over served windows.
#[derive(Debug, Default)]
pub struct StageAcc {
    windows: u64,
    queue_ns: u64,
    ns: [u64; STAGES.len()],
}

impl StageAcc {
    /// Folds served sessions' spans into per-window self times.
    pub fn add_sessions(&mut self, sessions: &[SessionServing]) {
        for s in sessions {
            for b in attribute(&s.trace) {
                self.windows += 1;
                self.queue_ns += b.queue_ns;
                for (acc, &stage) in self.ns.iter_mut().zip(STAGES.iter()) {
                    *acc += b.stage_ns(stage);
                }
            }
        }
    }

    /// The swap fleet folds spans into its registry's
    /// `trace.stage.<name>.span_us` histograms (µs per span, truncated)
    /// instead of returning them; windows are the merged envelopes.
    pub fn from_registry(metrics: &MetricsRegistry) -> Self {
        let sum_ns = |stage: Stage| {
            metrics
                .histogram(&format!("trace.stage.{}.span_us", stage.name()))
                .sum_us()
                * 1_000
        };
        let mut acc = Self {
            windows: metrics.histogram("trace.stage.window.span_us").count(),
            queue_ns: sum_ns(Stage::Queue),
            ns: [0; STAGES.len()],
        };
        for (v, &stage) in acc.ns.iter_mut().zip(STAGES.iter()) {
            *v = sum_ns(stage);
        }
        acc
    }

    pub fn emit(&self, m: &mut Metrics) {
        let per_window = |ns: u64| ns as f64 / 1e3 / self.windows.max(1) as f64;
        for (&ns, stage) in self.ns.iter().zip(STAGES) {
            m.set(
                &format!("stage.{}.us_per_window", stage.name()),
                per_window(ns),
                "us",
            );
        }
        m.set("stage.queue.us_per_window", per_window(self.queue_ns), "us");
    }
}

/// The swap fleet's layers, from its report and metrics registry; all
/// zero on a workload that never swaps.
pub fn swap_layers(m: &mut Metrics, swap: Option<(&SwapReport, &MetricsRegistry)>) {
    let Some((report, metrics)) = swap else {
        for name in [
            "fleet.swap.cold_builds",
            "fleet.swap.swap_ins",
            "fleet.swap.swap_outs",
            "fleet.swap.arrivals_deferred",
        ] {
            m.set(name, 0.0, "count");
        }
        m.set("fleet.swap.fault_in_mean_ms", 0.0, "ms");
        m.set("fleet.swap.fault_in_max_ms", 0.0, "ms");
        m.set("stage.swap_in.us_per_window", 0.0, "us");
        m.set("stage.swap_out.us_per_window", 0.0, "us");
        return;
    };
    m.set("fleet.swap.cold_builds", report.cold_builds as f64, "count");
    m.set("fleet.swap.swap_ins", report.swap_ins as f64, "count");
    m.set("fleet.swap.swap_outs", report.swap_outs as f64, "count");
    m.set(
        "fleet.swap.arrivals_deferred",
        report.arrivals_deferred as f64,
        "count",
    );
    let fault_in = metrics.histogram("fleet.swap_in_us");
    m.set(
        "fleet.swap.fault_in_mean_ms",
        fault_in.sum_us() as f64 / fault_in.count().max(1) as f64 / 1e3,
        "ms",
    );
    m.set(
        "fleet.swap.fault_in_max_ms",
        fault_in.max_us() as f64 / 1e3,
        "ms",
    );
    let swap_out = metrics.histogram("fleet.swap_out_us");
    let per_window = |us: u64| us as f64 / report.windows.max(1) as f64;
    m.set(
        "stage.swap_in.us_per_window",
        per_window(fault_in.sum_us()),
        "us",
    );
    m.set(
        "stage.swap_out.us_per_window",
        per_window(swap_out.sum_us()),
        "us",
    );
    m.set(
        "storage.nvm_nj_per_window",
        report.nvm.energy_nj / report.windows.max(1) as f64,
        "nJ",
    );
}

/// What one `crash_recover` round recorded about its log.
pub struct Durable<'a> {
    /// Wall time of `Fleet::recover`, s.
    pub recover_s: f64,
    pub report: &'a RecoveryReport,
    /// WAL accounting before the kill and after recovery.
    pub wal: [&'a DurabilitySummary; 2],
    /// Windows served in both runs.
    pub windows: u64,
}

/// The durable fleet's layers; all zero on a workload without a WAL.
pub fn durable_layers(m: &mut Metrics, durable: Option<Durable>) {
    let Some(d) = durable else {
        m.set("fleet.recover.wall_s", 0.0, "s");
        for name in [
            "fleet.recover.sessions",
            "fleet.recover.windows_replayed",
            "fleet.recover.log_records",
            "storage.wal.fsyncs",
        ] {
            m.set(name, 0.0, "count");
        }
        m.set("storage.wal.bytes_per_window", 0.0, "B");
        return;
    };
    let per_window = |x: u64| x as f64 / d.windows.max(1) as f64;
    let [w1, w2] = d.wal;
    m.set("fleet.recover.wall_s", d.recover_s, "s");
    m.set(
        "fleet.recover.sessions",
        d.report.sessions_recovered as f64,
        "count",
    );
    m.set(
        "fleet.recover.windows_replayed",
        d.report.windows_replayed as f64,
        "count",
    );
    m.set(
        "fleet.recover.log_records",
        d.report.log_records as f64,
        "count",
    );
    m.set(
        "storage.wal.bytes_per_window",
        per_window(w1.appended_bytes + w2.appended_bytes),
        "B",
    );
    m.set(
        "storage.wal.fsyncs",
        (w1.fsyncs + w2.fsyncs) as f64,
        "count",
    );
    m.set(
        "storage.nvm_nj_per_window",
        per_window(w1.pages_written + w2.pages_written) * NvmParams::default().write_page_nj,
        "nJ",
    );
}

/// Sessions sampled by the layer probes.
const PROBE_SESSIONS: usize = 12;
/// Ids the probes sample from: the workload's seeded population,
/// extended past its own size so the samples and the cohort group are
/// full on every workload.
const PROBE_POPULATION: u64 = 48;
/// Cohort members stepped by the cohort probe.
const COHORT_MEMBERS: u64 = 8;
/// Decision records appended by the WAL probe.
const WAL_DECISIONS: u32 = 4_096;

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// Times calls into each layer's public functions on the workload's
/// seeded population (its first `PROBE_POPULATION` ids). Returns check failures (a probe that disagrees with
/// itself is a program fault, not a timing).
pub fn probes(inputs: &Inputs, scratch: &Path, m: &mut Metrics) -> Vec<String> {
    let mut errors = Vec::new();
    let n = PROBE_POPULATION;
    let specs = population::population(inputs.seed, n, 0);
    let ids = population::sample_ids(inputs.seed ^ 0x9b0e, 0..n, PROBE_SESSIONS);
    let spec = |id: u64| -> SessionSpec { specs[id as usize].clone().with_trace_capacity(0) };

    // data: one recording per sampled patient, shaped as a session's.
    let mut gen_ms = Vec::new();
    for &id in &ids {
        let s = spec(id);
        let cfg = IeegConfig {
            nodes: s.nodes,
            electrodes_per_node: s.electrodes,
            duration_s: s.duration_s,
            seizures: vec![SeizureEvent::uniform(0.25, 0.6, 0, s.nodes, 0.0)],
            seed: s.seed,
            ..Default::default()
        };
        let t0 = Instant::now();
        std::hint::black_box(generate(&cfg));
        gen_ms.push(ms(t0));
    }
    m.set("data.generate_ms", median(&gen_ms), "ms");

    // core.session and core.snapshot: build, step to the end, and
    // snapshot at the mid-session cursor.
    let (mut new_ms, mut step_us) = (Vec::new(), Vec::new());
    let (mut enc_us, mut dec_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut images: Vec<(u64, Vec<u8>, SessionSnapshot)> = Vec::new();
    for &id in &ids {
        let t0 = Instant::now();
        let mut s = Session::new(spec(id));
        new_ms.push(ms(t0));
        let mid = (s.windows_total() / 2) as u64;
        while !s.is_done() {
            if s.window() == mid {
                let t0 = Instant::now();
                let mut buf = Vec::new();
                s.snapshot().encode_into(&mut buf);
                enc_us.push(us(t0));
                bytes.push(buf.len() as f64);
                let t0 = Instant::now();
                let decoded = SessionSnapshot::decode(&buf);
                dec_us.push(us(t0));
                match decoded {
                    Ok(snap) => images.push((id, buf, snap)),
                    Err(e) => errors.push(format!("snapshot of session {id}: {e}")),
                }
            }
            let t0 = Instant::now();
            let done = s.step().done;
            step_us.push(us(t0));
            if done {
                break;
            }
        }
    }
    m.set("core.session.new_ms.p50", quantile(&new_ms, 0.5), "ms");
    m.set("core.session.new_ms.p99", quantile(&new_ms, 0.99), "ms");
    m.set("core.session.step_us.p50", quantile(&step_us, 0.5), "us");
    m.set("core.session.step_us.p99", quantile(&step_us, 0.99), "us");
    m.set("core.snapshot.bytes", median(&bytes), "B");
    m.set("core.snapshot.encode_us", median(&enc_us), "us");
    m.set("core.snapshot.decode_us", median(&dec_us), "us");
    let mut restore_ms = Vec::new();
    for (id, _, snap) in &images {
        let t0 = Instant::now();
        let restored = Session::restore(snap);
        restore_ms.push(ms(t0));
        if let Err(e) = restored {
            errors.push(format!("restore of session {id}: {e}"));
        }
    }
    m.set(
        "core.snapshot.restore_ms.p50",
        quantile(&restore_ms, 0.5),
        "ms",
    );
    m.set(
        "core.snapshot.restore_ms.p99",
        quantile(&restore_ms, 0.99),
        "ms",
    );

    // core.cohort: one CohortKey group stepped in lockstep. Ids that
    // agree mod 6 share app (id mod 3) and BER (id mod 2).
    let first = mix(inputs.seed ^ 0xc0) % 6;
    let members: Vec<u64> = (0..COHORT_MEMBERS)
        .map(|k| first + 6 * k)
        .filter(|&id| id < n)
        .collect();
    let mut group: Vec<Session> = members.iter().map(|&id| Session::new(spec(id))).collect();
    let key = CohortKey::of(group[0].spec());
    if group.iter().any(|s| CohortKey::of(s.spec()) != key) {
        errors.push("cohort probe members do not share a CohortKey".to_string());
    } else {
        let mut cohort = Cohort::new();
        let mut out = Vec::new();
        let (mut windows, mut busy_us) = (0u64, 0.0);
        while !group[0].is_done() {
            let t0 = Instant::now();
            cohort.step_window(&mut group, &mut out);
            busy_us += us(t0);
            windows += 1;
        }
        m.set(
            "core.cohort.step_us_per_member",
            busy_us / (windows * group.len() as u64).max(1) as f64,
            "us",
        );
        // The fused path must decide exactly as solo stepping does.
        for (s, &id) in group.iter().zip(&members) {
            if fnv1a(s.decision_digest().as_bytes()) != twin_digest(&spec(id), None) {
                errors.push(format!("session {id}: cohort digest != solo twin digest"));
            }
        }
    }

    // storage.image: park and read back the mid-session images.
    let nvm = NvmParams::default();
    let mut store = ImageStore::new(4 * 1024, nvm);
    let (mut put_us, mut read_us, mut fault_us) = (Vec::new(), Vec::new(), Vec::new());
    for (id, buf, _) in &images {
        let t0 = Instant::now();
        let put = store.put(*id, buf);
        put_us.push(us(t0));
        if let Err(e) = put {
            errors.push(format!("image put {id}: {e}"));
            continue;
        }
        let t0 = Instant::now();
        let read = store.read(*id);
        read_us.push(us(t0));
        match read {
            Ok((back, cost)) if back == *buf => fault_us.push(cost.time_us),
            Ok(_) => errors.push(format!("image {id} read back different bytes")),
            Err(e) => errors.push(format!("image read {id}: {e}")),
        }
    }
    m.set("storage.image.put_us", median(&put_us), "us");
    m.set("storage.image.read_us", median(&read_us), "us");
    m.set("storage.image.nvm_us_per_fault", median(&fault_us), "us");

    // storage.wal: decision appends with a group commit every 32, the
    // way a durable fleet logs them.
    let dir = scratch.join(format!("wal-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    match WalWriter::create(&dir, WalConfig::default()) {
        Ok(mut wal) => {
            let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
            for w in 0..WAL_DECISIONS {
                let rec = WalRecord::Decision {
                    session: u64::from(w % 128),
                    window: w / 128,
                    digest: mix(u64::from(w)),
                };
                let t0 = Instant::now();
                let appended = wal.append(&rec);
                append_us.push(us(t0));
                if let Err(e) = appended {
                    errors.push(format!("wal append: {e}"));
                    break;
                }
                if w % 32 == 31 {
                    let t0 = Instant::now();
                    let synced = wal.sync();
                    sync_us.push(us(t0));
                    if let Err(e) = synced {
                        errors.push(format!("wal sync: {e}"));
                        break;
                    }
                }
            }
            m.set("storage.wal.append_us", median(&append_us), "us");
            m.set("storage.wal.sync_us", median(&sync_us), "us");
        }
        Err(e) => errors.push(format!("wal create: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
    errors
}
