//! Lightweight serving metrics: named counters, gauges, and
//! fixed-bucket latency histograms, exported as JSON.
//!
//! The registry is the fleet's only shared-mutable state on the hot
//! path, so it is built from atomics: workers record a step with two
//! relaxed fetch-adds and no locking. Registration (name → handle) is
//! behind a mutex, but jobs resolve their handles once at construction
//! and never touch the maps while stepping. `BTreeMap` keeps the JSON
//! export deterministically ordered.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level that can go up and down (resident sessions,
/// swapped sessions, NVM image bytes). Unlike a [`Counter`] it is not
/// monotone; `set` overwrites, `add`/`sub` adjust. `sub` saturates at
/// zero rather than wrapping so a racy decrement cannot report 2^64.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    /// High-water mark of every value ever set (peak occupancy).
    peak: AtomicU64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Raises the gauge by `n`.
    pub fn add(&self, n: u64) {
        let v = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(v, Ordering::Relaxed);
    }

    /// Lowers the gauge by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest level ever held.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Upper bounds (µs, inclusive) of the latency buckets. The last bucket
/// is open-ended; the spread covers sub-window steps (tens of µs)
/// through badly overrun steps (tenths of a second).
pub const LATENCY_BOUNDS_US: [u64; 12] = [
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    u64::MAX,
];

/// A fixed-bucket latency histogram over [`LATENCY_BOUNDS_US`].
#[derive(Debug, Default)]
pub struct Histogram {
    counts: [AtomicU64; LATENCY_BOUNDS_US.len()],
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// Records one observation in µs.
    pub fn observe(&self, us: u64) {
        let bucket = LATENCY_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BOUNDS_US.len() - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observations, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Largest observation, µs.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Mean observation, µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us() as f64 / n as f64
        }
    }

    /// Per-bucket counts, in [`LATENCY_BOUNDS_US`] order.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Upper bound (µs) of the bucket containing quantile `q` in 0..=1,
    /// clamped to the largest observation — no quantile reads above the
    /// max it is a quantile of (the exact max for the open-ended last
    /// bucket; 0 when empty).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return LATENCY_BOUNDS_US[i].min(self.max_us());
            }
        }
        self.max_us()
    }

    fn to_json(&self) -> String {
        let counts = self.bucket_counts();
        let bounds: Vec<String> = LATENCY_BOUNDS_US
            .iter()
            .map(|&b| {
                if b == u64::MAX {
                    "null".to_string() // open-ended
                } else {
                    b.to_string()
                }
            })
            .collect();
        format!(
            "{{\"bounds_us\":[{}],\"counts\":[{}],\"count\":{},\"sum_us\":{},\"max_us\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p99_us\":{}}}",
            bounds.join(","),
            counts
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
            self.count(),
            self.sum_us(),
            self.max_us(),
            self.mean_us(),
            self.quantile_us(0.50),
            self.quantile_us(0.99),
        )
    }
}

/// The fleet's metric registry: names to shared counter/histogram
/// handles.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// Poisoned registry locks are neutralized (`into_inner`): the maps
    /// only ever grow by inserting `Arc`s, so a panic in another thread
    /// cannot leave them half-updated, and observability should keep
    /// working while that panic propagates.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Serialises every metric as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        let gauges = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        let histograms = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::from("{\"counters\":{");
        for (i, (name, c)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), c.get());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, g)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"value\":{},\"peak\":{}}}",
                json_string(name),
                g.get(),
                g.peak()
            );
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), h.to_json());
        }
        out.push_str("}}");
        out
    }
}

/// Quotes and escapes `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("fleet.steps");
        c.incr();
        c.add(4);
        assert_eq!(reg.counter("fleet.steps").get(), 5);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for us in [10, 60, 60, 150, 900, 40_000] {
            h.observe(us);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max_us(), 40_000);
        assert_eq!(h.sum_us(), 10 + 60 + 60 + 150 + 900 + 40_000);
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1); // ≤50
        assert_eq!(counts[1], 2); // ≤100
        assert_eq!(counts[2], 1); // ≤200
        assert_eq!(counts[4], 1); // ≤1000
        assert_eq!(counts[9], 1); // ≤50_000
        assert_eq!(h.quantile_us(0.5), 100);
        // The ≤50_000 bucket's bound is above anything observed: the
        // top quantile is the max itself.
        assert_eq!(h.quantile_us(1.0), 40_000);
    }

    #[test]
    fn quantiles_never_exceed_the_observed_max() {
        // One slow fault-in of 17.6 ms lands in the ≤20 ms bucket; its
        // p99 must not read 20 ms, above the max it summarises.
        let h = Histogram::default();
        h.observe(17_600);
        assert_eq!(h.max_us(), 17_600);
        assert!(h.quantile_us(0.99) <= 17_600, "{}", h.quantile_us(0.99));
        assert_eq!(h.quantile_us(0.5), 17_600);
    }

    #[test]
    fn overflow_bucket_reports_true_max() {
        let h = Histogram::default();
        h.observe(10_000_000);
        assert_eq!(h.quantile_us(0.99), 10_000_000);
    }

    #[test]
    fn gauges_set_add_sub_and_peak() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("fleet.resident_sessions");
        g.set(5);
        g.add(3);
        g.sub(6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        assert_eq!(reg.gauge("fleet.resident_sessions").get(), 0);
    }

    #[test]
    fn json_export_is_wellformed_and_ordered() {
        let reg = MetricsRegistry::new();
        reg.counter("b.steps").add(2);
        reg.counter("a.steps").add(1);
        reg.gauge("fleet.swapped_sessions").set(7);
        reg.histogram("lat").observe(75);
        let json = reg.to_json();
        assert!(json.starts_with("{\"counters\":{\"a.steps\":1,\"b.steps\":2}"));
        assert!(json.contains("\"gauges\":{\"fleet.swapped_sessions\":{\"value\":7,\"peak\":7}}"));
        assert!(json.contains("\"lat\":{\"bounds_us\":[50,100,"));
        assert!(json.contains("\"count\":1"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
