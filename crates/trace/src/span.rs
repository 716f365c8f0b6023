//! The span recorder: a fixed-capacity per-session ring of
//! [`SpanEvent`]s, allocation-free in the steady state.
//!
//! A [`Recorder`] is owned by a session's `Workspace` and rides the
//! per-window hot path, so it obeys the same memory discipline as the
//! rest of the pipeline: the ring is pre-allocated once (at session
//! admission), `begin`/`end` write into it in place, and overflow
//! recycles the **oldest** event (counted, never silently) rather than
//! growing. A disabled recorder — the default — is a branch-and-return
//! no-op: it never reads the clock, so the untraced hot path is
//! byte-for-byte the PR 3 reference.

use crate::stage::Stage;
use std::time::Instant;

/// Deepest allowed `begin` nesting. The instrumented pipeline nests at
/// most three deep (window → exchange → leaf); deeper `begin`s are
/// counted as unbalanced and dropped.
pub const MAX_NEST: usize = 8;

/// One closed span: a stage, its window, begin/end ticks (ns since the
/// recorder's epoch), and the modeled power draw of the stage's Table 1
/// PEs while it ran.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanEvent {
    /// What ran.
    pub stage: Stage,
    /// The window index the span belongs to.
    pub window: u32,
    /// Start tick, ns since the recorder epoch.
    pub begin_ns: u64,
    /// End tick, ns since the recorder epoch (`>= begin_ns`).
    pub end_ns: u64,
    /// Modeled power draw in µW ([`Stage::power_uw`] at the session's
    /// electrode count).
    pub power_uw: f32,
}

impl SpanEvent {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.begin_ns
    }

    /// Modeled energy spent in this span, in nJ (power × duration).
    pub fn energy_nj(&self) -> f64 {
        // µW × ns = femtojoules; ÷ 1e6 → nanojoules.
        f64::from(self.power_uw) * self.dur_ns() as f64 / 1.0e6
    }
}

/// A fixed-capacity span recorder. See the [module docs](self) for the
/// memory discipline; see [`crate::report`] for what the events become.
#[derive(Debug, Clone)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    electrodes: usize,
    ring: Vec<SpanEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring is full (also the next
    /// overwrite position).
    oldest: usize,
    dropped: u64,
    stack: [(Stage, u64); MAX_NEST],
    depth: usize,
    unbalanced: u64,
    window: u32,
    queued_since: Option<u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Recorder {
    /// A disabled recorder: every call is a no-op, nothing is ever
    /// recorded, and no clock is read. This is the default state every
    /// `Workspace` starts in.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            electrodes: 0,
            ring: Vec::new(),
            capacity: 0,
            oldest: 0,
            dropped: 0,
            stack: [(Stage::Window, 0); MAX_NEST],
            depth: 0,
            unbalanced: 0,
            window: 0,
            queued_since: None,
        }
    }

    /// An enabled recorder holding at most `capacity` events, modeling
    /// power for `electrodes` streams per node. The ring is allocated
    /// here, once; recording never allocates afterwards. A zero
    /// `capacity` yields a disabled recorder.
    pub fn with_capacity(capacity: usize, electrodes: usize) -> Self {
        let mut rec = Self::disabled();
        if capacity > 0 {
            rec.enabled = true;
            rec.electrodes = electrodes;
            rec.capacity = capacity;
            rec.ring = Vec::with_capacity(capacity);
        }
        rec
    }

    /// Whether this recorder records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The electrode count used for modeled power.
    pub fn electrodes(&self) -> usize {
        self.electrodes
    }

    /// Sets the window index stamped on subsequently closed spans.
    pub fn set_window(&mut self, window: u32) {
        if self.enabled {
            self.window = window;
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of `stage`. Must be matched by an [`Recorder::end`]
    /// with the same stage; a `begin` nested deeper than [`MAX_NEST`]
    /// is counted in [`Recorder::unbalanced`] and otherwise ignored.
    pub fn begin(&mut self, stage: Stage) {
        if !self.enabled {
            return;
        }
        if self.depth >= MAX_NEST {
            self.unbalanced += 1;
            return;
        }
        self.stack[self.depth] = (stage, self.now_ns());
        self.depth += 1;
    }

    /// Closes the innermost open span, which must be of `stage`. A
    /// mismatched or unopened `end` is counted in
    /// [`Recorder::unbalanced`] and records nothing.
    pub fn end(&mut self, stage: Stage) {
        if !self.enabled {
            return;
        }
        if self.depth == 0 || self.stack[self.depth - 1].0 != stage {
            self.unbalanced += 1;
            return;
        }
        self.depth -= 1;
        let (_, begin_ns) = self.stack[self.depth];
        let ev = SpanEvent {
            stage,
            window: self.window,
            begin_ns,
            end_ns: self.now_ns(),
            power_uw: stage.power_uw(self.electrodes) as f32,
        };
        self.push(ev);
    }

    /// Marks the session as parked on a fleet run queue (called when a
    /// quantum yields). The matching [`Recorder::mark_scheduled`]
    /// closes the gap as a [`Stage::Queue`] span.
    pub fn mark_queued(&mut self) {
        if self.enabled {
            self.queued_since = Some(self.now_ns());
        }
    }

    /// Marks the session as picked up by a worker: records the elapsed
    /// queue gap (if one was marked) as a [`Stage::Queue`] span stamped
    /// with the *upcoming* window.
    pub fn mark_scheduled(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(begin_ns) = self.queued_since.take() {
            let ev = SpanEvent {
                stage: Stage::Queue,
                window: self.window,
                begin_ns,
                end_ns: self.now_ns(),
                power_uw: 0.0,
            };
            self.push(ev);
        }
    }

    /// Records a span of `stage` whose duration was measured externally
    /// (e.g. a swap-in that completed *before* this recorder could
    /// `begin` — the restore path rebuilds the session, and with it the
    /// recorder, as part of the operation being timed). The span ends
    /// now and extends `dur_ns` into the past, clamped to the recorder
    /// epoch, stamped with the current window.
    pub fn record_external(&mut self, stage: Stage, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let ev = SpanEvent {
            stage,
            window: self.window,
            begin_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            power_uw: stage.power_uw(self.electrodes) as f32,
        };
        self.push(ev);
    }

    /// Records `charges` — `(stage, ns)` pairs measured outside this
    /// recorder, such as a cohort member's share of work the window
    /// engine ran once for several sessions — as back-to-back spans in
    /// order, the last one ending now. Zero-length charges record
    /// nothing. Returns the first span's begin tick.
    pub fn record_charged(&mut self, charges: &[(Stage, u64)]) -> u64 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        let total: u64 = charges.iter().map(|&(_, ns)| ns).sum();
        let start = now.saturating_sub(total);
        let mut cursor = start;
        for &(stage, ns) in charges {
            if ns == 0 {
                continue;
            }
            let end_ns = (cursor + ns).min(now);
            self.push(SpanEvent {
                stage,
                window: self.window,
                begin_ns: cursor,
                end_ns,
                power_uw: stage.power_uw(self.electrodes) as f32,
            });
            cursor = end_ns;
        }
        start
    }

    /// Opens a span of `stage` backdated to cover `charges`, which are
    /// recorded inside it as by [`Recorder::record_charged`]. Work the
    /// caller was charged for before the span could open thus counts
    /// toward the span's duration — and, for a [`Stage::Window`]
    /// envelope, toward the window's attributed wall time.
    pub fn begin_charged(&mut self, stage: Stage, charges: &[(Stage, u64)]) {
        if !self.enabled {
            return;
        }
        let start = self.record_charged(charges);
        if self.depth >= MAX_NEST {
            self.unbalanced += 1;
            return;
        }
        self.stack[self.depth] = (stage, start);
        self.depth += 1;
    }

    fn push(&mut self, ev: SpanEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev); // within capacity: no allocation
        } else {
            // Full: recycle the oldest slot and count the drop.
            self.ring[self.oldest] = ev;
            self.oldest = (self.oldest + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Closed spans currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no span has been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted to make room (oldest-first recycling).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `begin`/`end` calls that did not pair up (mismatched stage,
    /// `end` without `begin`, or nesting beyond [`MAX_NEST`]). A
    /// correctly instrumented pipeline keeps this at 0.
    pub fn unbalanced(&self) -> u64 {
        self.unbalanced
    }

    /// Spans currently open (0 between windows when instrumentation is
    /// balanced).
    pub fn open_depth(&self) -> usize {
        self.depth
    }

    /// Iterates the held events oldest-first, without allocating.
    pub fn iter(&self) -> impl Iterator<Item = &SpanEvent> {
        let split = if self.ring.len() < self.capacity {
            0
        } else {
            self.oldest
        };
        self.ring[split..].iter().chain(self.ring[..split].iter())
    }

    /// The held events oldest-first, as an owned vector (allocates;
    /// meant for export after the run, not for the hot path).
    pub fn events(&self) -> Vec<SpanEvent> {
        self.iter().copied().collect()
    }

    /// Forgets every held event (capacity and counters are kept).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.oldest = 0;
        self.depth = 0;
        self.queued_since = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        rec.set_window(3);
        rec.begin(Stage::Filter);
        rec.end(Stage::Filter);
        rec.mark_queued();
        rec.mark_scheduled();
        assert!(!rec.is_enabled());
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.unbalanced(), 0);
        // Zero capacity is the same as disabled.
        assert!(!Recorder::with_capacity(0, 4).is_enabled());
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let mut rec = Recorder::with_capacity(16, 4);
        rec.set_window(7);
        rec.begin(Stage::Window);
        rec.begin(Stage::Filter);
        rec.end(Stage::Filter);
        rec.begin(Stage::Detect);
        rec.end(Stage::Detect);
        rec.end(Stage::Window);
        let ev = rec.events();
        assert_eq!(ev.len(), 3);
        // Inner spans close first.
        assert_eq!(ev[0].stage, Stage::Filter);
        assert_eq!(ev[1].stage, Stage::Detect);
        assert_eq!(ev[2].stage, Stage::Window);
        assert!(ev.iter().all(|e| e.window == 7 && e.end_ns >= e.begin_ns));
        // The envelope contains its children.
        assert!(ev[2].begin_ns <= ev[0].begin_ns && ev[1].end_ns <= ev[2].end_ns);
        assert_eq!(rec.open_depth(), 0);
        assert_eq!(rec.unbalanced(), 0);
    }

    #[test]
    fn overflow_recycles_oldest_and_counts() {
        let mut rec = Recorder::with_capacity(4, 1);
        for w in 0..10u32 {
            rec.set_window(w);
            rec.begin(Stage::Probe);
            rec.end(Stage::Probe);
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let windows: Vec<u32> = rec.iter().map(|e| e.window).collect();
        assert_eq!(windows, vec![6, 7, 8, 9], "oldest-first, newest kept");
    }

    #[test]
    fn unbalanced_calls_are_counted_not_recorded() {
        let mut rec = Recorder::with_capacity(8, 1);
        rec.end(Stage::Filter); // end without begin
        rec.begin(Stage::Filter);
        rec.end(Stage::Detect); // mismatched stage
        assert_eq!(rec.unbalanced(), 2);
        assert!(rec.is_empty());
        assert_eq!(rec.open_depth(), 1, "the mismatched begin stays open");
        rec.end(Stage::Filter);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn nesting_deeper_than_max_is_rejected() {
        let mut rec = Recorder::with_capacity(64, 1);
        for _ in 0..MAX_NEST + 3 {
            rec.begin(Stage::Window);
        }
        assert_eq!(rec.unbalanced(), 3);
        assert_eq!(rec.open_depth(), MAX_NEST);
    }

    #[test]
    fn queue_gap_becomes_a_queue_span() {
        let mut rec = Recorder::with_capacity(8, 1);
        rec.set_window(2);
        rec.mark_scheduled(); // no pending mark: no span
        assert!(rec.is_empty());
        rec.mark_queued();
        rec.mark_scheduled();
        let ev = rec.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].stage, Stage::Queue);
        assert_eq!(ev[0].power_uw, 0.0);
    }

    #[test]
    fn external_spans_are_clamped_and_stamped() {
        let mut rec = Recorder::with_capacity(8, 4);
        rec.set_window(5);
        rec.record_external(Stage::SwapIn, u64::MAX);
        let ev = rec.events()[0];
        assert_eq!(ev.stage, Stage::SwapIn);
        assert_eq!(ev.window, 5);
        assert_eq!(ev.begin_ns, 0, "clamped to the recorder epoch");
        assert!(ev.end_ns >= ev.begin_ns);
        // Disabled recorders ignore external spans too.
        let mut off = Recorder::disabled();
        off.record_external(Stage::SwapOut, 100);
        assert!(off.is_empty());
    }

    #[test]
    fn charged_spans_open_the_envelope_back_to_back() {
        let mut rec = Recorder::with_capacity(16, 4);
        // Let the epoch fall far enough behind for the charges to fit.
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.set_window(9);
        let charges = [
            (Stage::RadioWait, 400_000),
            (Stage::Gather, 0),
            (Stage::Sketch, 3_000),
            (Stage::Filter, 5_000),
        ];
        rec.begin_charged(Stage::Window, &charges);
        rec.begin(Stage::Detect);
        rec.end(Stage::Detect);
        rec.end(Stage::Window);
        assert_eq!(rec.unbalanced(), 0);
        let events = rec.events();
        // The zero-length gather records nothing.
        let stages: Vec<Stage> = events.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            [
                Stage::RadioWait,
                Stage::Sketch,
                Stage::Filter,
                Stage::Detect,
                Stage::Window
            ]
        );
        assert_eq!(events[0].dur_ns(), 400_000);
        assert_eq!(events[1].begin_ns, events[0].end_ns, "back to back");
        assert_eq!(events[2].begin_ns, events[1].end_ns, "back to back");
        let window = events[4];
        assert_eq!(
            window.begin_ns, events[0].begin_ns,
            "envelope covers the charges"
        );
        assert!(window.dur_ns() >= 408_000);
        let b = &crate::report::attribute(&events)[0];
        assert_eq!(b.total_ns(), b.wall_ns);
        assert_eq!(b.stage_ns(Stage::RadioWait), 400_000);
        assert_eq!(b.stage_ns(Stage::Filter), 5_000);
    }

    #[test]
    fn power_and_energy_are_modeled() {
        let mut rec = Recorder::with_capacity(8, 96);
        rec.begin(Stage::Filter);
        std::thread::sleep(std::time::Duration::from_micros(50));
        rec.end(Stage::Filter);
        let ev = rec.events()[0];
        let expect = Stage::Filter.power_uw(96) as f32;
        assert_eq!(ev.power_uw, expect);
        assert!(ev.energy_nj() > 0.0);
    }

    #[test]
    fn clear_keeps_capacity_and_counters() {
        let mut rec = Recorder::with_capacity(2, 1);
        for _ in 0..5 {
            rec.begin(Stage::Probe);
            rec.end(Stage::Probe);
        }
        assert_eq!(rec.dropped(), 3);
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 3, "drop counter survives clear");
        rec.begin(Stage::Probe);
        rec.end(Stage::Probe);
        assert_eq!(rec.len(), 1);
    }
}
