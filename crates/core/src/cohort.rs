//! The window engine: every served window, solo or cohort-batched.
//!
//! A fleet serving many patients admits sessions whose per-window work
//! is *structurally identical* — same deployment shape, same recording
//! length, same decode cadence and transport — differing only in seed.
//! [`Cohort::step_window`] steps any number of such sessions through one
//! window at once, and a solo [`Session::step`] is the same engine over
//! a cohort of one. The engine never waits: the modeled radio stall
//! ([`SessionSpec::io_stall_us`]) is served by the caller **once** for
//! the whole cohort — the implant radios are concurrent devices, so one
//! wall-clock wait covers every member — and handed in as the window's
//! `waited_ns` ([`Cohort::step_window_after`]). [`Session::step`] serves
//! it as a sleep; a fleet parks the waiting job off its worker, so a
//! waiting group holds no thread. Per window the engine then runs one
//! **pre-pass**:
//!
//! * at each implant position, every member's window is gathered into
//!   one fused channel-major block of `members × electrodes` lanes and
//!   hashed with **one** batched SSH walk (`SshHasher::hash_block_into`);
//! * detection features for every lane run through **one** shared
//!   [`FftScratch`] (the plan is built once and walked lane by lane,
//!   straight from the members' recordings).
//!
//! Then each member runs its own window step on its lanes of the fused
//! results (`SeizureApp`'s one window consumer): ingest stores the lane
//! hashes, detection votes on the lane features, and the origin's
//! confirmation exchange broadcasts its node's ingest hash lanes instead
//! of re-gathering and re-hashing the window. Storage, CCHECK, the
//! exchange, movement decode, and every RNG draw stay per-member.
//!
//! Fusion is bitwise-safe by construction: hashers are deterministic
//! functions of the measure config (no per-session seed, see
//! `MeasureHasher::for_measure`), and every per-channel kernel in the
//! block engine is width-independent — a lane's sketch, z-norm, and
//! band powers do not depend on how many other lanes share the block.
//! Members' simulation clocks may drift apart (reliable-transport
//! airtime advances them), but clocks only feed member-local ingest
//! timestamps and the member's own exchange, both of which run inside
//! the per-member step. The equivalence tests below (and the fleet's
//! digest guards) hold cohort-stepped decisions byte-identical to solo
//! stepping.
//!
//! The wait and the pre-pass are charged back to the members. Each
//! member's window opens with the whole radio wait (every member waited
//! all of it) and its lane share — `1/members` — of the gather, hash,
//! and feature stages, as [`Stage::RadioWait`] / [`Stage::Gather`] /
//! [`Stage::Sketch`] / [`Stage::Filter`] spans inside its
//! [`Stage::Window`] envelope, and the same charge is added to its
//! [`StepOutcome::wall_us`]. Per-window stage totals therefore equal
//! wall time, and deadlines are held against the work a window really
//! cost, in a cohort as in solo serving.

use crate::apps::seizure::{RecordingView, SeizureApp, WINDOW};
use crate::node::Node;
use crate::session::{Session, SessionSpec, StepOutcome};
use scalo_lsh::eval::MeasureHasher;
use scalo_lsh::ssh::BlockHashScratch;
use scalo_lsh::SignalHash;
use scalo_signal::block::ChannelBlock;
use scalo_signal::fft::FftScratch;
use scalo_trace::Stage;
use std::time::Instant;

/// The structural identity sessions must share to step as one cohort:
/// every spec field that shapes the per-window work. Seeds (and ids,
/// priorities, deadlines, trace capacities) are deliberately excluded —
/// members are *different patients* with the same workload shape.
///
/// Float fields are keyed by bit pattern, so two specs compare equal
/// exactly when their recordings and channels are generated alike. Keys
/// order lexicographically (field order), giving the fleet's grouping
/// pass a deterministic cohort order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CohortKey {
    /// Implants per deployment.
    pub nodes: usize,
    /// Electrodes per implant (the fused block's per-member lane count).
    pub electrodes: usize,
    /// Recording length, as `f64::to_bits` (fixes `windows_total`, so
    /// members finish in lockstep).
    pub duration_bits: u64,
    /// Channel bit-error ratio, as `f64::to_bits`.
    pub ber_bits: u64,
    /// Movement-mix cadence in windows.
    pub movement_every: usize,
    /// Whether hash broadcasts ride the reliable transport.
    pub use_reliable_transport: bool,
    /// Modeled per-window device wait in µs (one wait serves the
    /// cohort).
    pub io_stall_us: u64,
}

impl CohortKey {
    /// The cohort a spec would join.
    pub fn of(spec: &SessionSpec) -> Self {
        Self {
            nodes: spec.nodes,
            electrodes: spec.electrodes,
            duration_bits: spec.duration_s.to_bits(),
            ber_bits: spec.ber.to_bits(),
            movement_every: spec.movement_every,
            use_reliable_transport: spec.use_reliable_transport,
            io_stall_us: spec.io_stall_us,
        }
    }
}

/// One window's fused kernel results: per implant position, one hash
/// and one detection feature vector per lane, lane `m * electrodes + e`
/// being member `m`'s electrode `e`.
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowLanes {
    /// Ingest hashes, indexed `[node][lane]`.
    hashes: Vec<Vec<SignalHash>>,
    /// Detection features, indexed `[node]`, `n_feat` per lane.
    features: Vec<Vec<f64>>,
    /// Features per lane.
    n_feat: usize,
    /// Lanes per member (electrodes per implant).
    electrodes: usize,
}

impl WindowLanes {
    /// Member `m`'s view of the lanes.
    pub(crate) fn member(&self, m: usize) -> MemberLanes<'_> {
        MemberLanes {
            lanes: self,
            lane0: m * self.electrodes,
        }
    }
}

/// One member's slice of a window's [`WindowLanes`]: what `SeizureApp`'s
/// window step consumes instead of hashing and featurising on its own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemberLanes<'a> {
    lanes: &'a WindowLanes,
    lane0: usize,
}

impl<'a> MemberLanes<'a> {
    /// The member's per-electrode ingest hashes at implant `node`.
    pub(crate) fn hashes(&self, node: usize) -> &'a [SignalHash] {
        &self.lanes.hashes[node][self.lane0..self.lane0 + self.lanes.electrodes]
    }

    /// The member's detection features for electrode `e` at `node`.
    pub(crate) fn features(&self, node: usize, e: usize) -> &'a [f64] {
        let n = self.lanes.n_feat;
        &self.lanes.features[node][(self.lane0 + e) * n..][..n]
    }
}

/// What one member is charged for the window's shared pre-pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Charge {
    /// Spans recorded ahead of the member's own work, in pre-pass order:
    /// the whole radio wait, then its lane share of gather, hash, and
    /// feature extraction (those three are split out only when a member
    /// is traced, and zero otherwise).
    pub(crate) spans: [(Stage, u64); 4],
    /// Nanoseconds added to the member's wall time: the radio wait plus
    /// its share of the pre-pass.
    pub(crate) ns: u64,
}

/// The window engine's reusable scratch: the fused channel-major block,
/// the batched hash intermediates, the shared FFT plan, and the fused
/// lane results. One `Cohort` serves any member count; buffers grow to
/// the largest cohort seen and are recycled window to window
/// (steady-state windows allocate nothing). A session's
/// [`crate::Workspace`] carries one for stepping as a cohort of one;
/// it stays empty while the session steps inside a fleet cohort, whose
/// own engine serves it.
#[derive(Debug, Clone, Default)]
pub struct Cohort {
    /// `members × electrodes` lanes of the current window, per implant
    /// position in turn.
    block: ChannelBlock,
    /// Batched SSH intermediates for the fused block.
    scratch: BlockHashScratch,
    /// The shared FFT scratch — one plan, walked over every lane.
    fft: FftScratch,
    /// One lane's feature vector before it lands in the flat buffer.
    feat: Vec<f64>,
    /// The current window's results.
    lanes: WindowLanes,
}

impl Cohort {
    /// An empty engine scratch; the first window sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`Self::step_window_after`] with no radio wait served: the
    /// window is charged no `radio_wait`, whatever the members'
    /// [`SessionSpec::io_stall_us`].
    ///
    /// # Panics
    ///
    /// As [`Self::step_window_after`].
    pub fn step_window(&mut self, sessions: &mut [Session], out: &mut Vec<StepOutcome>) {
        self.step_window_after(sessions, 0, out);
    }

    /// Steps every session in `sessions` through exactly one window
    /// after a radio wait of `waited_ns` that the caller has already
    /// served, pushing one [`StepOutcome`] per member (in order) onto
    /// `out` (cleared first). Every member is charged the whole wait.
    /// Members must share a [`CohortKey`] and sit at the same window
    /// cursor — the cohort steps in lockstep from admission, and a
    /// shared `duration_bits` makes them finish together. Decisions are
    /// bit-identical to calling [`Session::step`] on each member.
    ///
    /// # Panics
    ///
    /// Panics if `sessions` is empty, or if members disagree on the
    /// cohort key or window cursor.
    pub fn step_window_after(
        &mut self,
        sessions: &mut [Session],
        waited_ns: u64,
        out: &mut Vec<StepOutcome>,
    ) {
        out.clear();
        self.step_each(sessions, waited_ns, |o| out.push(o));
    }

    /// [`Self::step_window_after`] handing each member's outcome to
    /// `emit` (member order) — the form [`Session::step_after`] runs on
    /// itself.
    pub(crate) fn step_each(
        &mut self,
        sessions: &mut [Session],
        waited_ns: u64,
        mut emit: impl FnMut(StepOutcome),
    ) {
        let first = &sessions[0];
        let key = CohortKey::of(first.spec());
        let cursor = first.window();
        for s in sessions.iter() {
            assert_eq!(CohortKey::of(s.spec()), key, "cohort member shape drift");
            assert_eq!(s.window(), cursor, "cohort member cursor drift");
        }
        if first.is_done() {
            // Lockstep: everyone is done.
            for s in sessions.iter() {
                emit(s.finished());
            }
            return;
        }
        let members = sessions.len();
        let start = Instant::now();
        let timed = sessions.iter().any(|s| s.trace().is_enabled());
        let stages = self.prepass(
            sessions[0].app(),
            key.electrodes,
            cursor as usize * WINDOW,
            members,
            |m| sessions[m].recording(),
            timed.then_some(start),
        );
        let end = Instant::now();
        let n = members as u64;
        let charge = Charge {
            spans: [
                (Stage::RadioWait, waited_ns),
                (Stage::Gather, stages[0] / n),
                (Stage::Sketch, stages[1] / n),
                (Stage::Filter, stages[2] / n),
            ],
            ns: waited_ns + (end - start).as_nanos() as u64 / n,
        };

        // Fan out: each member consumes its lanes and runs its own
        // protocol step (storage, CCHECK, exchange, movement, RNG). A
        // member's own time runs from where the previous one ended.
        let mut started = end;
        for (m, s) in sessions.iter_mut().enumerate() {
            let (out, ended) = s.step_member(self.member(m), &charge, started);
            started = ended;
            emit(out);
        }
    }

    /// The pre-pass for the window starting at sample `t0`: gathers,
    /// hashes, and featurises every member's window at every implant
    /// into the fused lanes. `recording(m)` is member `m`'s recording;
    /// `app` supplies the (config-deterministic) hashers. With `laps`
    /// set to the pass's start, returns the ns spent gathering, hashing,
    /// and extracting features (zeros otherwise — untraced windows read
    /// no clock here).
    pub(crate) fn prepass<'r>(
        &mut self,
        app: &SeizureApp,
        electrodes: usize,
        t0: usize,
        members: usize,
        recording: impl Fn(usize) -> RecordingView<'r>,
        mut laps: Option<Instant>,
    ) -> [u64; 3] {
        let mut stage_ns = [0u64; 3];
        let mut lap = |stage: usize| {
            if let Some(last) = laps.as_mut() {
                let now = Instant::now();
                stage_ns[stage] += (now - *last).as_nanos() as u64;
                *last = now;
            }
        };
        let window =
            |m: usize, node: usize, e: usize| -> &'r [f64] { recording(m).window(node, e, t0) };
        let nodes = app.system().node_count();
        let lanes = members * electrodes;
        let Self {
            block,
            scratch,
            fft,
            feat,
            lanes: out,
        } = self;
        out.electrodes = electrodes;
        if out.hashes.len() < nodes {
            out.hashes.resize_with(nodes, Vec::new);
            out.features.resize_with(nodes, Vec::new);
        }
        for node in 0..nodes {
            // Gather: lane `m * electrodes + e` is member m's electrode e.
            block.reset(lanes, WINDOW);
            block.fill_channels(|lane| window(lane / electrodes, node, lane % electrodes));
            lap(0);
            // One batched hash over all members' lanes. Any member's
            // hasher works: they are identical functions of the measure
            // config.
            let hashes = &mut out.hashes[node];
            match app.system().node(node).hasher() {
                MeasureHasher::Ssh(h) => h.hash_block_into(block, scratch, hashes),
                // EMDH has no batched entry point; hash lane by lane
                // (still one loop for the whole cohort).
                MeasureHasher::Emd(h) => {
                    hashes.clear();
                    for lane in 0..lanes {
                        hashes.push(h.hash(window(lane / electrodes, node, lane % electrodes)));
                    }
                }
            }
            lap(1);
            // One FFT-plan walk over every lane for the detection
            // features, read straight from the recordings.
            let features = &mut out.features[node];
            features.clear();
            for lane in 0..lanes {
                Node::detection_features_into(
                    window(lane / electrodes, node, lane % electrodes),
                    fft,
                    feat,
                );
                out.n_feat = feat.len();
                features.extend_from_slice(feat);
            }
            lap(2);
        }
        stage_ns
    }

    /// Member `m`'s lanes of the last pre-pass.
    pub(crate) fn member(&self, m: usize) -> MemberLanes<'_> {
        self.lanes.member(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(id: u64, seed: u64) -> SessionSpec {
        SessionSpec::new(id, seed).with_duration_s(0.4)
    }

    /// Steps `specs` solo and as one cohort; both runs must agree on
    /// every decision digest, step digest, and RNG cursor.
    fn assert_cohort_matches_solo(specs: &[SessionSpec]) {
        let mut solo: Vec<Session> = specs.iter().cloned().map(Session::new).collect();
        for s in solo.iter_mut() {
            while !s.step().done {}
        }
        let mut batched: Vec<Session> = specs.iter().cloned().map(Session::new).collect();
        let mut cohort = Cohort::new();
        let mut out = Vec::new();
        loop {
            cohort.step_window(&mut batched, &mut out);
            if out.iter().all(|o| o.done) {
                break;
            }
        }
        for (a, b) in solo.iter().zip(&batched) {
            assert_eq!(a.step_digest(), b.step_digest(), "session {}", a.id());
            assert_eq!(
                a.decision_digest(),
                b.decision_digest(),
                "session {}",
                a.id()
            );
        }
    }

    #[test]
    fn singleton_cohort_matches_solo() {
        assert_cohort_matches_solo(&[shape(0, 0x11)]);
    }

    #[test]
    fn prime_cohort_matches_solo() {
        let specs: Vec<SessionSpec> = (0..3).map(|i| shape(i, 0x40 + 7 * i)).collect();
        assert_cohort_matches_solo(&specs);
    }

    #[test]
    fn movement_mix_cohort_matches_solo() {
        let specs: Vec<SessionSpec> = (0..2)
            .map(|i| shape(i, 0x90 + i).with_movement_every(25))
            .collect();
        assert_cohort_matches_solo(&specs);
    }

    #[test]
    fn reliable_noisy_cohort_matches_solo() {
        // Reliable transport advances member clocks by per-member
        // airtime — the case where members' `now_us` drift apart while
        // the fused kernels stay legal.
        let specs: Vec<SessionSpec> = (0..4)
            .map(|i| {
                let mut s = shape(i, 0x23 + i).with_ber(1e-3);
                s.use_reliable_transport = true;
                s
            })
            .collect();
        assert_cohort_matches_solo(&specs);
    }

    #[test]
    fn membership_churn_keeps_digests() {
        // Four members step together for a while; one leaves mid-run
        // (continues solo), the remaining three keep cohort-stepping.
        // Everyone must still match an all-solo twin.
        let specs: Vec<SessionSpec> = (0..4).map(|i| shape(i, 0x77 + 3 * i)).collect();
        let mut solo: Vec<Session> = specs.iter().cloned().map(Session::new).collect();
        for s in solo.iter_mut() {
            while !s.step().done {}
        }

        let mut members: Vec<Session> = specs.iter().cloned().map(Session::new).collect();
        let mut cohort = Cohort::new();
        let mut out = Vec::new();
        for _ in 0..40 {
            cohort.step_window(&mut members, &mut out);
        }
        let mut leaver = members.remove(1);
        while !leaver.step().done {}
        loop {
            cohort.step_window(&mut members, &mut out);
            if out.iter().all(|o| o.done) {
                break;
            }
        }
        members.insert(1, leaver);
        for (a, b) in solo.iter().zip(&members) {
            assert_eq!(
                a.decision_digest(),
                b.decision_digest(),
                "session {}",
                a.id()
            );
        }
    }

    #[test]
    fn key_separates_shapes_and_ignores_seeds() {
        let a = CohortKey::of(&shape(0, 1));
        assert_eq!(a, CohortKey::of(&shape(9, 2)), "seed and id are not shape");
        assert_ne!(a, CohortKey::of(&shape(0, 1).with_movement_every(25)));
        assert_ne!(a, CohortKey::of(&shape(0, 1).with_deployment(4, 4)));
        assert_ne!(a, CohortKey::of(&shape(0, 1).with_ber(1e-3)));
        assert_ne!(a, CohortKey::of(&shape(0, 1).with_io_stall_us(100)));
        assert_ne!(
            a,
            CohortKey::of(&SessionSpec::new(0, 1).with_duration_s(0.8))
        );
    }
}
