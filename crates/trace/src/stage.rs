//! The stage taxonomy: what a per-window span can be attributed to.
//!
//! Each leaf stage maps to the Table 1 PEs that implement it on the
//! SCALO fabric, which gives every observed span two model-side
//! companions: the **modeled power draw** while the stage runs
//! ([`Stage::power_uw`]) and the **predicted latency** the ILP
//! scheduler budgets for it ([`Stage::predicted_ms`] — the same
//! worst-case Table 1 latencies `scalo-sched` feeds its flow
//! formulation). Comparing predicted against observed per-stage
//! latency (the *skew*) is the headline deadline-miss diagnostic:
//! skew ≫ 1 means the software stage runs far behind the hardware
//! model, skew ≪ 1 means the budget is slack there.

use scalo_hw::pe::{spec, PeKind};

/// Worst-case bound (ms) used for Table 1's data-dependent PEs when a
/// stage prediction needs one — the 4 ms window cadence, the bound the
/// scheduler itself uses for blank latency cells.
pub const DATA_DEPENDENT_WORST_MS: f64 = 4.0;

/// One attributable stage of the per-window serving pipeline.
///
/// [`Stage::Window`] is the envelope (the whole `Session::step`);
/// every other variant is a leaf. [`Stage::Other`] is never recorded
/// directly — attribution assigns it the envelope time no leaf span
/// claimed, so per-window stage totals always equal the window wall
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The whole-window envelope: one per `Session::step`.
    Window,
    /// Band-pass + FFT feature extraction (BBF/FFT path of Figure 5).
    Filter,
    /// Seizure detection vote (SVM + threshold).
    Detect,
    /// LSH sketch / SSH hashing of an ingested window.
    Sketch,
    /// CCHECK collision probing of received hashes.
    Probe,
    /// Exact DTW confirmation (plus CSEL channel selection).
    Dtw,
    /// Movement-intent Kalman-filter step (LIN ALG cluster).
    Kalman,
    /// Movement-intent shallow-NN decomposition.
    Nn,
    /// Movement-intent SVM classification.
    Svm,
    /// Radio compute: HCOMP/DCOMP compression and packet (un)packing.
    Radio,
    /// Waiting on the implant radio / TDMA slot (no PE runs).
    RadioWait,
    /// NVM reads through the SC storage controller.
    StorageRead,
    /// NVM writes (and CCHECK SRAM staging) through SC.
    StorageWrite,
    /// Fleet run-queue wait between scheduling quanta (no PE runs).
    Queue,
    /// Scattering electrode windows into the channel-major block the
    /// batched kernel engine consumes (pure data movement; no PE runs).
    Gather,
    /// Faulting a swapped session back in: NVM image read through SC
    /// plus the deterministic restore replay.
    SwapIn,
    /// Evicting a quiet session: SCSS encode plus NVM image program
    /// through SC.
    SwapOut,
    /// Hot query reconfiguration: the in-place cutover at a window
    /// boundary (control plane — no fabric PE runs; the compile and ILP
    /// re-solve before it are timed apart).
    Reconfigure,
    /// Envelope time not claimed by any leaf span (attribution only).
    Other,
}

impl Stage {
    /// Every stage, [`Stage::Window`] first, [`Stage::Other`] last.
    pub const ALL: [Stage; 19] = [
        Stage::Window,
        Stage::Filter,
        Stage::Detect,
        Stage::Sketch,
        Stage::Probe,
        Stage::Dtw,
        Stage::Kalman,
        Stage::Nn,
        Stage::Svm,
        Stage::Radio,
        Stage::RadioWait,
        Stage::StorageRead,
        Stage::StorageWrite,
        Stage::Queue,
        Stage::Gather,
        Stage::SwapIn,
        Stage::SwapOut,
        Stage::Reconfigure,
        Stage::Other,
    ];

    /// The leaf stages (everything except the [`Stage::Window`]
    /// envelope), in attribution order. [`Stage::Other`] is last.
    pub const LEAVES: [Stage; 18] = [
        Stage::Filter,
        Stage::Detect,
        Stage::Sketch,
        Stage::Probe,
        Stage::Dtw,
        Stage::Kalman,
        Stage::Nn,
        Stage::Svm,
        Stage::Radio,
        Stage::RadioWait,
        Stage::StorageRead,
        Stage::StorageWrite,
        Stage::Queue,
        Stage::Gather,
        Stage::SwapIn,
        Stage::SwapOut,
        Stage::Reconfigure,
        Stage::Other,
    ];

    /// This stage's index into [`Stage::LEAVES`], or `None` for
    /// [`Stage::Window`].
    pub fn leaf_index(self) -> Option<usize> {
        Stage::LEAVES.iter().position(|&s| s == self)
    }

    /// Stable lower-case name (used in metric names, JSON exports, and
    /// the chrome://tracing `name` field).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Window => "window",
            Stage::Filter => "filter",
            Stage::Detect => "detect",
            Stage::Sketch => "sketch",
            Stage::Probe => "probe",
            Stage::Dtw => "dtw",
            Stage::Kalman => "kalman",
            Stage::Nn => "nn",
            Stage::Svm => "svm",
            Stage::Radio => "radio",
            Stage::RadioWait => "radio_wait",
            Stage::StorageRead => "storage_read",
            Stage::StorageWrite => "storage_write",
            Stage::Queue => "queue",
            Stage::Gather => "gather",
            Stage::SwapIn => "swap_in",
            Stage::SwapOut => "swap_out",
            Stage::Reconfigure => "reconfigure",
            Stage::Other => "other",
        }
    }

    /// The Table 1 PEs that implement this stage on the fabric. Empty
    /// for stages that burn no PE cycles (waiting, queueing, the
    /// envelope, and the residual).
    pub fn pe_kinds(self) -> &'static [PeKind] {
        match self {
            Stage::Filter => &[PeKind::Bbf, PeKind::Fft],
            Stage::Detect => &[PeKind::Svm, PeKind::Thr],
            Stage::Sketch => &[PeKind::Ngram, PeKind::Hconv, PeKind::Hfreq],
            Stage::Probe => &[PeKind::Ccheck],
            Stage::Dtw => &[PeKind::Dtw, PeKind::Csel],
            Stage::Kalman => &[PeKind::Bmul, PeKind::Add, PeKind::Inv],
            Stage::Nn => &[PeKind::Bmul, PeKind::Add],
            Stage::Svm => &[PeKind::Svm],
            Stage::Radio => &[PeKind::Hcomp, PeKind::Npack, PeKind::Dcomp, PeKind::Unpack],
            Stage::StorageRead | Stage::StorageWrite | Stage::SwapIn | Stage::SwapOut => {
                &[PeKind::Sc]
            }
            Stage::Window
            | Stage::RadioWait
            | Stage::Queue
            | Stage::Gather
            | Stage::Reconfigure
            | Stage::Other => &[],
        }
    }

    /// Modeled power draw in µW while this stage runs on `electrodes`
    /// streams: the sum of its PEs' leakage plus per-electrode dynamic
    /// power (Table 1 columns). Zero for PE-less stages.
    pub fn power_uw(self, electrodes: usize) -> f64 {
        self.pe_kinds()
            .iter()
            .map(|&k| spec(k).power_uw(electrodes))
            .sum()
    }

    /// The latency the ILP scheduler budgets for this stage, in ms: the
    /// serial sum of its PEs' Table 1 worst-case latencies (with
    /// [`DATA_DEPENDENT_WORST_MS`] for blank cells — exactly the bounds
    /// `scalo-sched` feeds its flow formulation). `None` for stages the
    /// Table 1 model does not cover (waits, queueing, the residual).
    pub fn predicted_ms(self) -> Option<f64> {
        let pes = self.pe_kinds();
        if pes.is_empty() {
            return None;
        }
        Some(
            pes.iter()
                .map(|&k| spec(k).latency.worst_ms(DATA_DEPENDENT_WORST_MS))
                .sum(),
        )
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_are_all_minus_window() {
        assert_eq!(Stage::ALL.len(), Stage::LEAVES.len() + 1);
        assert!(!Stage::LEAVES.contains(&Stage::Window));
        for (i, s) in Stage::LEAVES.iter().enumerate() {
            assert_eq!(s.leaf_index(), Some(i));
        }
        assert_eq!(Stage::Window.leaf_index(), None);
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
        assert_eq!(Stage::RadioWait.name(), "radio_wait");
        assert_eq!(format!("{}", Stage::Dtw), "dtw");
    }

    #[test]
    fn pe_backed_stages_have_power_and_prediction() {
        for s in Stage::LEAVES {
            if s.pe_kinds().is_empty() {
                assert_eq!(s.power_uw(96), 0.0, "{s}");
                assert_eq!(s.predicted_ms(), None, "{s}");
            } else {
                assert!(s.power_uw(96) > 0.0, "{s}");
                assert!(s.predicted_ms().unwrap() > 0.0, "{s}");
            }
        }
        // Spot-check against Table 1: filter = BBF (4 ms) + FFT (4 ms).
        assert!((Stage::Filter.predicted_ms().unwrap() - 8.0).abs() < 1e-12);
        // Probe = CCHECK alone.
        assert!((Stage::Probe.predicted_ms().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn power_scales_with_electrodes() {
        assert!(Stage::Filter.power_uw(96) > Stage::Filter.power_uw(4));
        assert_eq!(Stage::Queue.power_uw(96), 0.0);
    }
}
