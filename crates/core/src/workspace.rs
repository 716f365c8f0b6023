//! Per-session scratch buffers for the per-window hot path.
//!
//! SCALO's compute fabric works out of fixed SRAM register files — PEs
//! never allocate mid-window (§3.2). This module is the software analogue:
//! a [`Workspace`] owns every intermediate buffer the steady-state window
//! pipeline (ingest → hash → detect → heartbeat) needs, so after a warm-up
//! window the hot path performs zero heap allocations. A
//! [`crate::session::Session`] owns one workspace for its lifetime; fleet
//! workers keep it attached to the session across quantum switches. The
//! window engine's own scratch — the fused block, batched hash and FFT
//! intermediates, and the lane results — is the workspace's
//! [`Cohort`] when the session steps as a cohort of one.
//!
//! The `*_into` APIs the workspace feeds are bit-identical to their
//! allocating counterparts, so decision digests are unchanged whichever
//! entry point runs.

use crate::cohort::Cohort;
use scalo_lsh::ssh::BlockHashScratch;
use scalo_lsh::SignalHash;
use scalo_net::compress::CompressScratch;
use scalo_signal::dtw::DtwScratch;
use scalo_signal::fft::FftScratch;
use scalo_signal::simd::SimdLevel;
use scalo_trace::Recorder;

/// Reusable buffers for one session's window pipeline. All fields are
/// scratch: contents are unspecified between calls, and no state leaks
/// from one window (or one session) to the next because every consumer
/// clears or re-shapes before writing.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// The window engine's scratch for stepping this session as a cohort
    /// of one ([`crate::session::Session::step`],
    /// [`crate::apps::seizure::SeizureApp::step_window`]); empty while a
    /// fleet cohort's engine steps the session instead.
    pub(crate) engine: Cohort,
    /// Quantised (i16 LE) window bytes staged for the NVM signal ring.
    pub quantized: Vec<u8>,
    /// FFT intermediates for compiled-plan feature steps
    /// ([`crate::plan::WindowPlan::execute_window`]).
    pub fft: FftScratch,
    /// Feature vector of compiled-plan steps.
    pub features: Vec<f64>,
    /// DTW band intermediates for exact confirmation.
    pub dtw: DtwScratch,
    /// Z-normalised copy of the remote window (DTW confirm).
    pub znorm_a: Vec<f64>,
    /// Z-normalised copy of the local window (DTW confirm).
    pub znorm_b: Vec<f64>,
    /// Concatenated hash bytes staged for HCOMP compression.
    pub hash_bytes: Vec<u8>,
    /// HCOMP intermediates (frequency dictionary, rank sort, γ bits).
    pub comp: CompressScratch,
    /// Compressed hash batch staged for the exchange broadcast.
    pub compressed: Vec<u8>,
    /// DCOMP output for a received hash batch (parsed once per window —
    /// every clean reliable delivery carries the same bytes).
    pub decompressed: Vec<u8>,
    /// Quantised (i16 LE) signal-response payload staged for framing.
    pub sig_bytes: Vec<u8>,
    /// Broadcast scratch (wire frame, per-receiver arrivals, payload
    /// slots) for the exchange-phase packet traffic.
    pub net: crate::system::BroadcastScratch,
    /// Batched SSH intermediates for compiled-plan hash steps.
    pub block_hash: BlockHashScratch,
    /// Per-channel hashes of a compiled-plan hash step (slots recycled).
    pub hashes: Vec<SignalHash>,
    /// One gathered channel (contiguous) for compiled-plan per-channel
    /// kernels.
    pub chan: Vec<f64>,
    /// Received hashes parsed from a hash packet (slots recycled).
    pub received: Vec<SignalHash>,
    /// Hamming-probe expansion of a received batch (slots recycled).
    pub probes: Vec<SignalHash>,
    /// Probe-index → received-index mapping for the expansion.
    pub probe_owner: Vec<usize>,
    /// CCHECK sorted-index scratch for collision matching.
    pub probe_order: Vec<usize>,
    /// Responder tuples `(node, origin electrode, local electrode,
    /// local timestamp µs)` staged during an exchange window.
    pub responders: Vec<(usize, usize, usize, u64)>,
    /// Sorted/deduped origin electrodes the responders want signals for.
    pub wanted: Vec<usize>,
    /// Dequantised local stored window (DTW confirm).
    pub local_win: Vec<f64>,
    /// Dequantised remote window from a signal packet (DTW confirm).
    pub remote_win: Vec<f64>,
    /// The session's span recorder (`scalo-trace`). Disabled — a
    /// branch-and-return no-op — by default; when enabled its ring is
    /// pre-allocated, so recording spans obeys the same zero-allocation
    /// discipline as the rest of the workspace. It lives here so every
    /// layer the window pipeline passes through (`Node::ingest_block`,
    /// detection, the exchange) can emit spans without a new parameter
    /// on every hot-path signature.
    pub trace: Recorder,
    /// The SIMD dispatch level captured when this workspace was built.
    /// Every kernel scratch constructed alongside it (DTW, block stats,
    /// sketcher) resolves [`SimdLevel::active`] at the same moment, so
    /// this field is the single value to report in trace/bench metadata
    /// (`simd_isa`) — dispatch is decided once per workspace, never per
    /// call.
    simd: SimdLevel,
}

impl Workspace {
    /// An empty workspace; buffers grow to their working sizes during the
    /// first window and are reused thereafter. The SIMD dispatch level is
    /// captured here (see [`Workspace::simd_level`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The SIMD dispatch level this workspace's kernels run at.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }
}
