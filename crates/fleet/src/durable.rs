//! Durable fleet state: the write-ahead logger and crash recovery.
//!
//! A durable fleet records three things in the page-structured WAL
//! (`scalo_storage::wal`): an **admission** record carrying the new
//! session's window-0 snapshot (synced immediately — an admitted
//! patient is never forgotten), a **decision** record per served window
//! (the session's [`Session::step_digest`], group-committed every
//! [`DurabilityConfig::sync_every_records`] appends), and a periodic
//! **checkpoint** snapshot every
//! [`DurabilityConfig::checkpoint_every_windows`] windows, so recovery
//! replays a bounded suffix instead of the whole session.
//!
//! Recovery ([`recover_sessions`]) and time-travel forensics share one
//! path: [`fold_log`] folds a scan into per-session histories (images,
//! decision digests, shed/done markers), [`SessionLog::restore`]
//! rebuilds a session from an image via deterministic re-execution
//! ([`Session::restore`]), and [`replay`] re-runs it through the logged
//! windows asserting every digest is byte-identical to the logged one.
//! A mismatch is a hard error — recovery never resumes a session whose
//! decisions drifted from the logged run.
//!
//! The decision append path is allocation-free in steady state: quiet
//! windows with logging enabled stay 0-alloc (see the recovery
//! integration tests); only admissions, checkpoints, and segment
//! rotation touch the allocator.

use crate::metrics::{Counter, MetricsRegistry};
use scalo_core::session::Session;
use scalo_core::snapshot::{SessionSnapshot, SnapshotError};
use scalo_storage::nvm::NvmCost;
use scalo_storage::wal::{WalConfig, WalError, WalRecord, WalScan, WalStats, WalWriter};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Durability knobs for [`crate::Fleet::open_durable`] /
/// [`crate::Fleet::recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityConfig {
    /// Log directory (created on open).
    pub dir: PathBuf,
    /// Checkpoint a session's snapshot every this many of its windows
    /// (bounds the decision suffix recovery must replay).
    pub checkpoint_every_windows: u64,
    /// Group-commit cadence: fsync after this many decision records.
    pub sync_every_records: u64,
    /// Underlying log layout and NVM cost-model parameters.
    pub wal: WalConfig,
}

impl DurabilityConfig {
    /// Defaults: checkpoint every 64 windows, fsync every 32 decisions.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every_windows: 64,
            sync_every_records: 32,
            wal: WalConfig::default(),
        }
    }

    /// Sets the checkpoint cadence, in per-session windows.
    pub fn with_checkpoint_every_windows(mut self, windows: u64) -> Self {
        assert!(windows >= 1, "checkpoint cadence must be positive");
        self.checkpoint_every_windows = windows;
        self
    }

    /// Sets the group-commit cadence, in decision records.
    pub fn with_sync_every_records(mut self, records: u64) -> Self {
        assert!(records >= 1, "sync cadence must be positive");
        self.sync_every_records = records;
        self
    }
}

/// Durability failures: log I/O and corruption, snapshot codec errors,
/// and replay divergence.
#[derive(Debug)]
pub enum DurabilityError {
    /// The write-ahead log failed (I/O, torn vs corrupt policy,
    /// version).
    Wal(WalError),
    /// A logged snapshot failed to decode or restore.
    Snapshot(SnapshotError),
    /// A replayed window's digest differs from the logged decision —
    /// the code's decisions drifted from the recorded run.
    Replay {
        /// Session id.
        session: u64,
        /// The diverging window.
        window: u64,
        /// Digest in the log.
        logged: u64,
        /// Digest produced by replay.
        replayed: u64,
    },
    /// The log admits a session but carries no snapshot for it.
    MissingSnapshot {
        /// Session id.
        session: u64,
    },
    /// A recovered session no longer fits the admission budget.
    ReadmissionFailed {
        /// Session id.
        session: u64,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Wal(e) => write!(f, "durability: {e}"),
            Self::Snapshot(e) => write!(f, "durability: {e}"),
            Self::Replay {
                session,
                window,
                logged,
                replayed,
            } => write!(
                f,
                "durability: session {session} window {window}: replay digest \
                 {replayed:016x} != logged {logged:016x}"
            ),
            Self::MissingSnapshot { session } => {
                write!(f, "durability: session {session}: no snapshot in log")
            }
            Self::ReadmissionFailed { session } => write!(
                f,
                "durability: session {session}: admission refused at recovery"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<WalError> for DurabilityError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

impl From<SnapshotError> for DurabilityError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// What one [`crate::Fleet::recover`] reconstructed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Live sessions restored and re-admitted.
    pub sessions_recovered: usize,
    /// Sessions the log shows ran to completion (not resurrected).
    pub sessions_done: usize,
    /// Sessions the log shows were shed (not resurrected).
    pub sessions_shed: usize,
    /// Decision records re-run past checkpoints, digest-verified.
    pub windows_replayed: u64,
    /// Crash residue truncated from segment tails.
    pub torn_bytes: u64,
    /// Valid records scanned.
    pub log_records: usize,
    /// Log bytes on disk at scan time.
    pub log_disk_bytes: u64,
    /// Wall-clock time the scan + restore + replay took.
    pub recovery_ms: f64,
}

struct LoggerInner {
    wal: WalWriter,
    /// Decision records appended since the last fsync (group commit).
    records_since_sync: u64,
    /// Reusable snapshot-encode buffer (admissions and checkpoints).
    snap_buf: Vec<u8>,
    /// First append failure, surfaced in the fleet report.
    error: Option<WalError>,
}

/// The fleet's write-ahead logger: a [`WalWriter`] behind a mutex, with
/// metric handles pre-resolved so the hot decision path never touches
/// the registry lock.
pub struct FleetLogger {
    inner: Mutex<LoggerInner>,
    checkpoint_every_windows: u64,
    sync_every_records: u64,
    bytes: Arc<Counter>,
    records: Arc<Counter>,
    checkpoints: Arc<Counter>,
    fsyncs: Arc<Counter>,
}

impl fmt::Debug for FleetLogger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetLogger")
            .field("checkpoint_every_windows", &self.checkpoint_every_windows)
            .field("sync_every_records", &self.sync_every_records)
            .finish_non_exhaustive()
    }
}

impl FleetLogger {
    /// Opens the log for appending (a fresh segment; see
    /// [`WalWriter::create`]).
    pub fn open(
        cfg: &DurabilityConfig,
        metrics: &MetricsRegistry,
    ) -> Result<Self, DurabilityError> {
        let wal = WalWriter::create(&cfg.dir, cfg.wal)?;
        Ok(Self {
            inner: Mutex::new(LoggerInner {
                wal,
                records_since_sync: 0,
                snap_buf: Vec::with_capacity(4 * 1024),
                error: None,
            }),
            checkpoint_every_windows: cfg.checkpoint_every_windows,
            sync_every_records: cfg.sync_every_records,
            bytes: metrics.counter("wal.appended_bytes"),
            records: metrics.counter("wal.records"),
            checkpoints: metrics.counter("wal.checkpoints"),
            fsyncs: metrics.counter("wal.fsyncs"),
        })
    }

    /// The per-session checkpoint cadence.
    pub fn checkpoint_every_windows(&self) -> u64 {
        self.checkpoint_every_windows
    }

    fn lock(&self) -> MutexGuard<'_, LoggerInner> {
        // A panicking appender leaves plain data; the log's own
        // checksums decide validity, so poisoning carries no meaning.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Logs an admission: the session's snapshot, synced immediately so
    /// the fleet never forgets an admitted patient.
    pub fn log_admit(&self, session: &Session) -> Result<(), WalError> {
        let snap = session.snapshot();
        self.log_snapshot(session.id(), false, |buf| snap.encode_into(buf))
    }

    /// Logs a periodic checkpoint snapshot, synced immediately.
    pub fn log_checkpoint(&self, session: &Session) -> Result<(), WalError> {
        let snap = session.snapshot();
        self.log_snapshot(session.id(), true, |buf| snap.encode_into(buf))
    }

    /// Logs a checkpoint from a **pre-encoded** SCSS image, synced
    /// immediately. This is the swap manager's path: one
    /// `SessionSnapshot::encode_into` feeds both the NVM image store
    /// and this record, so a session's swap image and its WAL
    /// checkpoint are byte-identical by construction (there is no
    /// second encoder to drift).
    pub fn log_checkpoint_image(&self, session: u64, image: &[u8]) -> Result<(), WalError> {
        self.log_snapshot(session, true, |buf| {
            buf.clear();
            buf.extend_from_slice(image);
        })
    }

    /// Logs one window's decision digest. Group-committed: fsynced
    /// every [`DurabilityConfig::sync_every_records`] appends.
    /// Allocation-free in steady state.
    pub fn log_decision(&self, session: u64, window: u32, digest: u64) -> Result<(), WalError> {
        let record = WalRecord::Decision {
            session,
            window,
            digest,
        };
        self.append(&mut self.lock(), &record)
    }

    /// Logs an admission-control eviction, synced immediately.
    pub fn log_shed(&self, session: u64) -> Result<(), WalError> {
        self.append(&mut self.lock(), &WalRecord::Shed { session })
    }

    /// Logs a session completion with its decision fingerprint.
    pub fn log_done(&self, session: u64, decisions_fnv: u64) -> Result<(), WalError> {
        let record = WalRecord::Done {
            session,
            decisions_fnv,
        };
        self.append(&mut self.lock(), &record)
    }

    /// Final fsync at clean shutdown; a crashed run never gets one, so
    /// its buffered tail is genuinely lost (that is the experiment).
    pub fn finish(&self) -> Result<(), WalError> {
        let mut inner = self.lock();
        inner.wal.sync()?;
        inner.records_since_sync = 0;
        self.fsyncs.incr();
        Ok(())
    }

    /// Appends an admit or checkpoint record whose snapshot bytes `fill`
    /// writes. The reusable buffer round-trips through the record, so no
    /// fresh `Vec` is built per snapshot.
    fn log_snapshot(
        &self,
        session: u64,
        checkpoint: bool,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), WalError> {
        let mut inner = self.lock();
        let mut snapshot = std::mem::take(&mut inner.snap_buf);
        fill(&mut snapshot);
        let record = if checkpoint {
            WalRecord::Checkpoint { session, snapshot }
        } else {
            WalRecord::Admit { session, snapshot }
        };
        let result = self.append(&mut inner, &record);
        let (WalRecord::Admit { snapshot, .. } | WalRecord::Checkpoint { snapshot, .. }) = record
        else {
            unreachable!("snapshot records only");
        };
        inner.snap_buf = snapshot;
        result
    }

    /// Appends one record. Decisions are group-committed; every other
    /// record is synced at once.
    fn append(&self, inner: &mut LoggerInner, record: &WalRecord) -> Result<(), WalError> {
        let frame = inner.wal.append(record)?;
        inner.records_since_sync += 1;
        let decision = matches!(record, WalRecord::Decision { .. });
        let sync = !decision || inner.records_since_sync >= self.sync_every_records;
        if sync {
            inner.wal.sync()?;
            inner.records_since_sync = 0;
            self.fsyncs.incr();
        }
        self.bytes.add(frame as u64);
        self.records.incr();
        if matches!(record, WalRecord::Checkpoint { .. }) {
            self.checkpoints.incr();
        }
        Ok(())
    }

    /// Records the first append failure for the fleet report.
    pub(crate) fn poison(&self, err: WalError) {
        let mut inner = self.lock();
        inner.error.get_or_insert(err);
    }

    /// The first append failure, if any.
    pub fn error_string(&self) -> Option<String> {
        self.lock().error.as_ref().map(|e| e.to_string())
    }

    /// Append-path accounting so far.
    pub fn stats(&self) -> WalStats {
        self.lock().wal.stats()
    }

    /// Modeled NVM cost of the pages the log programmed.
    pub fn cost(&self) -> NvmCost {
        self.lock().wal.cost()
    }
}

/// One session's history in the log, in log order. The images borrow
/// the scan's bytes; nothing is copied.
#[derive(Debug, Default)]
pub struct SessionLog<'a> {
    /// Admit and checkpoint SCSS images, oldest first.
    pub(crate) images: Vec<&'a [u8]>,
    /// `(window, step digest)` decision records, in log order. A window
    /// repeats when a crash cycle re-served it.
    pub decisions: Vec<(u32, u64)>,
    /// The session was shed.
    pub(crate) shed: bool,
    /// The session ran to completion.
    pub(crate) done: bool,
}

impl SessionLog<'_> {
    /// Restores session `id` from its latest image whose cursor is at or
    /// before `window` ([`Session::restore`] digest-verifies it).
    ///
    /// # Errors
    ///
    /// [`DurabilityError::MissingSnapshot`] when no image qualifies;
    /// [`DurabilityError::Snapshot`] when the chosen image does not
    /// decode or restore.
    pub fn restore(&self, id: u64, window: u64) -> Result<Session, DurabilityError> {
        for image in self.images.iter().rev() {
            let snap = SessionSnapshot::decode(image)?;
            if snap.window <= window {
                return Ok(Session::restore(&snap)?);
            }
        }
        Err(DurabilityError::MissingSnapshot { session: id })
    }
}

/// Folds a scanned log into per-session histories, by session id.
pub fn fold_log(scan: &WalScan) -> BTreeMap<u64, SessionLog<'_>> {
    let mut fold: BTreeMap<u64, SessionLog<'_>> = BTreeMap::new();
    for record in &scan.records {
        match record {
            WalRecord::Admit { session, snapshot }
            | WalRecord::Checkpoint { session, snapshot } => {
                fold.entry(*session).or_default().images.push(snapshot);
            }
            WalRecord::Decision {
                session,
                window,
                digest,
            } => {
                fold.entry(*session)
                    .or_default()
                    .decisions
                    .push((*window, *digest));
            }
            WalRecord::Shed { session } => fold.entry(*session).or_default().shed = true,
            WalRecord::Done { session, .. } => fold.entry(*session).or_default().done = true,
        }
    }
    fold
}

/// Re-executes `session` through its logged `decisions` below window
/// `to`, checking each window's digest against the log, and returns the
/// windows replayed.
///
/// Each window is charged its modeled radio wait
/// ([`scalo_core::session::SessionSpec::io_stall_us`]) without waiting,
/// so replay runs at compute speed and a traced replay still attributes
/// the wait. Windows below the session's cursor are duplicates from
/// earlier crash cycles (each run re-logs from its restore point);
/// determinism makes them redundant, so they are skipped. A window
/// above the cursor is a gap in the log.
///
/// # Errors
///
/// [`DurabilityError::Replay`] on a gap, on a window past the
/// session's end, or on a digest that differs from the logged one.
pub fn replay(
    session: &mut Session,
    decisions: &[(u32, u64)],
    to: u64,
) -> Result<u64, DurabilityError> {
    let (id, stall_ns) = (session.id(), session.spec().io_stall_us * 1_000);
    let mut replayed = 0;
    for &(window, logged) in decisions {
        let window = u64::from(window);
        if window < session.window() || window >= to {
            continue;
        }
        let diverged = |replayed| DurabilityError::Replay {
            session: id,
            window,
            logged,
            replayed,
        };
        if window > session.window() || session.is_done() {
            return Err(diverged(0));
        }
        session.step_after(stall_ns);
        let digest = session.step_digest();
        if digest != logged {
            return Err(diverged(digest));
        }
        replayed += 1;
    }
    Ok(replayed)
}

/// Scans the log at `dir` and reconstructs every live session at the
/// log head: [`SessionLog::restore`] at the latest checkpoint, then
/// [`replay`] of the decision suffix.
pub fn recover_sessions(
    dir: &std::path::Path,
) -> Result<(Vec<Session>, RecoveryReport), DurabilityError> {
    let t0 = Instant::now();
    let scan = WalScan::open(dir)?;
    let mut sessions = Vec::new();
    let mut windows_replayed = 0u64;
    let mut sessions_done = 0usize;
    let mut sessions_shed = 0usize;
    for (&id, log) in &fold_log(&scan) {
        if log.shed {
            sessions_shed += 1;
            continue;
        }
        if log.done {
            sessions_done += 1;
            continue;
        }
        let mut session = log.restore(id, u64::MAX)?;
        windows_replayed += replay(&mut session, &log.decisions, u64::MAX)?;
        sessions.push(session);
    }

    let report = RecoveryReport {
        sessions_recovered: sessions.len(),
        sessions_done,
        sessions_shed,
        windows_replayed,
        torn_bytes: scan.torn_bytes,
        log_records: scan.records.len(),
        log_disk_bytes: scan.disk_bytes,
        recovery_ms: t0.elapsed().as_secs_f64() * 1_000.0,
    };
    Ok((sessions, report))
}
