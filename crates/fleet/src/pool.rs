//! A std-only worker pool over lock-free Chase-Lev work-stealing deques.
//!
//! Each worker owns one deque and services it LIFO from the bottom
//! (`take`); a worker whose deque runs dry steals FIFO from the *top* of
//! its neighbours' deques, so a patient whose seizure-confirmation step
//! runs long ties up one worker while every other job drains through the
//! remaining deques. Jobs are cooperative: [`WorkUnit::run_quantum`] does
//! a bounded slice of work and yields, and a yielded job goes back to its
//! worker's deque. A job that must wait for a device (the modeled implant
//! radio) parks instead ([`Quantum::WaitUntil`]): it goes onto its
//! worker's timer heap, not a deque, so the wait holds no worker. Before
//! every take or steal the worker moves its expired timers back onto its
//! own deque, and a worker with nothing runnable but parked jobs sleeps
//! until the earliest deadline instead of spinning.
//!
//! The deque is the fixed-capacity Chase-Lev design with the
//! memory-ordering recipe of Lê, Pop, Cohen & Zappa Nardelli ("Correct
//! and Efficient Work-Stealing for Weak Memory Models", PPoPP '13),
//! hand-rolled on `std::sync::atomic` — no locks, no condvars, no
//! dependencies. Queue entries are job *indices*; the jobs themselves
//! live in a shared slot table and ownership of slot `i` is conferred by
//! holding index `i` popped from a deque (each index is in at most one
//! deque at a time, so at most one thread can hold it).
//!
//! Why the buffer never needs to grow (the hard part of a general
//! Chase-Lev deque): the total number of queue entries alive across the
//! whole pool is bounded by the job count `n`, which is known up front.
//! With capacity the next power of two *strictly greater* than `n`, a
//! deque can never hold `capacity` entries, so a push can never overwrite
//! a ring slot a concurrent thief is still reading (overwriting slot
//! `t % cap` would require `bottom − t ≥ cap > n`). That removes the
//! buffer-growth/reclamation problem entirely. Parking keeps the bound: a
//! parked index sits in its worker's timer heap and in no deque, and goes
//! back onto exactly one deque when it expires, so each index is still in
//! at most one deque and the deques together never hold more than `n`.
//!
//! The pool is deliberately oblivious to what a job computes, which is
//! what makes fleet execution reproducible: a job owns all of its state,
//! so which worker (or how many workers) steps it can change only the
//! interleaving, never a result.

use std::cell::UnsafeCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{fence, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// What one scheduling quantum accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quantum {
    /// More work remains: requeue the job.
    Yield,
    /// More work remains once the instant has passed: park the job off
    /// every deque until then, freeing the worker for other jobs.
    WaitUntil(Instant),
    /// The job is finished: retire it.
    Done,
}

/// A resumable, relocatable unit of work.
pub trait WorkUnit: Send {
    /// Performs a bounded slice of work.
    fn run_quantum(&mut self) -> Quantum;
}

/// Aggregate pool accounting for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolReport {
    /// Worker threads used.
    pub workers: usize,
    /// Quanta executed across all workers.
    pub quanta: u64,
    /// Quanta whose job was stolen from another worker's deque.
    pub steals: u64,
}

/// A fixed-capacity Chase-Lev work-stealing deque of `usize` entries.
///
/// One thread (the owner) calls [`Deque::push`]/[`Deque::take`] at the
/// bottom; any thread may call [`Deque::steal`] at the top. The memory
/// orderings are exactly the PPoPP '13 recipe:
///
/// * `push` writes the ring slot (`Relaxed`), issues a `Release` fence,
///   then publishes the new `bottom` (`Relaxed`). A thief that observes
///   the new `bottom` via its `Acquire` load therefore also observes the
///   slot write — and, transitively, every write the owner made before
///   the push (the job state handed over through the slot table).
/// * `take` decrements `bottom`, then a `SeqCst` fence orders that
///   decrement against the thief's `top` read: either the thief sees the
///   reservation and backs off, or the owner sees the thief's `top`
///   increment and backs off — the last entry is claimed by whoever wins
///   the `SeqCst` CAS on `top`.
/// * `steal` reads `top` (`Acquire`), fences `SeqCst`, reads `bottom`
///   (`Acquire`), reads the slot, then claims it with a `SeqCst` CAS on
///   `top`. A failed CAS means another thief (or the owner's `take`) won
///   the race for that entry; the caller retries from a fresh `top`.
///
/// A successful `top` CAS is what transfers entry ownership to a thief;
/// combined with the capacity bound argued at the module level, the value
/// read from the ring slot before the CAS cannot have been overwritten,
/// so a claimed index is never stale and never claimed twice.
pub(crate) struct Deque {
    top: AtomicI64,
    bottom: AtomicI64,
    ring: Box<[AtomicUsize]>,
    mask: i64,
}

/// Outcome of a steal attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Steal {
    /// The deque had no entries.
    Empty,
    /// Lost a race with the owner or another thief; retry is fair game.
    Retry,
    /// Claimed an entry.
    Got(usize),
}

impl Deque {
    /// A deque that can hold up to `n` entries concurrently.
    pub(crate) fn with_capacity_for(n: usize) -> Self {
        // Strictly greater than n so `bottom − top == capacity` is
        // unreachable (see the module-level growth argument).
        let cap = (n + 1).next_power_of_two();
        Self {
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
            ring: (0..cap).map(|_| AtomicUsize::new(0)).collect(),
            mask: cap as i64 - 1,
        }
    }

    /// Owner-only: pushes `entry` at the bottom.
    pub(crate) fn push(&self, entry: usize) {
        let b = self.bottom.load(Ordering::Relaxed);
        self.ring[(b & self.mask) as usize].store(entry, Ordering::Relaxed);
        // Publish the slot write (and everything before it) to thieves
        // that acquire the new bottom.
        fence(Ordering::Release);
        self.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Owner-only: pops from the bottom (LIFO).
    pub(crate) fn take(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // Order the bottom reservation against concurrent top reads: a
        // thief's SeqCst fence and this one are totally ordered, so one
        // side observes the other's write and backs off.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Empty: undo the reservation.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let entry = self.ring[(b & self.mask) as usize].load(Ordering::Relaxed);
        if t == b {
            // Last entry: race any thief for it via the top CAS.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(entry);
        }
        Some(entry)
    }

    /// Any thread: steals from the top (FIFO).
    pub(crate) fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let entry = self.ring[(t & self.mask) as usize].load(Ordering::Relaxed);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        Steal::Got(entry)
    }
}

/// One job slot. Exclusive access is conferred by holding the slot's
/// index popped from a deque or parked on the holder's own timer heap
/// (or, before the workers start and after they join, by `&mut` on the
/// pool itself).
struct Slot<J>(UnsafeCell<Option<J>>);

// SAFETY: slots are shared across worker threads, but the deque protocol
// guarantees at most one thread holds a given index at a time (each
// index lives in at most one deque or one worker's private timer heap,
// and push/steal hand it over with
// Release/Acquire + SeqCst-CAS ordering), so all access to the inner
// `Option<J>` is externally synchronized. `J: Send` is required by
// `WorkUnit`, so moving the job between threads is sound.
unsafe impl<J: Send> Sync for Slot<J> {}

struct Pool<J> {
    deques: Vec<Deque>,
    slots: Vec<Slot<J>>,
    /// Jobs not yet retired; 0 means every worker should exit.
    pending: AtomicUsize,
    quanta: AtomicU64,
    steals: AtomicU64,
}

/// Runs every job to completion on `workers` threads and returns the
/// jobs in submission order, plus the pool accounting.
///
/// # Panics
///
/// Panics if `workers` is zero or a worker thread panics.
pub fn run_to_completion<J: WorkUnit>(jobs: Vec<J>, workers: usize) -> (Vec<J>, PoolReport) {
    assert!(workers >= 1, "need at least one worker");
    let n = jobs.len();
    let pool = Pool {
        deques: (0..workers).map(|_| Deque::with_capacity_for(n)).collect(),
        slots: jobs
            .into_iter()
            .map(|j| Slot(UnsafeCell::new(Some(j))))
            .collect(),
        pending: AtomicUsize::new(n),
        quanta: AtomicU64::new(0),
        steals: AtomicU64::new(0),
    };
    // Round-robin initial placement across the deques (single-threaded:
    // the workers have not started yet).
    for idx in 0..n {
        pool.deques[idx % workers].push(idx);
    }
    std::thread::scope(|s| {
        for me in 0..workers {
            let pool = &pool;
            s.spawn(move || worker_loop(pool, me));
        }
    });
    let report = PoolReport {
        workers,
        quanta: pool.quanta.load(Ordering::Relaxed),
        steals: pool.steals.load(Ordering::Relaxed),
    };
    let finished = pool
        .slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("every job retired"))
        .collect();
    (finished, report)
}

/// Sets the calling thread's timer slack to 1 µs, so a worker sleeping
/// until a parked job's deadline wakes within microseconds of it rather
/// than the kernel's default 50 µs slack later (Linux only; a no-op
/// elsewhere). The sleep itself stays a sleep: nothing spins.
fn set_fine_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_ulong};
        extern "C" {
            fn prctl(option: c_int, ...) -> c_int;
        }
        const PR_SET_TIMERSLACK: c_int = 29;
        const SLACK_NS: c_ulong = 1_000;
        // SAFETY: PR_SET_TIMERSLACK reads one unsigned long and changes
        // only the calling thread's timer slack; std links libc.
        // A failure leaves the default slack, which is only slower.
        let _ = unsafe { prctl(PR_SET_TIMERSLACK, SLACK_NS) };
    }
}

fn worker_loop<J: WorkUnit>(pool: &Pool<J>, me: usize) {
    set_fine_timer_slack();
    // Jobs this worker parked, earliest deadline first. Only this worker
    // touches its heap; an expired entry goes back onto its own deque,
    // where any worker may steal it.
    let mut timers: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    // Exponential idle backoff instead of a condvar: spin first (another
    // worker usually yields a stealable job within microseconds), then
    // yield the CPU, then sleep briefly. Wakeups are therefore batched
    // naturally — a burst of yielded jobs is picked up by one pass over
    // the victims rather than one notification per job.
    let mut idle = 0u32;
    loop {
        if !timers.is_empty() {
            let now = Instant::now();
            while let Some(&Reverse((deadline, idx))) = timers.peek() {
                if deadline > now {
                    break;
                }
                timers.pop();
                pool.deques[me].push(idx);
            }
        }
        let claimed = match pool.deques[me].take() {
            Some(idx) => Some((idx, false)),
            None => steal_round(pool, me).map(|idx| (idx, true)),
        };
        let Some((idx, stolen)) = claimed else {
            if let Some(&Reverse((deadline, _))) = timers.peek() {
                // Nothing runnable, but a parked job of ours is due:
                // sleep until it is rather than spin.
                std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
                continue;
            }
            if pool.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            idle += 1;
            if idle < 64 {
                std::hint::spin_loop();
            } else if idle < 128 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            continue;
        };
        idle = 0;
        // SAFETY: we hold `idx` freshly popped from a deque, which is the
        // pool's exclusivity token for slot `idx` (see `Slot`); the
        // take/steal orderings make the previous holder's writes visible.
        let mut job = unsafe { (*pool.slots[idx].0.get()).take() }.expect("queued slot is full");
        pool.quanta.fetch_add(1, Ordering::Relaxed);
        if stolen {
            pool.steals.fetch_add(1, Ordering::Relaxed);
        }
        let outcome = job.run_quantum();
        // SAFETY: still the exclusive holder of `idx`; returning the job
        // to its slot happens before the index is republished (push),
        // parked on this thread's own timer heap, or retired (pending
        // decrement), each of which orders the write for the next
        // observer.
        unsafe { *pool.slots[idx].0.get() = Some(job) };
        match outcome {
            Quantum::Done => {
                pool.pending.fetch_sub(1, Ordering::AcqRel);
            }
            Quantum::Yield => pool.deques[me].push(idx),
            Quantum::WaitUntil(deadline) => timers.push(Reverse((deadline, idx))),
        }
    }
}

/// One pass over the other workers' deques, retrying a victim whose
/// steal raced (`Steal::Retry`) rather than skipping work that is still
/// there.
fn steal_round<J>(pool: &Pool<J>, me: usize) -> Option<usize> {
    let k = pool.deques.len();
    for off in 1..k {
        let victim = (me + off) % k;
        loop {
            match pool.deques[victim].steal() {
                Steal::Got(idx) => return Some(idx),
                Steal::Retry => std::hint::spin_loop(),
                Steal::Empty => break,
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::time::Duration;

    /// Counts down `remaining` one tick per quantum.
    struct Ticker {
        remaining: u32,
        ticks: u32,
    }

    impl WorkUnit for Ticker {
        fn run_quantum(&mut self) -> Quantum {
            self.ticks += 1;
            self.remaining -= 1;
            if self.remaining == 0 {
                Quantum::Done
            } else {
                Quantum::Yield
            }
        }
    }

    #[test]
    fn runs_everything_in_submission_order() {
        for workers in [1, 2, 4] {
            let jobs: Vec<Ticker> = (0..10)
                .map(|i| Ticker {
                    remaining: 1 + i % 4,
                    ticks: 0,
                })
                .collect();
            let (done, report) = run_to_completion(jobs, workers);
            assert_eq!(done.len(), 10);
            for (i, t) in done.iter().enumerate() {
                assert_eq!(t.ticks, 1 + (i as u32) % 4, "job {i} on {workers} workers");
                assert_eq!(t.remaining, 0);
            }
            assert_eq!(report.workers, workers);
            let expected: u32 = (0..10u32).map(|i| 1 + i % 4).sum();
            assert_eq!(report.quanta, u64::from(expected));
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let (done, report) = run_to_completion(Vec::<Ticker>::new(), 4);
        assert!(done.is_empty());
        assert_eq!(report.quanta, 0);
    }

    #[test]
    fn one_long_job_does_not_stall_the_rest() {
        // One 512-quantum job plus many one-quantum jobs on 2 workers:
        // everything retires (and almost certainly some were stolen, but
        // scheduling noise makes that assertion too brittle to keep).
        let mut jobs = vec![Ticker {
            remaining: 512,
            ticks: 0,
        }];
        jobs.extend((0..32).map(|_| Ticker {
            remaining: 1,
            ticks: 0,
        }));
        let (done, report) = run_to_completion(jobs, 2);
        assert_eq!(done.len(), 33);
        assert!(done.iter().all(|t| t.remaining == 0));
        assert_eq!(report.quanta, 512 + 32);
    }

    /// Ticks `remaining` times, parking for `pause` after every tick
    /// but the last (and yielding instead on odd ticks when `alternate`
    /// is set). Once `halt` is raised it retires at its next quantum.
    struct Parker<'a> {
        remaining: u32,
        ticks: u32,
        pause: Duration,
        alternate: bool,
        halt: &'a AtomicBool,
    }

    impl WorkUnit for Parker<'_> {
        fn run_quantum(&mut self) -> Quantum {
            if self.halt.load(Ordering::Relaxed) {
                return Quantum::Done;
            }
            self.ticks += 1;
            self.remaining -= 1;
            if self.remaining == 0 {
                Quantum::Done
            } else if self.alternate && self.ticks % 2 == 1 {
                Quantum::Yield
            } else {
                Quantum::WaitUntil(Instant::now() + self.pause)
            }
        }
    }

    #[test]
    fn parked_jobs_retire_with_exact_quanta() {
        let halt = AtomicBool::new(false);
        for workers in [1, 2, 4] {
            let jobs: Vec<Parker> = (0..12)
                .map(|i| Parker {
                    remaining: 1 + i % 5,
                    ticks: 0,
                    pause: Duration::from_micros(50 * u64::from(i % 3)),
                    alternate: i % 2 == 1,
                    halt: &halt,
                })
                .collect();
            let (done, report) = run_to_completion(jobs, workers);
            for (i, p) in done.iter().enumerate() {
                assert_eq!(p.ticks, 1 + (i as u32) % 5, "job {i} on {workers} workers");
                assert_eq!(p.remaining, 0);
            }
            let expected: u32 = (0..12u32).map(|i| 1 + i % 5).sum();
            assert_eq!(report.quanta, u64::from(expected), "{workers} workers");
        }
    }

    #[test]
    fn parked_waits_overlap_on_one_worker() {
        // 8 jobs × 10 parks × 2 ms is 160 ms of waiting end to end; one
        // worker overlaps the waits instead of sleeping through each.
        let halt = AtomicBool::new(false);
        let jobs: Vec<Parker> = (0..8)
            .map(|_| Parker {
                remaining: 11,
                ticks: 0,
                pause: Duration::from_millis(2),
                alternate: false,
                halt: &halt,
            })
            .collect();
        let t0 = Instant::now();
        let (done, report) = run_to_completion(jobs, 1);
        let elapsed = t0.elapsed();
        assert!(done.iter().all(|p| p.remaining == 0));
        assert_eq!(report.quanta, 8 * 11);
        assert!(
            elapsed < Duration::from_millis(80),
            "parked waits serialised: {elapsed:?} for 160 ms of waiting"
        );
    }

    /// Raises the shared halt flag on its first quantum.
    struct Killer<'a>(&'a AtomicBool);

    enum HaltJob<'a> {
        Kill(Killer<'a>),
        Park(Parker<'a>),
    }

    impl WorkUnit for HaltJob<'_> {
        fn run_quantum(&mut self) -> Quantum {
            match self {
                Self::Kill(k) => {
                    k.0.store(true, Ordering::Relaxed);
                    Quantum::Done
                }
                Self::Park(p) => p.run_quantum(),
            }
        }
    }

    #[test]
    fn halted_pool_with_parked_jobs_exits() {
        // Deques are taken LIFO, so the long-parking jobs run and park
        // before the kill at index 0; each retires when its wait ends
        // instead of running out its thousand ticks.
        for workers in [1, 2] {
            let halt = AtomicBool::new(false);
            let mut jobs = vec![HaltJob::Kill(Killer(&halt))];
            jobs.extend((0..6).map(|_| {
                HaltJob::Park(Parker {
                    remaining: 1_000,
                    ticks: 0,
                    pause: Duration::from_millis(5),
                    alternate: false,
                    halt: &halt,
                })
            }));
            let (done, _) = run_to_completion(jobs, workers);
            let ticks: Vec<u32> = done
                .iter()
                .filter_map(|job| match job {
                    HaltJob::Park(p) => Some(p.ticks),
                    HaltJob::Kill(_) => None,
                })
                .collect();
            assert!(
                ticks.iter().all(|&t| t < 1_000),
                "ran past the halt: {ticks:?}"
            );
            assert!(
                ticks.iter().any(|&t| t > 0),
                "nothing was parked: {ticks:?}"
            );
        }
    }

    /// The steal/take race, hammered directly on one deque: an owner
    /// pushes tokens and drains from the bottom while thieves gang up on
    /// the top. Every pushed token must be claimed by exactly one thread
    /// — a lost token means a steal observed a stale ring slot, a double
    /// claim means two threads won the same `top` CAS.
    #[test]
    fn chase_lev_steal_take_race_claims_each_entry_once() {
        const TOKENS: usize = 20_000;
        const THIEVES: usize = 3;
        // Capacity covers the worst case of every token outstanding at
        // once — the pool proper sizes its deques the same way.
        let deque = Deque::with_capacity_for(TOKENS);
        let claims: Vec<AtomicU32> = (0..TOKENS).map(|_| AtomicU32::new(0)).collect();
        let done = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let deque = &deque;
            let claims = &claims;
            for _ in 0..THIEVES {
                s.spawn(|| loop {
                    match deque.steal() {
                        Steal::Got(tok) => {
                            claims[tok].fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            // The owner drains the deque before raising
                            // the flag, so Empty + flag means finished.
                            if done.load(Ordering::Acquire) == 1 {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            // Owner: push in bursts, take a few back, repeat — keeps the
            // deque short so the bottom/top race on the *last* entry (the
            // contended case) fires constantly.
            let mut next = 0usize;
            while next < TOKENS {
                let burst = 1 + next % 7;
                for _ in 0..burst {
                    if next == TOKENS {
                        break;
                    }
                    deque.push(next);
                    next += 1;
                }
                for _ in 0..(burst / 2 + 1) {
                    if let Some(tok) = deque.take() {
                        claims[tok].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Drain what the thieves leave behind.
            while let Some(tok) = deque.take() {
                claims[tok].fetch_add(1, Ordering::Relaxed);
            }
            done.store(1, Ordering::Release);
        });
        let mut missing = Vec::new();
        let mut duplicated = Vec::new();
        for (tok, c) in claims.iter().enumerate() {
            match c.load(Ordering::Relaxed) {
                1 => {}
                0 => missing.push(tok),
                _ => duplicated.push(tok),
            }
        }
        assert!(
            missing.is_empty() && duplicated.is_empty(),
            "lost {missing:?} / duplicated {duplicated:?}"
        );
    }
}
