//! A counting global allocator for zero-allocation assertions.
//!
//! The hot per-window path (`Session::step` → the window engine's
//! pre-pass → `SeizureApp`'s window step → `Node::ingest_block`) is
//! designed to perform **zero heap allocations in the steady state**:
//! every buffer it touches lives in a per-session
//! [`Workspace`](../scalo_core/workspace/index.html), the engine's
//! fused-lane scratch, or a pre-sized node ring, mirroring the fixed
//! SRAM budget of the SCALO ASIC. This crate provides the instrument
//! that keeps the claim honest: a [`CountingAllocator`] that wraps the
//! system allocator and counts every `alloc`/`realloc`/`dealloc`, so
//! tests and benchmarks can assert "window 0 allocates (warmup),
//! windows 1..K allocate 0".
//!
//! Install it in a *binary* root (integration test, bench, or bin) —
//! a `#[global_allocator]` must be unique per binary, so the library
//! crates never install it themselves:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: scalo_alloc::CountingAllocator = scalo_alloc::CountingAllocator;
//!
//! let (result, counts) = scalo_alloc::measure(|| hot_path());
//! assert_eq!(counts.heap_ops(), 0, "steady state must not allocate");
//! ```
//!
//! Every heap operation is counted twice: in process-global atomics
//! ([`counts`], [`measure_process`]) and in the calling thread's own
//! counters ([`thread_counts`], [`measure`]). Zero-allocation
//! assertions use the per-thread form, so other threads of the same
//! binary — a parallel test harness, a logger — cannot leak into the
//! measured region. Multi-threaded callers (the fleet benchmarks, whose
//! work runs on pool workers) use the process totals as an aggregate
//! rate (allocations/window) rather than an exact per-callsite count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// One thread's counters. `const`-initialised cells with no destructor,
/// so touching them from inside the allocator never allocates and
/// never registers a thread-exit hook.
struct LocalCounts {
    allocs: Cell<u64>,
    reallocs: Cell<u64>,
    deallocs: Cell<u64>,
    bytes: Cell<u64>,
}

thread_local! {
    static LOCAL: LocalCounts = const {
        LocalCounts {
            allocs: Cell::new(0),
            reallocs: Cell::new(0),
            deallocs: Cell::new(0),
            bytes: Cell::new(0),
        }
    };
}

fn bump(cell: fn(&LocalCounts) -> &Cell<u64>, by: u64) {
    // `try_with` rather than `with`: an allocation during thread
    // teardown must still be served, just not counted locally.
    let _ = LOCAL.try_with(|l| {
        let c = cell(l);
        c.set(c.get() + by);
    });
}

fn count_alloc(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    bump(|l| &l.allocs, 1);
    bump(|l| &l.bytes, bytes as u64);
}

/// Pass-through allocator that counts every heap operation.
///
/// Zero-sized and `Copy` so it can be a `static`; all state lives in
/// process-global atomics (see [`counts`]) and per-thread cells (see
/// [`thread_counts`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAllocator;

// SAFETY: defers entirely to `System`; the counters are lock-free
// atomics and const-initialised thread-local cells, none of which
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size()) as u64;
        REALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(grown, Relaxed);
        bump(|l| &l.reallocs, 1);
        bump(|l| &l.bytes, grown);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Relaxed);
        bump(|l| &l.deallocs, 1);
        System.dealloc(ptr, layout)
    }
}

/// A snapshot of allocation counters (process-wide or one thread's).
///
/// Subtract two snapshots ([`AllocCounts::since`]) to attribute heap
/// traffic to a region of code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Calls to `alloc`/`alloc_zeroed`.
    pub allocs: u64,
    /// Calls to `realloc` (growth of an existing buffer).
    pub reallocs: u64,
    /// Calls to `dealloc`.
    pub deallocs: u64,
    /// Bytes requested by `alloc`/`alloc_zeroed` plus `realloc` growth.
    pub bytes: u64,
}

impl AllocCounts {
    /// Heap operations that acquire or grow memory — the number a
    /// zero-allocation steady state must hold at 0. (`dealloc` is
    /// excluded: freeing warmup buffers later is not an allocation.)
    pub fn heap_ops(&self) -> u64 {
        self.allocs + self.reallocs
    }

    /// The counter deltas accumulated since `earlier` was taken.
    pub fn since(&self, earlier: AllocCounts) -> AllocCounts {
        AllocCounts {
            allocs: self.allocs - earlier.allocs,
            reallocs: self.reallocs - earlier.reallocs,
            deallocs: self.deallocs - earlier.deallocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Reads the current process-wide counters. Zero until (and unless) a
/// [`CountingAllocator`] is installed as the binary's
/// `#[global_allocator]`.
pub fn counts() -> AllocCounts {
    AllocCounts {
        allocs: ALLOCS.load(Relaxed),
        reallocs: REALLOCS.load(Relaxed),
        deallocs: DEALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Reads the calling thread's counters: heap operations this thread
/// performed, whatever other threads do meanwhile.
pub fn thread_counts() -> AllocCounts {
    LOCAL
        .try_with(|l| AllocCounts {
            allocs: l.allocs.get(),
            reallocs: l.reallocs.get(),
            deallocs: l.deallocs.get(),
            bytes: l.bytes.get(),
        })
        .unwrap_or_default()
}

/// Runs `f` and returns its result together with the allocation deltas
/// it incurred **on the calling thread**. Other threads' allocations
/// are not attributed to the region, so exact zero-allocation checks
/// hold under a parallel test harness; work `f` hands to other threads
/// is not counted either (use [`measure_process`] for that).
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocCounts) {
    let before = thread_counts();
    let result = f();
    (result, thread_counts().since(before))
}

/// [`measure`] over the process-wide counters: every thread's heap
/// operations during `f` are attributed to the region. For aggregate
/// rates over work that runs on several threads (a fleet run).
pub fn measure_process<R>(f: impl FnOnce() -> R) -> (R, AllocCounts) {
    let before = counts();
    let result = f();
    (result, counts().since(before))
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary for this crate installs the allocator so the
    // counters actually move.
    #[global_allocator]
    static ALLOC: CountingAllocator = CountingAllocator;

    #[test]
    fn vec_growth_is_counted() {
        let (v, c) = measure(|| {
            let mut v: Vec<u64> = Vec::with_capacity(4);
            v.extend([1, 2, 3, 4]);
            v
        });
        assert_eq!(v.len(), 4);
        assert!(c.allocs >= 1, "with_capacity must allocate: {c:?}");
        assert_eq!(c.reallocs, 0, "no growth past capacity: {c:?}");
        assert!(c.bytes >= 32, "{c:?}");
    }

    #[test]
    fn preallocated_reuse_is_free() {
        let mut buf: Vec<u8> = Vec::with_capacity(1024);
        let ((), c) = measure(|| {
            for round in 0..100u8 {
                buf.clear();
                buf.extend(std::iter::repeat_n(round, 1024));
            }
        });
        assert_eq!(c.heap_ops(), 0, "reusing capacity must not allocate: {c:?}");
    }

    #[test]
    fn other_threads_do_not_leak_into_measure() {
        let (spawned, c) = measure(|| {
            std::thread::spawn(|| {
                (0..64u8)
                    .map(|i| vec![i; 256])
                    .filter(|v| v.len() == 256)
                    .count()
            })
            .join()
            .unwrap()
        });
        assert_eq!(spawned, 64);
        // The spawn itself allocates on this thread; the 64 vectors the
        // worker built must not be attributed here.
        assert!(c.allocs < 64, "worker allocations leaked in: {c:?}");
        let (_, p) = measure_process(|| {
            std::thread::spawn(|| {
                (0..64u8)
                    .map(|i| vec![i; 256])
                    .filter(|v| v.len() == 256)
                    .count()
            })
            .join()
            .unwrap()
        });
        assert!(p.allocs >= 64, "process totals see every thread: {p:?}");
    }

    #[test]
    fn realloc_growth_is_counted() {
        let mut v: Vec<u8> = Vec::with_capacity(8);
        v.extend([0; 8]);
        let ((), c) = measure(|| v.extend([1; 64]));
        assert!(c.heap_ops() >= 1, "growth must be visible: {c:?}");
    }
}
