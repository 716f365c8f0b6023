//! Per-implant non-volatile storage (§3.3, §5).
//!
//! Each SCALO node integrates 128 GB of SLC-NAND-class NVM with 4 KB
//! pages and 1 MB blocks; an operation reads 8 bytes, programs a page, or
//! erases a block. Timings and energies follow the paper's NVSim
//! configuration (program 350 µs, erase 1.5 ms, 918.809 nJ / 1374 nJ per
//! page read / write, 0.26 mW leakage). The storage controller (SC PE)
//! buffers writes in 24 KB of SRAM and *reorganises the layout*: neural
//! data arrives electrode-interleaved but is stored signal-contiguous, so
//! reads of one electrode's window touch one page instead of many
//! (§3.3's 5×-slower-write / 10×-faster-read trade).
//!
//! Modules: [`nvm`] (the device), [`partition`] (ring-buffer partitions),
//! [`layout`] (interleaved vs chunked cost model), [`controller`] (the SC
//! PE), [`wal`] (the fleet's page-structured write-ahead log, charged
//! against the same per-page cost model), [`image`] (the swap-image tier
//! `scalo-swap` parks evicted sessions on).

pub mod controller;
pub mod image;
pub mod layout;
pub mod nvm;
pub mod partition;
pub mod wal;
pub mod wal_fnv;

/// NVM page size in bytes (§5).
pub const PAGE_BYTES: usize = 4 * 1024;

/// NVM block size in bytes (§5).
pub const BLOCK_BYTES: usize = 1024 * 1024;

/// Pages per block.
pub const PAGES_PER_BLOCK: usize = BLOCK_BYTES / PAGE_BYTES;

/// Bytes returned by one NVM read operation (§5).
pub const READ_UNIT_BYTES: usize = 8;

/// Total NVM capacity per implant in bytes (§3.3: 128 GB).
pub const NVM_CAPACITY_BYTES: u64 = 128 * 1024 * 1024 * 1024;

/// SC PE SRAM buffer size (§5: sized from the NVSim parameters).
pub const SC_BUFFER_BYTES: usize = 24 * 1024;

// Counts heap traffic in the lib test binary, so the allocation
// assertions (the WAL's zero-allocation append path) can fail.
#[cfg(test)]
#[global_allocator]
static ALLOC: scalo_alloc::CountingAllocator = scalo_alloc::CountingAllocator;
