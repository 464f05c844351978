//! Host-visible device statistics — the raw material of the paper's
//! Table 1.
//!
//! `Host Reads`, `Host Writes`, `GC Page Migrations`, `GC Erases`, the two
//! per-host-write ratios and the split between out-of-place writes and
//! in-place appends all come straight from these counters.

use serde::{Deserialize, Serialize};
use std::fmt;

ipa_flash::counters! {
    /// Counters maintained by the translation layer (host-level view).
    /// `merged` aggregates the shards of a die-striped device, and a
    /// device's queued-path counters, into one host-level view.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
    pub struct DeviceStats {
        /// Host page reads.
        counter host_reads: u64,
        /// Host full-page writes (both out-of-place and in-place-detected).
        counter host_writes: u64,
        /// Host `write_delta` commands (native IPA path).
        counter host_write_deltas: u64,
        /// Writes satisfied by re-programming the same physical page.
        counter in_place_appends: u64,
        /// Writes that allocated a fresh physical page.
        counter out_of_place_writes: u64,
        /// Out-of-place write pairs the plane-aware allocator completed as
        /// one multi-plane program command (two host writes, one staircase).
        counter multi_plane_pairs: u64,
        /// Previously valid physical pages invalidated by host writes.
        counter page_invalidations: u64,
        /// Valid pages copied by the garbage collector.
        counter gc_page_migrations: u64,
        /// Blocks erased by the garbage collector.
        counter gc_erases: u64,
        /// Subset of `gc_erases` performed by background maintenance steps
        /// (idle-die scheduled reclaim) rather than inline with a host write.
        counter background_gc_erases: u64,
        /// Payload bytes the host pushed to the device (whole pages for
        /// `write`, delta bytes for `write_delta`) — the DBMS
        /// write-amplification numerator of Figure 1.
        counter bytes_host_written: u64,
        /// Payload bytes returned to the host.
        counter bytes_host_read: u64,
        /// Bits repaired by ECC across all reads.
        counter ecc_corrected_bits: u64,
        /// Reads that failed ECC (data loss events).
        counter uncorrectable_reads: u64,
        /// Blocks recycled by static wear levelling.
        counter wear_leveling_moves: u64,
        /// Queued `ReadV` submissions spanning more than one page.
        #[serde(default)]
        counter vectored_reads: u64,
        /// Queued `WriteV` submissions spanning more than one page.
        #[serde(default)]
        counter vectored_writes: u64,
        /// Buffer-pool fetches served from a posted read-ahead completion
        /// instead of a fresh synchronous device read.
        #[serde(default)]
        counter readahead_hits: u64,
        /// WAL group-commit flushes submitted as one multi-page vector
        /// (striping the log write across channels).
        #[serde(default)]
        counter wal_stripe_writes: u64,
        /// Queued `WriteDeltaV` submissions spanning more than one member —
        /// evictions batching their delta appends across dies.
        #[serde(default)]
        counter vectored_deltas: u64,
        /// Sealed WAL log pages trimmed by a checkpoint — the log-space
        /// reclamation that keeps the seal-on-flush stripe bounded.
        #[serde(default)]
        counter wal_stripes_reclaimed: u64,
    }
}

impl DeviceStats {
    /// Total host write operations of either flavour.
    #[inline]
    pub fn total_host_writes(&self) -> u64 {
        self.host_writes + self.host_write_deltas
    }

    /// Table 1's "GC Page Migrations per Host Write".
    pub fn migrations_per_host_write(&self) -> f64 {
        ratio(self.gc_page_migrations, self.total_host_writes())
    }

    /// Table 1's "GC Erases per Host Write".
    pub fn erases_per_host_write(&self) -> f64 {
        ratio(self.gc_erases, self.total_host_writes())
    }

    /// Fraction of update writes that stayed in place.
    pub fn in_place_fraction(&self) -> f64 {
        ratio(
            self.in_place_appends,
            self.in_place_appends + self.out_of_place_writes,
        )
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for DeviceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "host_reads={} host_writes={} write_deltas={} in_place={} out_of_place={} \
             invalidations={} gc_migrations={} gc_erases={} (bg={})",
            self.host_reads,
            self.host_writes,
            self.host_write_deltas,
            self.in_place_appends,
            self.out_of_place_writes,
            self.page_invalidations,
            self.gc_page_migrations,
            self.gc_erases,
            self.background_gc_erases
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = DeviceStats {
            host_writes: 100,
            host_write_deltas: 100,
            gc_page_migrations: 50,
            gc_erases: 10,
            ..Default::default()
        };
        assert!((s.migrations_per_host_write() - 0.25).abs() < 1e-12);
        assert!((s.erases_per_host_write() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_zero() {
        let s = DeviceStats::default();
        assert_eq!(s.migrations_per_host_write(), 0.0);
        assert_eq!(s.in_place_fraction(), 0.0);
    }

    #[test]
    fn in_place_fraction() {
        let s = DeviceStats {
            in_place_appends: 3,
            out_of_place_writes: 1,
            ..Default::default()
        };
        assert!((s.in_place_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn delta_since() {
        let a = DeviceStats {
            host_reads: 5,
            gc_erases: 2,
            ..Default::default()
        };
        let b = DeviceStats {
            host_reads: 9,
            gc_erases: 3,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(d.host_reads, 4);
        assert_eq!(d.gc_erases, 1);
    }
}
