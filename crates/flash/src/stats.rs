//! Operation counters for the simulated device, and [`counters!`], the
//! one declaration every layer's stats struct is written in.
//!
//! Everything Table 1 of the paper reports is derived from these counters
//! (host-level counts live in the FTL's own stats; these are the raw
//! device-level events).

use serde::{Deserialize, Serialize};
use std::fmt;

/// How a declared stats field behaves across a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Monotone accumulator: a window subtracts.
    Counter,
    /// Point-in-time reading (depth, extremum, occupancy): a window
    /// carries the newer value.
    Gauge,
}

/// A stats struct declared with [`counters!`](crate::counters).
pub trait Counters {
    /// Call `f` once per scalar field, in declaration order, with the
    /// field's name, kind and value. Per-die vectors are not visited.
    fn visit<F: FnMut(&'static str, FieldKind, u64)>(&self, f: F);
}

/// Declare a stats struct once, tagging each field `counter`, `gauge` or
/// `per_die` (a `Vec<u64>` indexed by die). Every field becomes `pub`;
/// attributes and docs on the struct and its fields pass through. The
/// declaration generates:
///
/// * `merged` — the fieldwise sum (per-die vectors add elementwise), for
///   aggregating the dies, shards or queues of one device;
/// * `delta_since` — the window since an earlier snapshot: counters
///   subtract, gauges carry the newer value, per-die vectors subtract
///   elementwise (see [`per_die_since`]);
/// * [`Counters::visit`] — the kind-tagged walk exporters build on.
///
/// ```
/// ipa_flash::counters! {
///     /// Example stats.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct Example {
///         /// Things done.
///         counter done: u64,
///         /// Things in flight right now.
///         gauge in_flight: u64,
///     }
/// }
/// let earlier = Example { done: 3, in_flight: 5 };
/// let later = Example { done: 7, in_flight: 1 };
/// assert_eq!(later.delta_since(&earlier), Example { done: 4, in_flight: 1 });
/// assert_eq!(later.merged(&earlier), Example { done: 10, in_flight: 6 });
/// ```
#[macro_export]
macro_rules! counters {
    (@sum per_die, $a:expr, $b:expr) => {
        $crate::stats::per_die_sum($a, $b)
    };
    (@sum $kind:ident, $a:expr, $b:expr) => {
        *$a + *$b
    };
    (@since counter, $a:expr, $b:expr) => {
        *$a - *$b
    };
    (@since gauge, $a:expr, $b:expr) => {
        *$a
    };
    (@since per_die, $a:expr, $b:expr) => {
        $crate::stats::per_die_since($a, $b)
    };
    (@visit counter, $f:ident, $name:ident, $value:expr) => {
        $f(stringify!($name), $crate::stats::FieldKind::Counter, $value as u64)
    };
    (@visit gauge, $f:ident, $name:ident, $value:expr) => {
        $f(stringify!($name), $crate::stats::FieldKind::Gauge, $value as u64)
    };
    (@visit per_die, $f:ident, $name:ident, $value:expr) => {};
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $kind:ident $field:ident: $ty:ty,
            )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $(
                $(#[$field_meta])*
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Fieldwise sum.
            pub fn merged(&self, other: &$name) -> $name {
                $name {
                    $($field: $crate::counters!(@sum $kind, &self.$field, &other.$field),)*
                }
            }

            /// The window since `earlier` (`self` is the later snapshot):
            /// counters subtract, gauges keep this snapshot's value.
            pub fn delta_since(&self, earlier: &$name) -> $name {
                $name {
                    $($field: $crate::counters!(@since $kind, &self.$field, &earlier.$field),)*
                }
            }
        }

        impl $crate::stats::Counters for $name {
            fn visit<F: FnMut(&'static str, $crate::stats::FieldKind, u64)>(&self, mut f: F) {
                $($crate::counters!(@visit $kind, f, $field, self.$field);)*
            }
        }
    };
}

/// Elementwise sum of two per-die vectors; the shorter one counts as
/// zero past its end.
pub fn per_die_sum(a: &[u64], b: &[u64]) -> Vec<u64> {
    (0..a.len().max(b.len()))
        .map(|die| a.get(die).copied().unwrap_or(0) + b.get(die).copied().unwrap_or(0))
        .collect()
}

/// Per-die window: each die's count minus its count in `earlier`. An
/// `earlier` snapshot from before the vector existed (or from a smaller
/// device) contributes zero, not underflow.
pub fn per_die_since(now: &[u64], earlier: &[u64]) -> Vec<u64> {
    now.iter()
        .enumerate()
        .map(|(die, &n)| n.saturating_sub(earlier.get(die).copied().unwrap_or(0)))
        .collect()
}

counters! {
    /// Raw device-level counters. `merged` aggregates the dies of a
    /// multi-chip device; `busy_ns` adds too: it is total die-busy time,
    /// not wall time (on a parallel device the sum exceeds elapsed time;
    /// the ratio is the array-level utilisation).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct FlashStats {
        /// Page read operations.
        counter page_reads: u64,
        /// First-time page program operations (out-of-place writes land here).
        counter page_programs: u64,
        /// In-place re-program operations (IPA appends land here).
        counter page_reprograms: u64,
        /// Block erase operations.
        counter block_erases: u64,
        /// Multi-plane program commands (each also counts its member pages in
        /// `page_programs`/`page_reprograms`; this counts command staircases).
        counter multi_plane_programs: u64,
        /// Multi-plane read commands (member pages count in `page_reads`).
        counter multi_plane_reads: u64,
        /// Multi-plane erase commands (member blocks count in
        /// `block_erases`; this counts single shared erase pulses).
        #[serde(default)]
        counter multi_plane_erases: u64,
        /// Cached (pipelined) program commands: one per batch whose member
        /// pages count in `page_programs`/`page_reprograms`; the batch
        /// overlaps each member's bus transfer with the previous member's
        /// program pulse.
        #[serde(default)]
        counter cache_programs: u64,
        /// Data+OOB bytes transferred over the bus for reads.
        counter bytes_read: u64,
        /// Data+OOB bytes transferred over the bus for programs.
        counter bytes_written: u64,
        /// Disturb-induced bit flips injected by the interference model.
        counter disturb_bits_injected: u64,
        /// Total simulated time the device spent busy, in nanoseconds.
        counter busy_ns: u64,
        /// Erase-suspend commands served: an in-flight block erase parked its
        /// pulse so the die could answer a host read, then resumed.
        #[serde(default)]
        counter erase_suspends: u64,
    }
}

impl FlashStats {
    /// All program operations, first-time and in-place.
    #[inline]
    pub fn total_programs(&self) -> u64 {
        self.page_programs + self.page_reprograms
    }
}

impl fmt::Display for FlashStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} programs={} reprograms={} erases={} read_B={} written_B={} busy={:.3}s",
            self.page_reads,
            self.page_programs,
            self.page_reprograms,
            self.block_erases,
            self.bytes_read,
            self.bytes_written,
            self.busy_ns as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_delta() {
        let earlier = FlashStats {
            page_reads: 10,
            page_programs: 5,
            page_reprograms: 2,
            block_erases: 1,
            multi_plane_programs: 1,
            bytes_read: 100,
            bytes_written: 50,
            busy_ns: 1000,
            ..Default::default()
        };
        let later = FlashStats {
            page_reads: 15,
            page_programs: 9,
            page_reprograms: 6,
            block_erases: 2,
            multi_plane_programs: 3,
            bytes_read: 160,
            bytes_written: 90,
            disturb_bits_injected: 3,
            busy_ns: 2500,
            ..Default::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.page_reads, 5);
        assert_eq!(d.total_programs(), 8);
        assert_eq!(d.multi_plane_programs, 2);
        assert_eq!(d.busy_ns, 1500);
    }

    #[test]
    fn display_mentions_core_counters() {
        let s = FlashStats::default().to_string();
        assert!(s.contains("reads=0"));
        assert!(s.contains("erases=0"));
    }
}
