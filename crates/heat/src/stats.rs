//! Counters the heat-placement subsystem keeps about itself.

use serde::{Deserialize, Serialize};
use std::fmt;

ipa_flash::counters! {
    /// What the tracker, tier and shifter did. Counters unless noted;
    /// gauges are refreshed when the snapshot is taken.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct HeatStats {
        /// Full-page host writes observed by the tracker.
        counter writes_seen: u64,
        /// Host delta appends observed by the tracker.
        counter deltas_seen: u64,
        /// Hot full-page writes absorbed by the SLC tier.
        counter hot_hits: u64,
        /// Hot writes that found the tier full and spilled to the main
        /// stripe.
        counter hot_spills: u64,
        /// Host reads served from the tier.
        counter tier_read_hits: u64,
        /// Delta appends applied as read-modify-writes of a tier-resident
        /// image (the tier converts in-place appends into rewrites, so NOP
        /// budgets never bind there).
        counter tier_rmw_deltas: u64,
        /// Pages destaged from the tier back to the main stripe.
        counter destaged_pages: u64,
        /// Hot/cold stripe-slot swaps executed ([`ipa_ftl::ShardedFtl::swap_stripe`]
        /// returned `true`).
        counter range_migrations: u64,
        /// Proposed swaps the stripe refused (layout mismatch, identical
        /// LBAs) — counted so a misconfigured pairing policy is visible.
        counter migrations_skipped: u64,
        /// Heat-counter halvings applied (tracker aging).
        counter decays: u64,
        /// Gauge: host pages resident in the tier right now.
        gauge tier_resident: u64,
        /// Gauge: total tier page slots.
        gauge tier_slots: u64,
    }
}

impl HeatStats {
    /// Fraction of tier slots occupied, 0.0 on a zero-slot tier.
    pub fn tier_occupancy(&self) -> f64 {
        if self.tier_slots == 0 {
            0.0
        } else {
            self.tier_resident as f64 / self.tier_slots as f64
        }
    }
}

impl fmt::Display for HeatStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "writes={} deltas={} hot_hits={} spills={} read_hits={} rmw={} \
             destaged={} migrations={} (skipped={}) decays={} tier={}/{}",
            self.writes_seen,
            self.deltas_seen,
            self.hot_hits,
            self.hot_spills,
            self.tier_read_hits,
            self.tier_rmw_deltas,
            self.destaged_pages,
            self.range_migrations,
            self.migrations_skipped,
            self.decays,
            self.tier_resident,
            self.tier_slots
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_handles_zero_slots() {
        assert_eq!(HeatStats::default().tier_occupancy(), 0.0);
        let s = HeatStats {
            tier_resident: 3,
            tier_slots: 12,
            ..Default::default()
        };
        assert!((s.tier_occupancy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let s = HeatStats::default().to_string();
        assert!(s.contains("hot_hits=0"));
        assert!(s.contains("tier=0/0"));
    }
}
