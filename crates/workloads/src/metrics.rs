//! The concrete [`MetricsSnapshot`] builder: walk a live
//! [`StorageEngine`] and report every layer's stats struct — pool,
//! device, WAL device, raw flash, controller, maintenance, heat — as one
//! serializable tree, with the derived gauges (hit rate, WAL backlog,
//! utilization, wear spread, per-die busy fractions) computed in place.
//!
//! The shape lives in `ipa_trace::metrics`. The vocabulary does not live
//! here: the device, flash, controller, maintenance and heat sections are
//! exported by [`section`] straight from each struct's
//! [`ipa_flash::counters!`] declaration, which names every field once
//! and tags it counter or gauge. This module adds only the section names,
//! the engine and pool sections, and the derived gauges, so the driver's
//! [`crate::RunResult`], the fleet soak and the sweep binary all emit
//! snapshots that window (`delta_since`) and serialize identically.

use ipa_flash::stats::{Counters, FieldKind};
use ipa_heat::HeatDevice;
use ipa_maint::MaintainedFtl;
use ipa_storage::StorageEngine;
use ipa_trace::{Metric, MetricKind, MetricSection, MetricValue, MetricsSnapshot};

use crate::driver::Driver;

/// Snapshot every metric the engine's stack exposes right now.
///
/// Sections (present when the layer exists):
///
/// * `engine` — commit/abort counters and the device/log time horizons.
/// * `pool` — buffer-pool traffic plus the derived `hit_rate` gauge.
/// * `device` — FTL counters for the data device.
/// * `wal_device` — FTL counters for the log device, plus the derived
///   `backlog_stripes` gauge (stripes written minus reclaimed — the
///   log-space pressure the truncation path works against).
/// * `flash` — raw chip counters summed over the data device's dies.
/// * `controller` — scheduler counters plus utilization/wear/depth
///   gauges, one `die{N}_erases` counter per die, and one `die{N}_busy` /
///   `chan{N}_busy` fraction per die and channel.
/// * `maint` — background-reclaim counters, when the device runs the
///   idle-die scheduler.
/// * `heat` — heat-placement counters (tier traffic, destages, wear
///   migrations) plus tier occupancy gauges, when the device is an
///   [`ipa_heat::HeatDevice`].
pub fn engine_metrics(engine: &StorageEngine) -> MetricsSnapshot {
    let stats = engine.stats();
    let mut snap = MetricsSnapshot::new(stats.elapsed_ns);

    snap.push(
        MetricSection::new("engine")
            .counter("committed", stats.committed)
            .counter("aborted", stats.aborted)
            .counter("elapsed_ns", stats.elapsed_ns)
            .counter("wal_elapsed_ns", stats.wal_elapsed_ns)
            .gauge("max_erase_count", stats.max_erase_count as u64),
    );

    let p = stats.pool;
    let fetches = p.hits + p.misses;
    snap.push(
        MetricSection::new("pool")
            .counter("hits", p.hits)
            .counter("misses", p.misses)
            .counter("evictions", p.evictions)
            .counter("evict_in_place", p.evict_in_place)
            .counter("evict_out_of_place", p.evict_out_of_place)
            .counter("evict_clean", p.evict_clean)
            .counter("in_place_fallbacks", p.in_place_fallbacks)
            .counter("readahead_issued", p.readahead_issued)
            .counter("readahead_hits", p.readahead_hits)
            .gauge_f64(
                "hit_rate",
                if fetches == 0 {
                    0.0
                } else {
                    p.hits as f64 / fetches as f64
                },
            ),
    );

    snap.push(section("device", &stats.device));
    if let Some(w) = &stats.wal_device {
        snap.push(section("wal_device", w).gauge(
            "backlog_stripes",
            w.wal_stripe_writes.saturating_sub(w.wal_stripes_reclaimed),
        ));
    }
    snap.push(section("flash", &stats.flash));

    if let Some(ctrl) = Driver::controller_of(engine) {
        let c = ctrl.stats();
        let mut sec = section("controller", &c).gauge("wear_spread", c.wear_spread());
        for die in 0..ctrl.dies() {
            sec = sec.gauge_f64(format!("die{die}_busy"), ctrl.die_busy_fraction(die));
        }
        for (die, &erases) in c.die_erases.iter().enumerate() {
            sec = sec.counter(format!("die{die}_erases"), erases);
        }
        for ch in 0..ctrl.config().channels {
            sec = sec.gauge_f64(format!("chan{ch}_busy"), ctrl.channel_busy_fraction(ch));
        }
        snap.push(sec);
    }

    let maint = engine
        .device_as::<MaintainedFtl>()
        .map(MaintainedFtl::maint_stats)
        .or_else(|| {
            engine
                .device_as::<HeatDevice>()
                .map(HeatDevice::maint_stats)
        });
    if let Some(m) = maint {
        snap.push(section("maint", &m));
    }

    if let Some(hd) = engine.device_as::<HeatDevice>() {
        let h = hd.heat_stats();
        let tier = hd.tier_flash_stats();
        snap.push(
            section("heat", &h)
                .counter("tier_page_programs", tier.page_programs)
                .counter("tier_block_erases", tier.block_erases)
                .gauge_f64("tier_occupancy", h.tier_occupancy()),
        );
    }

    snap
}

/// One section holding every scalar field of a stats struct declared
/// with [`ipa_flash::counters!`], under the field's own name and kind.
pub fn section(name: &str, stats: &impl Counters) -> MetricSection {
    let mut sec = MetricSection::new(name);
    stats.visit(|field, kind, value| {
        sec.metrics.push(Metric {
            name: field.into(),
            kind: match kind {
                FieldKind::Counter => MetricKind::Counter,
                FieldKind::Gauge => MetricKind::Gauge,
            },
            value: MetricValue::U64(value),
        })
    });
    sec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{ipa, traditional};
    use crate::driver::{DriverConfig, MaintMode, Topology};
    use crate::spec::{build, WorkloadKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snapshot_covers_every_layer_of_a_maintained_engine() {
        let cfg = DriverConfig::quick().with_wal_stripe(2, 1);
        let mut bench = build(WorkloadKind::TpcB, 1, 8 * 1024);
        let mut engine = ipa()
            .maintained(
                Topology::new(2, 2, ipa_ftl::StripePolicy::RoundRobin),
                MaintMode::background(Some(8)),
            )
            .engine(bench.as_ref(), &cfg)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        bench.load(&mut engine, &mut rng).unwrap();
        for _ in 0..200 {
            bench.run_tx(&mut engine, &mut rng).unwrap();
        }
        engine.flush_all().unwrap();

        let snap = engine_metrics(&engine);
        for sec in [
            "engine",
            "pool",
            "device",
            "wal_device",
            "flash",
            "controller",
            "maint",
        ] {
            assert!(snap.section(sec).is_some(), "missing section {sec}");
        }
        assert!(snap.get("engine.committed").unwrap().as_u64() >= 200);
        let hit_rate = snap.get("pool.hit_rate").unwrap().as_f64();
        assert!((0.0..=1.0).contains(&hit_rate));
        assert!(snap.get("device.host_writes").unwrap().as_u64() > 0);
        assert!(snap.get("flash.page_programs").unwrap().as_u64() > 0);
        assert!(snap.get("controller.commands").unwrap().as_u64() > 0);
        // 2×2 topology: one busy-fraction gauge per die and channel,
        // each a sane fraction.
        for name in ["die0_busy", "die1_busy", "die2_busy", "die3_busy"] {
            let v = snap.get(&format!("controller.{name}")).unwrap().as_f64();
            assert!((0.0..=1.0).contains(&v), "{name}={v}");
        }
        assert!(snap.get("controller.chan1_busy").is_some());
        assert!(snap.get("controller.chan2_busy").is_none());

        // Round-trips through JSON and windows sanely.
        let text = snap.to_json_string();
        let back = MetricsSnapshot::from_json_str(&text).unwrap();
        assert_eq!(back, snap);
        let d = snap.delta_since(&snap);
        assert_eq!(d.get("controller.commands").unwrap().as_u64(), 0);
        assert_eq!(
            d.get("controller.max_queue_depth").unwrap().as_u64(),
            snap.get("controller.max_queue_depth").unwrap().as_u64(),
            "gauges carry through a self-delta"
        );
    }

    #[test]
    fn wal_backlog_gauge_tracks_unreclaimed_stripes() {
        let snap = {
            let cfg = DriverConfig::quick().with_wal_stripe(2, 1);
            let mut bench = build(WorkloadKind::TpcB, 1, 8 * 1024);
            let mut engine = traditional()
                .striped(Topology::single())
                .engine(bench.as_ref(), &cfg)
                .unwrap();
            let mut rng = StdRng::seed_from_u64(3);
            bench.load(&mut engine, &mut rng).unwrap();
            for _ in 0..100 {
                bench.run_tx(&mut engine, &mut rng).unwrap();
            }
            engine.flush_all().unwrap();
            engine_metrics(&engine)
        };
        let writes = snap.get("wal_device.wal_stripe_writes").unwrap().as_u64();
        let reclaimed = snap
            .get("wal_device.wal_stripes_reclaimed")
            .unwrap()
            .as_u64();
        let backlog = snap.get("wal_device.backlog_stripes").unwrap().as_u64();
        assert_eq!(backlog, writes.saturating_sub(reclaimed));
        assert!(writes > 0, "striped WAL must have written stripes");
    }

    #[test]
    fn windowed_die_erases_match_the_controller_window() {
        // Regression: per-die erase totals were exported as gauges, so a
        // windowed snapshot reported each die's lifetime erases while
        // `ControllerStats::delta_since` reported the window's.
        let cfg = DriverConfig::quick();
        let mut bench = build(WorkloadKind::TpcB, 1, 8 * 1024);
        let mut engine = traditional()
            .maintained(
                Topology::new(2, 2, ipa_ftl::StripePolicy::RoundRobin),
                MaintMode::background(Some(8)),
            )
            .engine(bench.as_ref(), &cfg)
            .unwrap();
        let ctrl = Driver::controller_of(&engine).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        bench.load(&mut engine, &mut rng).unwrap();
        let mut run_until_die0_erases = |engine: &mut StorageEngine, past: u64| {
            for _ in 0..50_000 {
                if ctrl.stats().die_erases.first().copied().unwrap_or(0) > past {
                    return;
                }
                bench.run_tx(engine, &mut rng).unwrap();
            }
            panic!("die 0 never erased past {past}");
        };

        run_until_die0_erases(&mut engine, 0);
        let (snap_a, stats_a) = (engine_metrics(&engine), ctrl.stats());
        run_until_die0_erases(&mut engine, stats_a.die_erases[0]);
        let (snap_b, stats_b) = (engine_metrics(&engine), ctrl.stats());

        let window = stats_b.delta_since(&stats_a).die_erases[0];
        assert!(window > 0 && window < stats_b.die_erases[0]);
        assert_eq!(
            snap_b
                .delta_since(&snap_a)
                .get("controller.die0_erases")
                .unwrap()
                .as_u64(),
            window
        );
    }
}
