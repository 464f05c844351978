//! The guarantee of a `counters!` declaration, checked on every stats
//! struct declared with it: `merged` is the fieldwise sum, the field
//! visitor names each field exactly once, and exporting a window equals
//! windowing the exports.

use std::fmt::Debug;

use ipa_controller::ControllerStats;
use ipa_flash::stats::Counters;
use ipa_flash::FlashStats;
use ipa_ftl::DeviceStats;
use ipa_heat::HeatStats;
use ipa_maint::MaintStats;
use ipa_workloads::metrics::section;
use proptest::prelude::*;

/// Enough values for the widest struct; small enough that sums never
/// overflow.
fn values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0..1u64 << 40, 32)
}

fn flash(v: &[u64]) -> FlashStats {
    FlashStats {
        page_reads: v[0],
        page_programs: v[1],
        page_reprograms: v[2],
        block_erases: v[3],
        multi_plane_programs: v[4],
        multi_plane_reads: v[5],
        multi_plane_erases: v[6],
        cache_programs: v[7],
        bytes_read: v[8],
        bytes_written: v[9],
        disturb_bits_injected: v[10],
        busy_ns: v[11],
        erase_suspends: v[12],
    }
}

fn device(v: &[u64]) -> DeviceStats {
    DeviceStats {
        host_reads: v[0],
        host_writes: v[1],
        host_write_deltas: v[2],
        in_place_appends: v[3],
        out_of_place_writes: v[4],
        multi_plane_pairs: v[5],
        page_invalidations: v[6],
        gc_page_migrations: v[7],
        gc_erases: v[8],
        background_gc_erases: v[9],
        bytes_host_written: v[10],
        bytes_host_read: v[11],
        ecc_corrected_bits: v[12],
        uncorrectable_reads: v[13],
        wear_leveling_moves: v[14],
        vectored_reads: v[15],
        vectored_writes: v[16],
        readahead_hits: v[17],
        wal_stripe_writes: v[18],
        vectored_deltas: v[19],
        wal_stripes_reclaimed: v[20],
    }
}

fn controller(v: &[u64], dies: usize) -> ControllerStats {
    ControllerStats {
        commands: v[0],
        reads: v[1],
        posted_reads: v[2],
        programs: v[3],
        erases: v[4],
        queue_wait_ns: v[5],
        bus_busy_ns: v[6],
        max_queue_depth: v[7] as usize,
        sync_points: v[8],
        backpressure_stalls: v[9],
        backpressure_wait_ns: v[10],
        max_die_erases: v[11],
        min_die_erases: v[12],
        die_erases: v[13..13 + dies].to_vec(),
        reads_promoted: v[20],
        erase_suspends: v[21],
        forgotten_reads: v[22],
        posted_reads_outstanding: v[23],
        die_util_ppm_max: v[24],
        chan_util_ppm_max: v[25],
    }
}

fn maint(v: &[u64]) -> MaintStats {
    MaintStats {
        polls: v[0],
        steps: v[1],
        migrations: v[2],
        erases: v[3],
        deferred_busy: v[4],
        max_wear_spread: v[5],
        erase_suspends_seen: v[6],
        range_migrations: v[7],
        destages: v[8],
    }
}

fn heat(v: &[u64]) -> HeatStats {
    HeatStats {
        writes_seen: v[0],
        deltas_seen: v[1],
        hot_hits: v[2],
        hot_spills: v[3],
        tier_read_hits: v[4],
        tier_rmw_deltas: v[5],
        destaged_pages: v[6],
        range_migrations: v[7],
        migrations_skipped: v[8],
        decays: v[9],
        tier_resident: v[10],
        tier_slots: v[11],
    }
}

/// Field names as the compiler's `Debug` derive prints them: one
/// four-space-indented `name: value` line per field under `{:#?}`.
fn debug_field_names(stats: &impl Debug) -> Vec<String> {
    format!("{stats:#?}")
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_once(':'))
        .map(|(name, _)| name.to_string())
        .collect()
}

fn visited(stats: &impl Counters) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    stats.visit(|name, _, value| out.push((name, value)));
    out
}

/// Checks one struct with `a = b + d`, so `a` ≥ `b` fieldwise.
/// `per_die` names the fields the visitor skips by design.
fn check<S: Counters + Debug>(
    b: S,
    d: S,
    merged: fn(&S, &S) -> S,
    delta_since: fn(&S, &S) -> S,
    per_die: &[&str],
) -> Result<(), TestCaseError> {
    let a = merged(&b, &d);

    let sums: Vec<_> = visited(&b)
        .into_iter()
        .zip(visited(&d))
        .map(|((name, x), (_, y))| (name, x + y))
        .collect();
    prop_assert_eq!(visited(&a), sums);

    let names: Vec<String> = visited(&a).iter().map(|(n, _)| n.to_string()).collect();
    let mut expected = debug_field_names(&a);
    expected.retain(|n| !per_die.contains(&n.as_str()));
    prop_assert_eq!(names, expected);

    prop_assert_eq!(
        section("s", &delta_since(&a, &b)),
        section("s", &a).delta_since(&section("s", &b))
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_declared_stats_struct_keeps_its_guarantee(
        b in values(),
        d in values(),
        dies in (0usize..=7, 0usize..=7),
    ) {
        check(flash(&b), flash(&d), FlashStats::merged, FlashStats::delta_since, &[])?;
        check(device(&b), device(&d), DeviceStats::merged, DeviceStats::delta_since, &[])?;
        check(maint(&b), maint(&d), MaintStats::merged, MaintStats::delta_since, &[])?;
        check(heat(&b), heat(&d), HeatStats::merged, HeatStats::delta_since, &[])?;

        let (cb, cd) = (controller(&b, dies.0), controller(&d, dies.1));
        let a = cb.merged(&cd);
        let padded = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let sums: Vec<u64> = (0..dies.0.max(dies.1))
            .map(|i| padded(&cb.die_erases, i) + padded(&cd.die_erases, i))
            .collect();
        prop_assert_eq!(&a.die_erases, &sums);
        let windowed: Vec<u64> = (0..a.die_erases.len())
            .map(|i| a.die_erases[i] - padded(&cb.die_erases, i))
            .collect();
        prop_assert_eq!(a.delta_since(&cb).die_erases, windowed);
        check(cb, cd, ControllerStats::merged, ControllerStats::delta_since, &["die_erases"])?;
    }
}
