//! Golden counters for every device stack an [`Experiment`] mounts.
//!
//! One short TPC-B run per stack kind — bare chip, striped inline GC,
//! striped background GC under QoS, and heat placement — long enough
//! for garbage collection to run. The expected counters were recorded
//! from the per-stack `Driver` constructors the builder replaced; drift
//! in device sizing, engine configuration or the wrapper chain moves at
//! least one of them.

use ipa_core::NmScheme;
use ipa_flash::FlashMode;
use ipa_ftl::{StripePolicy, WriteStrategy};
use ipa_workloads::{
    DriverConfig, Experiment, HeatPolicy, MaintMode, RunResult, Topology, WorkloadKind,
};

fn single_stream() -> DriverConfig {
    DriverConfig {
        transactions: 6_000,
        warmup: 200,
        ..Default::default()
    }
}

fn four_streams() -> DriverConfig {
    single_stream().with_streams(4)
}

fn traditional() -> Experiment {
    Experiment::new(
        WriteStrategy::Traditional,
        NmScheme::disabled(),
        FlashMode::PSlc,
    )
}

fn topology() -> Topology {
    Topology::new(2, 2, StripePolicy::RoundRobin)
}

fn run(experiment: Experiment, cfg: &DriverConfig) -> RunResult {
    experiment
        .run(WorkloadKind::TpcB, 1, cfg)
        .expect("golden run")
}

/// Every counter of `device` and `flash` is compared through its
/// `Debug` rendering, so a counter that moves anywhere fails the test.
fn assert_golden(r: &RunResult, elapsed_ns: u64, raw_blocks: u32, device: &str, flash: &str) {
    assert_eq!(r.elapsed_ns, elapsed_ns, "elapsed_ns");
    assert_eq!(r.raw_blocks, raw_blocks, "raw_blocks");
    assert_eq!(format!("{:?}", r.device), device);
    assert_eq!(format!("{:?}", r.flash), flash);
}

#[test]
fn chip_stack_matches_golden() {
    let r = run(traditional(), &single_stream());
    assert_golden(
        &r,
        4_075_674_600,
        32,
        "DeviceStats { host_reads: 9559, host_writes: 5350, host_write_deltas: 0, in_place_appends: 0, out_of_place_writes: 5350, multi_plane_pairs: 0, page_invalidations: 5310, gc_page_migrations: 36, gc_erases: 61, background_gc_erases: 0, bytes_host_written: 43827200, bytes_host_read: 78307328, ecc_corrected_bits: 0, uncorrectable_reads: 0, wear_leveling_moves: 0, vectored_reads: 0, vectored_writes: 0, readahead_hits: 0, wal_stripe_writes: 0, vectored_deltas: 0, wal_stripes_reclaimed: 0 }",
        "FlashStats { page_reads: 9595, page_programs: 5386, page_reprograms: 0, block_erases: 61, multi_plane_programs: 0, multi_plane_reads: 0, multi_plane_erases: 0, cache_programs: 0, bytes_read: 79830400, bytes_written: 44811520, disturb_bits_injected: 0, busy_ns: 3895674600, erase_suspends: 0 }",
    );
}

#[test]
fn striped_inline_stack_matches_golden() {
    let r = run(traditional().striped(topology()), &four_streams());
    assert_golden(
        &r,
        2_028_563_800,
        60,
        "DeviceStats { host_reads: 9552, host_writes: 5350, host_write_deltas: 0, in_place_appends: 0, out_of_place_writes: 5350, multi_plane_pairs: 0, page_invalidations: 5310, gc_page_migrations: 4, gc_erases: 43, background_gc_erases: 0, bytes_host_written: 43827200, bytes_host_read: 78249984, ecc_corrected_bits: 0, uncorrectable_reads: 0, wear_leveling_moves: 0, vectored_reads: 0, vectored_writes: 0, readahead_hits: 0, wal_stripe_writes: 0, vectored_deltas: 0, wal_stripes_reclaimed: 0 }",
        "FlashStats { page_reads: 9556, page_programs: 5354, page_reprograms: 0, block_erases: 43, multi_plane_programs: 0, multi_plane_reads: 0, multi_plane_erases: 0, cache_programs: 0, bytes_read: 79505920, bytes_written: 44545280, disturb_bits_injected: 0, busy_ns: 3821716000, erase_suspends: 0 }",
    );
}

#[test]
fn striped_background_qos_stack_matches_golden() {
    let maint = MaintMode::background(Some(8)).with_qos();
    let r = run(traditional().maintained(topology(), maint), &four_streams());
    assert_golden(
        &r,
        1_481_314_280,
        60,
        "DeviceStats { host_reads: 9613, host_writes: 5372, host_write_deltas: 0, in_place_appends: 0, out_of_place_writes: 5372, multi_plane_pairs: 0, page_invalidations: 5332, gc_page_migrations: 4, gc_erases: 43, background_gc_erases: 43, bytes_host_written: 44007424, bytes_host_read: 78749696, ecc_corrected_bits: 0, uncorrectable_reads: 0, wear_leveling_moves: 0, vectored_reads: 0, vectored_writes: 0, readahead_hits: 0, wal_stripe_writes: 0, vectored_deltas: 0, wal_stripes_reclaimed: 0 }",
        "FlashStats { page_reads: 9617, page_programs: 5376, page_reprograms: 0, block_erases: 43, multi_plane_programs: 0, multi_plane_reads: 0, multi_plane_erases: 0, cache_programs: 0, bytes_read: 80013440, bytes_written: 44728320, disturb_bits_injected: 0, busy_ns: 3842923800, erase_suspends: 70 }",
    );
}

#[test]
fn heat_stack_matches_golden() {
    let cfg = four_streams().with_heat(HeatPolicy::default());
    let r = run(
        traditional().maintained(topology(), MaintMode::background(None)),
        &cfg,
    );
    assert_golden(
        &r,
        2_467_732_760,
        60,
        "DeviceStats { host_reads: 9549, host_writes: 5336, host_write_deltas: 0, in_place_appends: 0, out_of_place_writes: 28, multi_plane_pairs: 0, page_invalidations: 21, gc_page_migrations: 0, gc_erases: 0, background_gc_erases: 0, bytes_host_written: 43712512, bytes_host_read: 78225408, ecc_corrected_bits: 0, uncorrectable_reads: 0, wear_leveling_moves: 0, vectored_reads: 0, vectored_writes: 0, readahead_hits: 0, wal_stripe_writes: 0, vectored_deltas: 0, wal_stripes_reclaimed: 0 }",
        "FlashStats { page_reads: 9785, page_programs: 5620, page_reprograms: 0, block_erases: 171, multi_plane_programs: 0, multi_plane_reads: 0, multi_plane_erases: 0, cache_programs: 48, bytes_read: 81411200, bytes_written: 46758400, disturb_bits_injected: 0, busy_ns: 3026987000, erase_suspends: 0 }",
    );
    assert!(
        r.heat.is_some_and(|h| h.hot_hits > 0),
        "the hot tier absorbed writes"
    );
}
