//! **Ablation A2 — NOP (partial-program budget) sensitivity.**
//!
//! IPA needs the flash to tolerate re-programming a page N times between
//! erases. Datasheets guarantee small NOP values (SLC: 4); this sweep
//! shows how the in-place fraction and GC pressure degrade as the budget
//! shrinks — and that a NOP of 1 (initial program only) collapses IPA to
//! the traditional path via the rejection/fallback mechanism.
//!
//! Usage: `cargo run --release -p ipa-bench --bin nop_sweep [--secs=6]`

use ipa_core::NmScheme;
use ipa_flash::FlashMode;
use ipa_ftl::WriteStrategy;
use ipa_workloads::{blocks_per_die, build, Driver, DriverConfig, Sizing, WorkloadKind};

fn main() {
    let secs: f64 = ipa_bench::arg("secs", 6.0);
    let seed: u64 = ipa_bench::arg("seed", 0x7C_B5EED);
    let page_size = 8 * 1024;

    println!();
    println!("NOP sweep — TPC-B, IPA [4x4] native, pSLC, {secs:.0} simulated seconds");
    ipa_bench::rule(104);
    println!(
        "{:<8}{:>14}{:>16}{:>16}{:>14}{:>14}{:>14}",
        "NOP", "in-place [%]", "rejected appends", "invalid./tx", "erases/tx", "tps", "tx"
    );
    ipa_bench::rule(104);

    for nop in [1u16, 2, 3, 5, 9, 17] {
        let mut bench = build(WorkloadKind::TpcB, 1, page_size);
        let mut engine = {
            // The benchmark chip with a custom device NOP: build by hand.
            let scheme = NmScheme::new(4, 4);
            let tables = bench.tables();
            let pages: u64 = tables.iter().map(|t| t.pages).sum();
            let blocks = blocks_per_die(pages, FlashMode::PSlc, 128, Sizing::Chip);
            let device = ipa_flash::DeviceConfig::new(
                ipa_flash::Geometry::new(blocks, 128, page_size, 128),
                FlashMode::PSlc,
            )
            .with_nop(nop);
            ipa_storage::StorageEngine::build(
                device,
                ipa_storage::EngineConfig::default()
                    .with_strategy(WriteStrategy::IpaNative, scheme)
                    .with_buffer_frames(32)
                    .with_group_commit(32),
                &tables,
            )
            .expect("engine")
        };
        let cfg = DriverConfig::default()
            .with_seed(seed)
            .for_simulated_secs(secs);
        let r = Driver::run(bench.as_mut(), &mut engine, &cfg).expect("run");
        println!(
            "{:<8}{:>14.0}{:>16}{:>16.4}{:>14.5}{:>14.0}{:>14}",
            nop,
            r.device.in_place_fraction() * 100.0,
            r.pool.in_place_fallbacks,
            r.device.page_invalidations as f64 / r.transactions.max(1) as f64,
            r.flash.block_erases as f64 / r.transactions.max(1) as f64,
            r.tps,
            r.transactions,
        );
    }
    ipa_bench::rule(104);
    println!("NOP=1 leaves no append budget (every write_delta is rejected); the curve");
    println!("saturates once NOP exceeds 1 + N, the scheme's own per-page append ceiling.");
}
