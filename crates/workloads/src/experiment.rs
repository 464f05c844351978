//! One experiment — a write strategy on one flash mode over one device
//! stack — and the one rule that sizes a device for a benchmark.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ipa_controller::ControllerConfig;
use ipa_core::NmScheme;
use ipa_flash::{DeviceConfig, FlashMode, Geometry};
use ipa_ftl::{FtlConfig, NativeFlashDevice, RegionTable, ShardedFtl, WriteStrategy};
use ipa_heat::{DefaultPolicy, HeatDevice};
use ipa_maint::MaintainedFtl;
use ipa_storage::{EngineConfig, Result, StorageEngine, StorageError, TableKind};

use crate::driver::{Driver, DriverConfig, MaintMode, RunResult, ScanResult, Topology};
use crate::spec::{build, Benchmark, WorkloadKind};

/// Page size of every benchmark device.
const PAGE_SIZE: usize = 8 * 1024;
/// Pages per erase block of every benchmark device.
const PAGES_PER_BLOCK: u32 = 128;
/// Blocks per die kept back for garbage collection on top of the
/// headroom.
const GC_RESERVE_BLOCKS: u32 = 8;

/// How a sized device is built, which decides how [`blocks_per_die`]
/// rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sizing {
    /// One bare chip: the block count rounds down.
    Chip,
    /// A striped controller: the budget is split over `dies`, each die's
    /// share rounds up, is at least `min_blocks` and fills whole planes.
    Striped {
        dies: u32,
        planes: u32,
        min_blocks: u32,
    },
}

/// The device-sizing rule: erase blocks per die for `pages` live pages
/// with ~40 % headroom (over-provisioning + GC room) plus an 8-block GC
/// reserve per die, so a run sees a mostly-full SSD as in the paper's
/// two-hour runs.
///
/// The two roundings differ by design: every Table 1 number was measured
/// on the rounded-down chip, every controller sweep on rounded-up dies.
pub fn blocks_per_die(pages: u64, mode: FlashMode, pages_per_block: u32, sizing: Sizing) -> u32 {
    let budget = pages * 14 / 10;
    let usable = mode.usable_pages_per_block(pages_per_block) as u64;
    match sizing {
        Sizing::Chip => (budget / usable) as u32 + GC_RESERVE_BLOCKS,
        Sizing::Striped {
            dies,
            planes,
            min_blocks,
        } => (budget.div_ceil(usable * dies as u64) as u32 + GC_RESERVE_BLOCKS)
            .max(min_blocks)
            .next_multiple_of(planes),
    }
}

/// Mount a striped device: `topology` over dies of `chip`, with the NCQ
/// cap and QoS of `maint`, low-water GC inline or on the maintenance
/// scheduler, and — given a `heat` policy — the heat-placement tier on
/// top. Heat needs the scheduler, so it always runs background GC.
pub fn mount_striped(
    chip: DeviceConfig,
    topology: Topology,
    maint: MaintMode,
    heat: Option<DefaultPolicy>,
    regions: RegionTable,
    ftl_config: FtlConfig,
) -> Box<dyn NativeFlashDevice> {
    let mut controller = ControllerConfig::new(topology.channels, topology.dies_per_channel, chip);
    if let Some(cap) = maint.queue_cap {
        controller = controller.with_queue_cap(cap);
    }
    if maint.qos {
        controller = controller.with_qos();
    }
    if !maint.background_gc && heat.is_none() {
        return Box::new(ShardedFtl::with_regions(
            controller,
            ftl_config,
            topology.policy,
            regions,
        ));
    }
    let striped = ShardedFtl::with_regions(
        controller,
        ftl_config.with_background_gc(),
        topology.policy,
        regions,
    );
    let maintained = MaintainedFtl::new(striped, maint.maint);
    match heat {
        Some(policy) => Box::new(HeatDevice::new(maintained, Box::new(policy))),
        None => Box::new(maintained),
    }
}

/// The device a run mounts.
#[derive(Debug, Clone, Copy)]
enum Stack {
    /// One bare chip behind the page-mapped FTL.
    Chip,
    /// A die-striped controller under a maintenance policy.
    Striped {
        topology: Topology,
        maint: MaintMode,
    },
}

/// One run configuration: a write strategy and N×M scheme on one flash
/// mode over one device stack. Host-side tuning (buffer frames, group
/// commit, read-ahead, WAL striping, heat placement) comes from the
/// [`DriverConfig`] each call takes.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    strategy: WriteStrategy,
    scheme: NmScheme,
    mode: FlashMode,
    stack: Stack,
}

impl Experiment {
    /// `strategy` with `scheme` on a bare `mode` chip.
    pub fn new(strategy: WriteStrategy, scheme: NmScheme, mode: FlashMode) -> Self {
        Experiment {
            strategy,
            scheme,
            mode,
            stack: Stack::Chip,
        }
    }

    /// Stripe the device over `topology` with inline GC. Total raw
    /// capacity follows the chip's sizing split across the dies, so a
    /// topology sweep varies parallelism, not usable space.
    pub fn striped(self, topology: Topology) -> Self {
        self.maintained(topology, MaintMode::inline())
    }

    /// Stripe the device over `topology` under `maint`: an NCQ cap,
    /// QoS scheduling and, for background GC, the idle-die maintenance
    /// scheduler in place of inline low-water GC.
    pub fn maintained(mut self, topology: Topology, maint: MaintMode) -> Self {
        self.stack = Stack::Striped { topology, maint };
        self
    }

    /// Build an engine with a device sized for `bench`.
    pub fn engine(&self, bench: &dyn Benchmark, cfg: &DriverConfig) -> Result<StorageEngine> {
        let tables = bench.tables();
        let pages: u64 = tables.iter().map(|t| t.pages).sum();
        // Buffer-constrained by default, like the paper's runs: the hot
        // update set does not fit, so dirty pages are evicted with only a
        // handful of accumulated byte changes each — the condition that
        // makes the N×M scheme effective. Group commit of 32 models the
        // loaded multi-client system the paper benchmarks (Shore-MT runs
        // many worker threads; per-commit log flushes amortize across the
        // group).
        let mut config = if self.strategy.needs_layout() {
            EngineConfig::default().with_strategy(self.strategy, self.scheme)
        } else {
            EngineConfig::default()
        }
        .with_buffer_frames(cfg.buffer_frames.unwrap_or(32))
        .with_group_commit(cfg.group_commit.unwrap_or(32));
        if cfg.readahead > 0 {
            config = config.with_readahead(cfg.readahead);
        }
        if let Some((channels, dies)) = cfg.wal_stripe {
            config = config.with_striped_wal(channels, dies);
        }
        let (sizing, planes) = match self.stack {
            Stack::Chip => (Sizing::Chip, 1),
            Stack::Striped { topology, .. } => (
                Sizing::Striped {
                    dies: topology.dies(),
                    planes: topology.planes,
                    min_blocks: 0,
                },
                topology.planes,
            ),
        };
        let blocks = blocks_per_die(pages, self.mode, PAGES_PER_BLOCK, sizing);
        let chip = DeviceConfig::new(
            Geometry::new(blocks, PAGES_PER_BLOCK, PAGE_SIZE, 128).with_planes(planes),
            self.mode,
        );
        match self.stack {
            Stack::Chip if cfg.heat.is_some() => Err(StorageError::Unsupported(
                "heat placement needs a striped device with the maintenance scheduler",
            )),
            Stack::Chip => StorageEngine::build(chip, config, &tables),
            Stack::Striped { topology, maint } => {
                let heat = cfg.heat.clone();
                StorageEngine::build_with_device(PAGE_SIZE, config, &tables, move |regions, ftl| {
                    mount_striped(chip, topology, maint, heat, regions, ftl)
                })
            }
        }
    }

    /// Build `kind` at `scale`, size a device for it, and run the
    /// measured window.
    pub fn run(&self, kind: WorkloadKind, scale: u32, cfg: &DriverConfig) -> Result<RunResult> {
        let mut bench = build(kind, scale, PAGE_SIZE);
        let mut engine = self.engine(bench.as_ref(), cfg)?;
        Driver::run(bench.as_mut(), &mut engine, cfg)
    }

    /// The read-ahead experiment: load `kind` at `scale`, then run
    /// [`Driver::sequential_scan`] over its largest heap table.
    /// `cfg.readahead` decides whether the pool prefetches — run it at 0
    /// and again at a window to measure the all-channels-scan win.
    pub fn scan(
        &self,
        kind: WorkloadKind,
        scale: u32,
        passes: u32,
        cfg: &DriverConfig,
    ) -> Result<ScanResult> {
        let mut bench = build(kind, scale, PAGE_SIZE);
        let mut engine = self.engine(bench.as_ref(), cfg)?;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        bench.load(&mut engine, &mut rng)?;
        engine.flush_all()?;
        // Scan the biggest *populated* heap table (budgeted-but-empty
        // append targets like TPC-B's history don't make a scan).
        let table = bench
            .tables()
            .into_iter()
            .filter(|t| t.kind == TableKind::Heap)
            .max_by_key(|t| {
                engine
                    .table(&t.name)
                    .map(|id| engine.table_info(id).allocated_pages)
                    .unwrap_or(0)
            })
            .expect("benchmark has a heap table")
            .name;
        Driver::sequential_scan(&mut engine, &table, passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{ipa, traditional};

    #[test]
    fn blocks_per_die_matches_every_site_it_replaced() {
        let chip = Sizing::Chip;
        let striped = |dies, planes, min_blocks| Sizing::Striped {
            dies,
            planes,
            min_blocks,
        };
        // (pages, mode, pages per block, sizing, blocks the old per-site
        // formula gave). Benchmark page budgets at 8 KiB: TPC-B 1120
        // (scale 1) and 1337 (scale 2), TPC-C 1436, TATP 159, LinkBench 363.
        let rows = [
            // Driver and nop_sweep, bare chip: floor.
            (1120, FlashMode::PSlc, 128, chip, 32),
            (1120, FlashMode::MlcFull, 128, chip, 20),
            (1120, FlashMode::OddMlc, 128, chip, 20),
            (1337, FlashMode::PSlc, 128, chip, 37),
            (1436, FlashMode::PSlc, 128, chip, 39),
            (159, FlashMode::PSlc, 128, chip, 11),
            (363, FlashMode::PSlc, 128, chip, 15),
            // Driver, striped controller: ceil, then whole planes. One
            // die rounds up to one block more than the chip.
            (1120, FlashMode::PSlc, 128, striped(1, 1, 0), 33),
            (1120, FlashMode::PSlc, 128, striped(4, 1, 0), 15),
            (1120, FlashMode::PSlc, 128, striped(4, 2, 0), 16),
            (1120, FlashMode::PSlc, 128, striped(8, 1, 0), 12),
            (1120, FlashMode::PSlc, 128, striped(8, 2, 0), 12),
            (159, FlashMode::PSlc, 128, striped(8, 1, 0), 9),
            (1436, FlashMode::PSlc, 128, striped(8, 4, 0), 12),
            // `run_threaded` sizes one die for its own stream windows:
            // the default (8 streams × 48 slots on 4×2), its unit test
            // (4 × 16 on 2×2) and the threaded-parity matrix (8 × 24 on
            // 1, 2 and 4 dies, 1 and 2 planes).
            (48, FlashMode::Slc, 32, striped(1, 1, 12), 12),
            (16, FlashMode::Slc, 32, striped(1, 1, 12), 12),
            (192, FlashMode::Slc, 32, striped(1, 1, 12), 17),
            (192, FlashMode::Slc, 32, striped(1, 2, 12), 18),
            (96, FlashMode::Slc, 32, striped(1, 1, 12), 13),
            (96, FlashMode::Slc, 32, striped(1, 2, 12), 14),
            (48, FlashMode::Slc, 32, striped(1, 2, 12), 12),
            // Fleet default (4×2 dies, SLC, 32-page blocks): the minimum
            // binds for the soak's 200 pages, not for 2000.
            (200, FlashMode::Slc, 32, striped(8, 1, 12), 12),
            (2000, FlashMode::Slc, 32, striped(8, 1, 12), 19),
            (2000, FlashMode::Slc, 32, striped(8, 2, 12), 20),
        ];
        for (pages, mode, ppb, sizing, want) in rows {
            assert_eq!(
                blocks_per_die(pages, mode, ppb, sizing),
                want,
                "{pages} pages, {mode:?}, {ppb} pages/block, {sizing:?}"
            );
        }
    }

    fn wal_pages(cfg: &DriverConfig) -> u64 {
        ipa()
            .run(WorkloadKind::TpcB, 1, cfg)
            .unwrap()
            .wal_device
            .expect("the engine logs")
            .host_writes
    }

    #[test]
    fn chip_honours_group_commit() {
        let cfg = DriverConfig {
            transactions: 200,
            warmup: 20,
            ..Default::default()
        };
        let grouped = wal_pages(&cfg);
        let per_commit = wal_pages(&cfg.clone().with_group_commit(1));
        assert!(
            per_commit > grouped,
            "flushing every commit must write more log pages: {per_commit} vs {grouped}"
        );
    }

    #[test]
    fn heat_on_a_chip_is_an_error() {
        let cfg = DriverConfig::quick().with_heat(DefaultPolicy::default());
        let bench = build(WorkloadKind::TpcB, 1, PAGE_SIZE);
        let chip = traditional();
        assert!(matches!(
            chip.engine(bench.as_ref(), &cfg),
            Err(StorageError::Unsupported(_))
        ));
        let striped = chip.maintained(Topology::single(), MaintMode::background(None));
        assert!(striped.engine(bench.as_ref(), &cfg).is_ok());
    }
}
