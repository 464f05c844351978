//! The two storage-engine workloads: TPC-B on the IPA write path and
//! TATP on the traditional read path, both over the same 4ch×2d
//! round-robin device with background GC and latency QoS, eight
//! closed-loop client streams interleaved on one OS thread.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ipa_controller::{ControllerConfig, ControllerStats, FlashController};
use ipa_core::NmScheme;
use ipa_flash::{DeviceConfig, FlashMode, FlashStats, Geometry};
use ipa_ftl::{DeviceStats, NativeFlashDevice, ShardedFtl, StripePolicy, WriteStrategy};
use ipa_maint::{MaintConfig, MaintStats, MaintainedFtl};
use ipa_storage::{EngineConfig, EngineStats, PoolStats, StorageEngine};
use ipa_workloads::tpcb::{BALANCE_OFF, INITIAL_BALANCE};
use ipa_workloads::util::get_i64;
use ipa_workloads::{Benchmark, Driver, TpcB, WorkloadKind};

use crate::spans::{SharedLog, TracedBench, TracedDevice};

const PAGE_SIZE: usize = 8 * 1024;
const CHANNELS: u32 = 4;
const DIES_PER_CHANNEL: u32 = 2;
const STREAMS: usize = 8;
/// Modelled client CPU per transaction; it gates when a stream can
/// submit again but is not device latency.
const CPU_NS_PER_TX: u64 = 30_000;
/// 32 frames × 8 KiB = 256 KiB of pool against a ~1.4 MB TPC-B account
/// table: dirty pages evict with a few changed bytes each.
const BUFFER_FRAMES: usize = 32;
const GROUP_COMMIT: u32 = 32;
/// Warm-up runs until background GC has erased this many blocks, so the
/// measured window never times an idle collector.
const WARMUP_GC_ERASES: u64 = 16;
/// A warm-up this long without those erases is a failed precondition.
const WARMUP_MAX_TX: u64 = 1_000_000;
/// Host-rate samples per measured window.
const CHUNKS: u64 = 50;

/// One engine workload's fixed configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineWorkload {
    pub name: &'static str,
    kind: WorkloadKind,
    scale: u32,
    strategy: WriteStrategy,
    scheme: NmScheme,
    mode: FlashMode,
    /// Measured transactions per requested second. The window is sized
    /// from `--seconds` rather than timed, so the work done — and every
    /// simulated metric — is a function of seed and seconds alone.
    tx_per_second: u64,
}

impl EngineWorkload {
    /// TPC-B scale 1, native IPA [2×4] on odd-MLC: the paper's Table 1
    /// configuration and its write path.
    pub fn tpcb_ipa() -> Self {
        EngineWorkload {
            name: "tpcb-ipa",
            kind: WorkloadKind::TpcB,
            scale: 1,
            strategy: WriteStrategy::IpaNative,
            scheme: NmScheme::new(2, 4),
            mode: FlashMode::OddMlc,
            tx_per_second: 10_000,
        }
    }

    /// TATP scale 4, traditional out-of-place writes on pSLC: the read
    /// path through the same layers, with no delta appends.
    pub fn tatp_read() -> Self {
        EngineWorkload {
            name: "tatp-read",
            kind: WorkloadKind::Tatp,
            scale: 4,
            strategy: WriteStrategy::Traditional,
            scheme: NmScheme::disabled(),
            mode: FlashMode::PSlc,
            tx_per_second: 25_000,
        }
    }

    /// Each workload's mechanism must be active in the measured window, or
    /// its numbers measure an idle path.
    pub fn preconditions(&self, window: &Window) -> Result<(), String> {
        let d = &window.device;
        let c = &window.controller;
        let mut missing = Vec::new();
        if self.kind == WorkloadKind::TpcB {
            if d.gc_erases == 0 {
                missing.push("GC erases in the window".to_string());
            }
            if d.in_place_appends == 0 {
                missing.push("in-place appends".to_string());
            }
            if d.host_write_deltas == 0 {
                missing.push("write_delta calls".to_string());
            }
        } else {
            let io = d.host_reads + d.total_host_writes();
            let read_share = d.host_reads as f64 / io.max(1) as f64;
            if read_share < 0.8 {
                missing.push(format!("reads ≥ 80% of device I/O (got {read_share:.3})"));
            }
            if c.reads_promoted == 0 {
                missing.push("promoted reads".to_string());
            }
            if c.erase_suspends == 0 {
                missing.push("erase suspends".to_string());
            }
        }
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!("{}: no {}", self.name, missing.join(", no ")))
        }
    }

    /// End-of-run correctness: no data loss, and for TPC-B the balance
    /// equation on bytes read back through the engine.
    pub fn check(&self, session: &mut Session, failures: &mut Vec<String>) {
        let lost = session.engine.stats().device.uncorrectable_reads;
        if lost != 0 {
            failures.push(format!("{lost} uncorrectable reads"));
        }
        if self.kind != WorkloadKind::TpcB {
            return;
        }
        let mut sums = Vec::new();
        for table in ["account", "teller", "branch"] {
            let id = session.engine.table(table).expect("TPC-B table");
            let mut sum: i128 = 0;
            let mut changed = 0u64;
            session
                .engine
                .scan(id, |_, row| {
                    let delta = get_i64(row, BALANCE_OFF) - INITIAL_BALANCE;
                    sum += delta as i128;
                    changed += (delta != 0) as u64;
                })
                .expect("scan reads back");
            if changed == 0 {
                failures.push(format!("no {table} balance changed"));
            }
            sums.push(sum);
        }
        if sums[0] != sums[1] || sums[1] != sums[2] {
            failures.push(format!(
                "balance equation broken: Σaccount Δ {} / Σteller Δ {} / Σbranch Δ {}",
                sums[0], sums[1], sums[2]
            ));
        }
    }

    pub fn window_tx(&self, seconds: u64) -> u64 {
        (self.tx_per_second * seconds).max(CHUNKS)
    }

    fn benchmark(&self, window_tx: u64) -> Box<dyn Benchmark> {
        match self.kind {
            // History gets one row per transaction; budget for warm-up
            // plus the window so the insert mix never changes mid-run.
            WorkloadKind::TpcB => Box::new(TpcB::with_headroom(
                self.scale,
                PAGE_SIZE,
                2 * window_tx + 100_000,
            )),
            kind => ipa_workloads::build(kind, self.scale, PAGE_SIZE),
        }
    }

    /// Build the engine, load it and warm it up. With `log` the
    /// benchmark and the device are wrapped in the span decorators (not
    /// armed yet).
    pub fn setup(
        &self,
        seed: u64,
        window_tx: u64,
        log: Option<SharedLog>,
    ) -> Result<Session, String> {
        let t0 = Instant::now();
        let mut bench = self.benchmark(window_tx);
        if let Some(log) = &log {
            bench = Box::new(TracedBench::new(bench, log.clone()));
        }
        let mut engine = self.build_engine(bench.as_ref(), log);
        let mut rng = StdRng::seed_from_u64(seed);
        bench.load(&mut engine, &mut rng).expect("load succeeds");
        engine.flush_all().expect("flush after load");
        // Stream 0 continues the load RNG; the others get derived seeds.
        let mut rngs = vec![rng];
        for s in 1..STREAMS as u64 {
            rngs.push(StdRng::seed_from_u64(
                seed ^ s.wrapping_mul(0xA24B_AED4_963E_E407),
            ));
        }
        let now = engine.pool().device().submission_clock_ns();
        let mut session = Session {
            bench,
            engine,
            rngs,
            clocks: vec![now; STREAMS],
            warmup_tx: 0,
            failed: 0,
            setup_s: 0.0,
        };
        while session.engine.stats().device.gc_erases < WARMUP_GC_ERASES {
            if session.warmup_tx == WARMUP_MAX_TX {
                return Err(format!(
                    "{}: GC erased fewer than {WARMUP_GC_ERASES} blocks in {WARMUP_MAX_TX} warm-up tx",
                    self.name
                ));
            }
            session.step();
            session.warmup_tx += 1;
        }
        session.setup_s = t0.elapsed().as_secs_f64();
        Ok(session)
    }

    /// The device stack of `Driver::make_maintained_engine` with
    /// background GC and QoS: capacity from the table budget plus ~40 %
    /// headroom, spread over the dies.
    fn build_engine(&self, bench: &dyn Benchmark, log: Option<SharedLog>) -> StorageEngine {
        let tables = bench.tables();
        let pages_needed: u64 = tables.iter().map(|t| t.pages).sum();
        let ppb = 128u32;
        let usable_ppb = self.mode.usable_pages_per_block(ppb) as u64;
        let dies = (CHANNELS * DIES_PER_CHANNEL) as u64;
        let blocks_per_die = (pages_needed * 14 / 10).div_ceil(usable_ppb * dies) as u32 + 8;
        let chip = DeviceConfig::new(
            Geometry::new(blocks_per_die, ppb, PAGE_SIZE, 128),
            self.mode,
        );
        let controller = ControllerConfig::new(CHANNELS, DIES_PER_CHANNEL, chip).with_qos();
        let config = if self.strategy.needs_layout() {
            EngineConfig::default().with_strategy(self.strategy, self.scheme)
        } else {
            EngineConfig::default()
        }
        .with_buffer_frames(BUFFER_FRAMES)
        .with_group_commit(GROUP_COMMIT);
        StorageEngine::build_with_device(PAGE_SIZE, config, &tables, move |regions, ftl| {
            let striped = ShardedFtl::with_regions(
                controller,
                ftl.with_background_gc(),
                StripePolicy::RoundRobin,
                regions,
            );
            let device: Box<dyn NativeFlashDevice> =
                Box::new(MaintainedFtl::new(striped, MaintConfig::default()));
            match log {
                Some(log) => Box::new(TracedDevice::new(device, log)),
                None => device,
            }
        })
        .expect("engine builds")
    }
}

/// A loaded, warmed-up engine and its client streams.
pub struct Session {
    bench: Box<dyn Benchmark>,
    pub engine: StorageEngine,
    rngs: Vec<StdRng>,
    /// Each stream's logical clock (simulated ns): device completion of
    /// its last transaction plus its CPU time.
    clocks: Vec<u64>,
    pub warmup_tx: u64,
    /// Transactions that returned an error.
    failed: u64,
    /// Wall seconds of build + load + warm-up.
    pub setup_s: f64,
}

/// Everything the measured window produced.
pub struct Window {
    pub tx: u64,
    pub failed: u64,
    /// Wall nanoseconds per chunk of `tx / CHUNKS` transactions.
    pub chunk_wall_ns: Vec<u64>,
    pub chunk_tx: u64,
    /// Wall of the whole window, on the span clock when traced.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Simulated time of the window.
    pub sim_ns: u64,
    /// Per-transaction simulated device latency, one sample per tx.
    pub tx_latency_ns: Vec<u64>,
    /// Device-side latency of every host read in the window.
    pub read_latency_ns: Vec<u64>,
    pub device: DeviceStats,
    pub wal_device: DeviceStats,
    pub flash: FlashStats,
    pub pool: PoolStats,
    pub controller: ControllerStats,
    pub maint: MaintStats,
    pub wal_busy_ns: u64,
}

impl Session {
    /// Run one transaction from the stream whose clock is earliest, at
    /// that stream's clock; returns its simulated device latency.
    fn step(&mut self) -> u64 {
        let s = (0..STREAMS)
            .min_by_key(|&i| self.clocks[i])
            .expect("streams > 0");
        self.engine
            .pool_mut()
            .device_mut()
            .set_submission_clock_ns(self.clocks[s]);
        if self
            .bench
            .run_tx(&mut self.engine, &mut self.rngs[s])
            .is_err()
        {
            self.failed += 1;
        }
        let done = self.engine.pool().device().submission_clock_ns();
        let dt = done - self.clocks[s];
        self.clocks[s] = done + CPU_NS_PER_TX;
        dt
    }

    pub fn controller(&self) -> std::sync::Arc<FlashController> {
        Driver::controller_of(&self.engine).expect("controller-backed device")
    }

    /// Run the measured window of `tx` transactions. `clock` supplies
    /// the wall clock the window's bounds are read from (the span log's
    /// when traced).
    pub fn measure(&mut self, tx: u64, clock: &dyn Fn() -> u64) -> Window {
        self.engine.flush_all().expect("flush before window");
        let ctrl = self.controller();
        let start_clock = self
            .engine
            .pool()
            .device()
            .submission_clock_ns()
            .max(*self.clocks.iter().max().expect("streams > 0"));
        self.clocks.iter_mut().for_each(|c| *c = start_clock);
        let before: EngineStats = self.engine.stats();
        let ctrl_before = ctrl.stats();
        let maint_before = self.maint_stats();
        let read_cursor = ctrl.read_latency_count();
        let failed_before = self.failed;

        let chunk_tx = tx / CHUNKS;
        let mut chunk_wall_ns = Vec::with_capacity(CHUNKS as usize);
        let mut tx_latency_ns = Vec::with_capacity(tx as usize);
        let start_ns = clock();
        let mut chunk_start = start_ns;
        for i in 0..tx {
            tx_latency_ns.push(self.step());
            if (i + 1) % chunk_tx == 0 && chunk_wall_ns.len() < CHUNKS as usize {
                let now = clock();
                chunk_wall_ns.push(now - chunk_start);
                chunk_start = now;
            }
        }
        let end_ns = clock();
        self.engine.flush_all().expect("flush after window");
        let after = self.engine.stats();
        let stream_span = self.clocks.iter().max().expect("streams > 0") - start_clock;
        let data_busy_ns = after.elapsed_ns - before.elapsed_ns;

        Window {
            tx,
            failed: self.failed - failed_before,
            chunk_wall_ns,
            chunk_tx,
            start_ns,
            end_ns,
            sim_ns: data_busy_ns.max(stream_span),
            tx_latency_ns,
            read_latency_ns: ctrl.read_latencies()[read_cursor..].to_vec(),
            device: after.device.delta_since(&before.device),
            wal_device: after
                .wal_device
                .zip(before.wal_device)
                .map(|(a, b)| a.delta_since(&b))
                .unwrap_or_default(),
            flash: after.flash.delta_since(&before.flash),
            pool: pool_delta(&after.pool, &before.pool),
            controller: ctrl.stats().delta_since(&ctrl_before),
            maint: maint_delta(&self.maint_stats(), &maint_before),
            wal_busy_ns: after.wal_elapsed_ns - before.wal_elapsed_ns,
        }
    }

    fn maint_stats(&self) -> MaintStats {
        self.engine
            .device_as::<MaintainedFtl>()
            .map(MaintainedFtl::maint_stats)
            .expect("maintained device")
    }
}

fn pool_delta(a: &PoolStats, b: &PoolStats) -> PoolStats {
    PoolStats {
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        evictions: a.evictions - b.evictions,
        evict_in_place: a.evict_in_place - b.evict_in_place,
        evict_out_of_place: a.evict_out_of_place - b.evict_out_of_place,
        evict_clean: a.evict_clean - b.evict_clean,
        in_place_fallbacks: a.in_place_fallbacks - b.in_place_fallbacks,
        readahead_issued: a.readahead_issued - b.readahead_issued,
        readahead_hits: a.readahead_hits - b.readahead_hits,
        net_bytes: a.net_bytes,
    }
}

fn maint_delta(a: &MaintStats, b: &MaintStats) -> MaintStats {
    MaintStats {
        polls: a.polls - b.polls,
        steps: a.steps - b.steps,
        migrations: a.migrations - b.migrations,
        erases: a.erases - b.erases,
        deferred_busy: a.deferred_busy - b.deferred_busy,
        max_wear_spread: a.max_wear_spread,
        erase_suspends_seen: a.erase_suspends_seen - b.erase_suspends_seen,
        range_migrations: a.range_migrations - b.range_migrations,
        destages: a.destages - b.destages,
    }
}
