//! `churn-2t`: `Driver::run_threaded` with two OS threads driving eight
//! deterministic streams on a shared 4ch×2d device — the only workload
//! where two threads hit the `Send + Sync` device core at once. It
//! bypasses the storage engine entirely.

use std::time::Instant;

use ipa_ftl::DeviceStats;
use ipa_workloads::{Driver, ThreadedConfig, ThreadedRunResult};

use crate::stats::{usage, Usage};

pub const THREADS: u32 = 2;
/// Ops per stream of one run; a measured window is several runs.
const OPS_PER_STREAM: u64 = 5_000;
/// Runs per requested second (the window is sized from `--seconds`).
const RUNS_PER_SECOND: u64 = 2;
/// Serial reference runs; their median wall is the set-up time.
const REFERENCE_RUNS: usize = 5;

pub fn config(seed: u64) -> ThreadedConfig {
    ThreadedConfig {
        seed,
        ops_per_stream: OPS_PER_STREAM,
        ..ThreadedConfig::default()
    }
}

pub fn runs(seconds: u64) -> u64 {
    (RUNS_PER_SECOND * seconds).max(3)
}

/// The single-thread runs every threaded run is checked against.
pub struct Reference {
    pub result: ThreadedRunResult,
    /// Wall seconds of each serial run, device build and digest included.
    pub wall_s: Vec<f64>,
}

/// Run the serial reference `REFERENCE_RUNS` times; all must agree.
pub fn reference(cfg: &ThreadedConfig, failures: &mut Vec<String>) -> Reference {
    let mut wall_s = Vec::new();
    let mut first: Option<ThreadedRunResult> = None;
    for _ in 0..REFERENCE_RUNS {
        let t0 = Instant::now();
        let r = Driver::run_threaded(&cfg.with_threads(1));
        wall_s.push(t0.elapsed().as_secs_f64());
        if let Some(f) = &first {
            if (f.logical_digest, f.sim_ns, f.device) != (r.logical_digest, r.sim_ns, r.device) {
                failures.push("serial reference runs disagree".into());
            }
        } else {
            first = Some(r);
        }
    }
    Reference {
        result: first.expect("at least one reference run"),
        wall_s,
    }
}

/// One threaded run and the process usage it cost.
pub struct Run {
    pub result: ThreadedRunResult,
    pub cpu_s: f64,
    pub vol_csw: u64,
}

impl Run {
    pub fn ops_per_s(&self) -> f64 {
        self.result.wall_ops_per_sec()
    }

    /// Process CPU seconds over wall × threads.
    pub fn cpu_util(&self) -> f64 {
        self.cpu_s / (self.result.wall_ns as f64 / 1e9 * self.result.threads as f64)
    }
}

/// Run the threaded churn and check it against the reference: the same
/// logical digest and host-op counters, two threads, and more CPU time
/// than wall time (one thread cannot accrue that).
pub fn run(cfg: &ThreadedConfig, reference: &Reference, failures: &mut Vec<String>) -> Run {
    let before: Usage = usage();
    let result = Driver::run_threaded(&cfg.with_threads(THREADS));
    let after = usage();
    let run = Run {
        cpu_s: after.cpu_s - before.cpu_s,
        vol_csw: after.vol_csw - before.vol_csw,
        result,
    };
    let want = &reference.result;
    if run.result.logical_digest != want.logical_digest {
        failures.push(format!(
            "threaded digest {:#x} != serial digest {:#x}",
            run.result.logical_digest, want.logical_digest
        ));
    }
    if host_counters(&run.result.device) != host_counters(&want.device) {
        failures.push("threaded host-op counters differ from the serial run".into());
    }
    if run.result.threads != THREADS {
        failures.push(format!("ran on {} threads", run.result.threads));
    }
    if run.result.device.uncorrectable_reads != 0 {
        failures.push("uncorrectable reads in the threaded run".into());
    }
    run
}

fn host_counters(d: &DeviceStats) -> (u64, u64, u64, u64) {
    (
        d.host_reads,
        d.host_writes,
        d.bytes_host_read,
        d.bytes_host_written,
    )
}
