//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <tpcb-ipa|tatp-read|churn-2t> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets up several times, runs one measured window
//! and prints the end-to-end metrics. With `--trace 1` it runs the window
//! once untraced and once with the span decorators installed, checks the
//! two agree on every simulated metric, and prints the per-layer metrics.
//! The last line of standard output is the JSON result; a failed
//! precondition or correctness check exits non-zero.

mod churn;
mod engine;
mod report;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ipa_ftl::OobCodec;

use engine::{EngineWorkload, Session, Window};
use report::{result_line, Report};
use spans::{layer_times, LayerTimes, Op, SpanLog};
use stats::{median, supported_percentile, usage};

pub const WORKLOADS: [&str; 3] = ["tpcb-ipa", "tatp-read", "churn-2t"];

/// Metrics a user of the system sees, with their units; every workload
/// reports all of them, and none of them is ever 0.
pub const END_TO_END: [(&str, &str); 6] = [
    ("host_ops_per_s", "ops/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_tps", "tx/s"),
    ("gc_erases_per_host_write", "ratio"),
    ("flash_bytes_written_per_tx", "B"),
];

/// Metrics of single layers, from the traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("trace_overhead_frac", "ratio"),
    ("workloads.self_ns_per_tx", "ns"),
    ("storage.self_ns_per_tx", "ns"),
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.dirty_evictions_per_tx", "count"),
    ("storage.evict_in_place_ratio", "ratio"),
    ("storage.in_place_fallbacks_per_tx", "count"),
    ("storage.wal_pages_per_tx", "count"),
    ("storage.wal_busy_ns_per_tx", "ns"),
    ("storage.tx_p50_sim_us", "us"),
    ("storage.tx_p999_sim_us", "us"),
    ("ftl.self_ns_per_tx", "ns"),
    ("ftl.read.calls_per_tx", "count"),
    ("ftl.read.ns", "ns"),
    ("ftl.write.calls_per_tx", "count"),
    ("ftl.write.ns", "ns"),
    ("ftl.write_delta.calls_per_tx", "count"),
    ("ftl.write_delta.ns", "ns"),
    ("ftl.submit.calls_per_tx", "count"),
    ("ftl.submit.ns", "ns"),
    ("ftl.poll.calls_per_tx", "count"),
    ("ftl.poll.ns", "ns"),
    ("ftl.sync.calls_per_tx", "count"),
    ("ftl.sync.ns", "ns"),
    ("ftl.other.calls_per_tx", "count"),
    ("ftl.other.ns", "ns"),
    ("ftl.in_place_appends_per_tx", "count"),
    ("ftl.out_of_place_writes_per_tx", "count"),
    ("ftl.page_invalidations_per_tx", "count"),
    ("ftl.ecc_corrected_bits", "count"),
    ("ftl.ipa_fraction", "ratio"),
    ("ftl.gc_migrations_per_host_write", "ratio"),
    ("maint.steps_per_ktx", "count"),
    ("maint.erases_per_ktx", "count"),
    ("maint.migrations_per_ktx", "count"),
    ("maint.deferred_busy_per_ktx", "count"),
    ("maint.erase_suspends_seen", "count"),
    ("controller.queue_wait_ns_per_cmd", "ns"),
    ("controller.die_util_max", "ratio"),
    ("controller.chan_util_max", "ratio"),
    ("controller.reads_promoted_per_kread", "count"),
    ("controller.erase_suspends", "count"),
    ("controller.read_p50_sim_us", "us"),
    ("controller.read_p999_sim_us", "us"),
    ("controller.cpu_util", "ratio"),
    ("controller.vol_csw_per_kop", "count"),
    ("flash.reads_per_tx", "count"),
    ("flash.programs_per_tx", "count"),
    ("flash.reprograms_per_tx", "count"),
    ("flash.erases_per_ktx", "count"),
    ("flash.busy_ns_per_tx", "ns"),
    ("flash.ecc_encode_ns_per_page", "ns"),
    ("flash.ecc_verify_ns_per_page", "ns"),
    ("flash.page_set_bit_frac", "ratio"),
    ("flash.ecc_pages_sampled", "count"),
    ("core.delta_bytes_per_write_delta", "B"),
    ("failed_frac", "ratio"),
];

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace,
    })
}

/// What a workload run hands back for printing.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    /// Correctness failures (the run still prints, then exits 1).
    failures: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "churn-2t" => run_churn(&args),
        name => {
            let w = match name {
                "tpcb-ipa" => EngineWorkload::tpcb_ipa(),
                _ => EngineWorkload::tatp_read(),
            };
            if args.trace {
                run_engine_traced(&w, &args)
            } else {
                run_engine(&w, &args)
            }
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(precondition) => {
            eprintln!("perfbench: precondition failed: {precondition}");
            return ExitCode::from(3);
        }
    };
    let keep: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut report = outcome.report;
    report.add(
        "failed_frac",
        outcome.failed as f64 / outcome.attempted as f64,
        "ratio",
        outcome.attempted,
    );
    print!(
        "{}",
        report.table(&format!(
            "{} seed={} seconds={} trace={}",
            args.workload, args.seed, args.seconds, args.trace as u8
        ))
    );
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    println!(
        "{}",
        result_line(
            outcome.failures.is_empty(),
            outcome.attempted,
            outcome.failed,
            &report.json_metrics(keep)
        )
    );
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn peak_rss_mb() -> f64 {
    usage().max_rss_bytes as f64 / (1024.0 * 1024.0)
}

fn per_s(count: u64, ns: u64) -> f64 {
    count as f64 / (ns as f64 / 1e9)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

// ---------------------------------------------------------------- engine

fn run_engine(w: &EngineWorkload, args: &Args) -> Result<Outcome, String> {
    let window_tx = w.window_tx(args.seconds);
    let mut setup_s = Vec::new();
    let mut warmups = Vec::new();
    let mut session: Option<Session> = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let s = w.setup(args.seed, window_tx, None)?;
        setup_s.push(s.setup_s);
        warmups.push(s.warmup_tx);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");
    let origin = Instant::now();
    let clock = || origin.elapsed().as_nanos() as u64;
    let window = session.measure(window_tx, &clock);

    let mut failures = Vec::new();
    if warmups.iter().any(|&n| n != warmups[0]) {
        failures.push(format!("set-ups warmed up differently: {warmups:?}"));
    }
    w.preconditions(&window)?;
    w.check(&mut session, &mut failures);

    let mut report = Report::default();
    report.add(
        "host_ops_per_s",
        host_rate(&window),
        "ops/s",
        window.chunk_wall_ns.len() as u64,
    );
    report.add("setup_s", median(&setup_s), "s", setup_s.len() as u64);
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    sim_metrics(&window, &mut report)?;
    Ok(Outcome {
        report,
        attempted: window.tx,
        failed: window.failed,
        failures,
    })
}

/// Median over the window's chunks of committed tx per wall second.
fn host_rate(window: &Window) -> f64 {
    let rates: Vec<f64> = window
        .chunk_wall_ns
        .iter()
        .map(|&ns| per_s(window.chunk_tx, ns))
        .collect();
    median(&rates)
}

/// The simulated end-to-end metrics of a window (exact per seed), plus
/// the engine-only ones printed beside them.
fn sim_metrics(window: &Window, report: &mut Report) -> Result<(), String> {
    let tx = window.tx;
    let d = &window.device;
    report.add("sim_tps", per_s(tx, window.sim_ns), "tx/s", tx);
    report.add(
        "gc_erases_per_host_write",
        d.erases_per_host_write(),
        "ratio",
        d.total_host_writes(),
    );
    report.add(
        "ftl.gc_migrations_per_host_write",
        d.migrations_per_host_write(),
        "ratio",
        d.total_host_writes(),
    );
    report.add(
        "flash_bytes_written_per_tx",
        window.flash.bytes_written as f64 / tx as f64,
        "B",
        tx,
    );
    let mut lat = window.tx_latency_ns.clone();
    lat.sort_unstable();
    let mut reads = window.read_latency_ns.clone();
    reads.sort_unstable();
    for (name, samples, num, den) in [
        ("storage.tx_p50_sim_us", &lat, 1, 2),
        ("storage.tx_p999_sim_us", &lat, 999, 1000),
        ("controller.read_p50_sim_us", &reads, 1, 2),
        ("controller.read_p999_sim_us", &reads, 999, 1000),
    ] {
        let p = supported_percentile(samples, num, den)?;
        report.add(name, p.value as f64 / 1e3, "us", p.samples as u64);
    }
    report.add(
        "ftl.ipa_fraction",
        d.in_place_fraction(),
        "ratio",
        d.in_place_appends + d.out_of_place_writes,
    );
    Ok(())
}

fn run_engine_traced(w: &EngineWorkload, args: &Args) -> Result<Outcome, String> {
    let window_tx = w.window_tx(args.seconds);
    let mut failures = Vec::new();

    let untraced = {
        let mut session = w.setup(args.seed, window_tx, None)?;
        let origin = Instant::now();
        let clock = || origin.elapsed().as_nanos() as u64;
        session.measure(window_tx, &clock)
    };

    let log = SpanLog::shared();
    let mut session = w.setup(args.seed, window_tx, Some(log.clone()))?;
    log.borrow_mut().arm(true);
    let usage_before = usage();
    let clock = || log.borrow().now();
    let window = session.measure(window_tx, &clock);
    let usage_after = usage();
    log.borrow_mut().arm(false);
    w.preconditions(&window)?;
    w.check(&mut session, &mut failures);

    let mut sim_u = Report::default();
    let mut sim_t = Report::default();
    sim_metrics(&untraced, &mut sim_u)?;
    sim_metrics(&window, &mut sim_t)?;
    if sim_u.metrics != sim_t.metrics || untraced.device != window.device {
        failures.push("traced run's simulated metrics differ from the untraced run's".into());
    }

    let log = log.borrow();
    let lt = layer_times(log.spans(), window.start_ns, window.end_ns);
    if lt.workloads_self_ns + lt.storage_self_ns + lt.ftl_self_ns != lt.window_ns
        || lt.txs != window.tx
    {
        failures.push(format!("layer self times do not add up: {lt:?}"));
    }
    let spans_path = spans_path(w.name);
    if let Err(e) = log.write_tsv(&spans_path) {
        failures.push(format!("writing {}: {e}", spans_path.display()));
    } else {
        println!(
            "spans: {} ({} spans)",
            spans_path.display(),
            log.spans().len()
        );
    }

    let mut report = sim_t;
    report.add(
        "trace_overhead_frac",
        host_rate(&untraced) / host_rate(&window) - 1.0,
        "ratio",
        2 * window.chunk_wall_ns.len() as u64,
    );
    layer_metrics(&window, &lt, &mut report);
    let cpu_s = usage_after.cpu_s - usage_before.cpu_s;
    let vol_csw = usage_after.vol_csw - usage_before.vol_csw;
    report.add(
        "controller.cpu_util",
        cpu_s / (lt.window_ns as f64 / 1e9),
        "ratio",
        1,
    );
    report.add(
        "controller.vol_csw_per_kop",
        vol_csw as f64 * 1e3 / window.tx as f64,
        "count",
        window.tx,
    );
    report.add("workloads.load_s", log.load_ns as f64 / 1e9, "s", 1);
    ecc_metrics(&session, &log, &mut report);
    report.add(
        "core.delta_bytes_per_write_delta",
        ratio(log.delta_bytes, log.deltas),
        "B",
        log.deltas,
    );
    Ok(Outcome {
        report,
        attempted: window.tx,
        failed: window.failed,
        failures,
    })
}

/// Spans go to `.bench_out/spans-<workload>.tsv` under the working
/// directory; the next traced run of the workload overwrites them.
fn spans_path(workload: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("spans-{workload}.tsv"))
}

fn layer_metrics(window: &Window, lt: &LayerTimes, report: &mut Report) {
    let tx = window.tx;
    let per_tx = |v: u64| v as f64 / tx as f64;
    let per_ktx = |v: u64| v as f64 * 1e3 / tx as f64;
    let p = &window.pool;
    let d = &window.device;
    let c = &window.controller;
    let m = &window.maint;
    let f = &window.flash;
    report.add(
        "workloads.self_ns_per_tx",
        per_tx(lt.workloads_self_ns),
        "ns",
        tx,
    );
    report.add(
        "storage.self_ns_per_tx",
        per_tx(lt.storage_self_ns),
        "ns",
        tx,
    );
    report.add(
        "storage.pool_hit_ratio",
        ratio(p.hits, p.hits + p.misses),
        "ratio",
        p.hits + p.misses,
    );
    let dirty = p.evict_in_place + p.evict_out_of_place;
    report.add("storage.dirty_evictions_per_tx", per_tx(dirty), "count", tx);
    report.add(
        "storage.evict_in_place_ratio",
        ratio(p.evict_in_place, dirty),
        "ratio",
        dirty,
    );
    report.add(
        "storage.in_place_fallbacks_per_tx",
        per_tx(p.in_place_fallbacks),
        "count",
        tx,
    );
    report.add(
        "storage.wal_pages_per_tx",
        per_tx(window.wal_device.host_writes),
        "count",
        tx,
    );
    report.add(
        "storage.wal_busy_ns_per_tx",
        per_tx(window.wal_busy_ns),
        "ns",
        tx,
    );
    report.add("ftl.self_ns_per_tx", per_tx(lt.ftl_self_ns), "ns", tx);
    for op in Op::DEVICE {
        let i = op as usize;
        report.add(
            format!("ftl.{}.calls_per_tx", op.name()),
            per_tx(lt.calls[i]),
            "count",
            lt.calls[i],
        );
        report.add(
            format!("ftl.{}.ns", op.name()),
            ratio(lt.call_ns[i], lt.calls[i]),
            "ns",
            lt.calls[i],
        );
    }
    report.add(
        "ftl.in_place_appends_per_tx",
        per_tx(d.in_place_appends),
        "count",
        tx,
    );
    report.add(
        "ftl.out_of_place_writes_per_tx",
        per_tx(d.out_of_place_writes),
        "count",
        tx,
    );
    report.add(
        "ftl.page_invalidations_per_tx",
        per_tx(d.page_invalidations),
        "count",
        tx,
    );
    report.add(
        "ftl.ecc_corrected_bits",
        d.ecc_corrected_bits as f64,
        "count",
        d.host_reads,
    );
    report.add("maint.steps_per_ktx", per_ktx(m.steps), "count", tx);
    report.add("maint.erases_per_ktx", per_ktx(m.erases), "count", tx);
    report.add(
        "maint.migrations_per_ktx",
        per_ktx(m.migrations),
        "count",
        tx,
    );
    report.add(
        "maint.deferred_busy_per_ktx",
        per_ktx(m.deferred_busy),
        "count",
        tx,
    );
    report.add(
        "maint.erase_suspends_seen",
        m.erase_suspends_seen as f64,
        "count",
        tx,
    );
    report.add(
        "controller.queue_wait_ns_per_cmd",
        ratio(c.queue_wait_ns, c.commands),
        "ns",
        c.commands,
    );
    report.add(
        "controller.die_util_max",
        c.die_util_ppm_max as f64 / 1e6,
        "ratio",
        1,
    );
    report.add(
        "controller.chan_util_max",
        c.chan_util_ppm_max as f64 / 1e6,
        "ratio",
        1,
    );
    report.add(
        "controller.reads_promoted_per_kread",
        ratio(c.reads_promoted * 1000, c.reads),
        "count",
        c.reads,
    );
    report.add(
        "controller.erase_suspends",
        c.erase_suspends as f64,
        "count",
        c.erases,
    );
    report.add("flash.reads_per_tx", per_tx(f.page_reads), "count", tx);
    report.add(
        "flash.programs_per_tx",
        per_tx(f.page_programs),
        "count",
        tx,
    );
    report.add(
        "flash.reprograms_per_tx",
        per_tx(f.page_reprograms),
        "count",
        tx,
    );
    report.add("flash.erases_per_ktx", per_ktx(f.block_erases), "count", tx);
    report.add("flash.busy_ns_per_tx", per_tx(f.busy_ns), "ns", tx);
}

/// Host cost of the OOB codec on page images the device shim saw:
/// encode on written pages, verify on pages read back.
fn ecc_metrics(session: &Session, log: &SpanLog, report: &mut Report) {
    const REPS: u32 = 8;
    let device = session.engine.pool().device();
    let page_size = device.page_size();
    let codec = |lba| OobCodec::new(page_size, 128, device.layout_for(lba));
    let mut encode = (0u64, 0u64);
    let mut verify = (0u64, 0u64);
    let mut ones = 0u64;
    let mut bits = 0u64;
    for sample in &log.pages {
        let codec = codec(sample.lba);
        ones += sample
            .data
            .iter()
            .map(|b| b.count_ones() as u64)
            .sum::<u64>();
        bits += sample.data.len() as u64 * 8;
        if sample.read {
            let oob = codec.encode_oob(&sample.data);
            let mut page = sample.data.clone();
            let t0 = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(codec.verify(std::hint::black_box(&mut page), &oob))
                    .expect("clean page verifies");
            }
            verify.0 += t0.elapsed().as_nanos() as u64;
            verify.1 += REPS as u64;
        } else {
            let t0 = Instant::now();
            for _ in 0..REPS {
                std::hint::black_box(codec.encode_oob(std::hint::black_box(&sample.data)));
            }
            encode.0 += t0.elapsed().as_nanos() as u64;
            encode.1 += REPS as u64;
        }
    }
    println!(
        "ecc on workload pages: encode {:.1} us/page, verify {:.1} us/page \
         (dense-data microbench: encode 50.6 us, verify 64.8 us)",
        ratio(encode.0, encode.1) / 1e3,
        ratio(verify.0, verify.1) / 1e3
    );
    report.add(
        "flash.ecc_encode_ns_per_page",
        ratio(encode.0, encode.1),
        "ns",
        encode.1 / REPS as u64,
    );
    report.add(
        "flash.ecc_verify_ns_per_page",
        ratio(verify.0, verify.1),
        "ns",
        verify.1 / REPS as u64,
    );
    report.add(
        "flash.page_set_bit_frac",
        ratio(ones, bits),
        "ratio",
        log.pages.len() as u64,
    );
    report.add(
        "flash.ecc_pages_sampled",
        log.pages.len() as f64,
        "count",
        1,
    );
}

// ----------------------------------------------------------------- churn

fn run_churn(args: &Args) -> Result<Outcome, String> {
    let cfg = churn::config(args.seed);
    let mut failures = Vec::new();
    let reference = churn::reference(&cfg, &mut failures);
    let n = churn::runs(args.seconds);
    let runs: Vec<churn::Run> = (0..n)
        .map(|_| churn::run(&cfg, &reference, &mut failures))
        .collect();
    let cpu_s: f64 = runs.iter().map(|r| r.cpu_s).sum();
    let wall_s: f64 = runs.iter().map(|r| r.result.wall_ns as f64 / 1e9).sum();
    if cpu_s <= wall_s {
        return Err(format!(
            "churn-2t: {cpu_s:.3} CPU-s over {wall_s:.3} wall-s — the second thread never ran"
        ));
    }
    let attempted: u64 = runs.iter().map(|r| r.result.ops).sum();
    let rates: Vec<f64> = runs.iter().map(churn::Run::ops_per_s).collect();
    let r = &reference.result;
    let d = &r.device;
    let page = cfg.page_size as u64;
    let mut report = Report::default();
    report.add(
        "host_ops_per_s",
        median(&rates),
        "ops/s",
        rates.len() as u64,
    );
    report.add(
        "setup_s",
        median(&reference.wall_s),
        "s",
        reference.wall_s.len() as u64,
    );
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.add("sim_tps", per_s(r.ops, r.sim_ns), "tx/s", r.ops);
    report.add(
        "gc_erases_per_host_write",
        d.erases_per_host_write(),
        "ratio",
        d.total_host_writes(),
    );
    report.add(
        "ftl.gc_migrations_per_host_write",
        d.migrations_per_host_write(),
        "ratio",
        d.total_host_writes(),
    );
    report.add(
        "flash_bytes_written_per_tx",
        ((d.out_of_place_writes + d.gc_page_migrations) * page) as f64 / r.ops as f64,
        "B",
        r.ops,
    );
    if args.trace {
        churn_layers(&runs, &mut report);
    }
    Ok(Outcome {
        report,
        attempted,
        failed: 0,
        failures,
    })
}

/// Churn reaches no trait boundary the benchmark can wrap, so its
/// per-layer numbers are the device counters and process usage of the
/// threaded runs; the first half of the runs stands in for the untraced
/// pass, the second for the traced one.
fn churn_layers(runs: &[churn::Run], report: &mut Report) {
    let ops: u64 = runs.iter().map(|r| r.result.ops).sum();
    let per_tx = |v: u64| v as f64 / ops as f64;
    let sum = |f: &dyn Fn(&churn::Run) -> u64| runs.iter().map(f).sum::<u64>();
    let half = runs.len() / 2;
    let rate =
        |rs: &[churn::Run]| median(&rs.iter().map(churn::Run::ops_per_s).collect::<Vec<_>>());
    report.add(
        "trace_overhead_frac",
        rate(&runs[..half]) / rate(&runs[half..]) - 1.0,
        "ratio",
        runs.len() as u64,
    );
    report.add(
        "ftl.out_of_place_writes_per_tx",
        per_tx(sum(&|r| r.result.device.out_of_place_writes)),
        "count",
        ops,
    );
    report.add(
        "ftl.page_invalidations_per_tx",
        per_tx(sum(&|r| r.result.device.page_invalidations)),
        "count",
        ops,
    );
    report.add(
        "ftl.ecc_corrected_bits",
        sum(&|r| r.result.device.ecc_corrected_bits) as f64,
        "count",
        ops,
    );
    report.add(
        "controller.cpu_util",
        median(&runs.iter().map(churn::Run::cpu_util).collect::<Vec<_>>()),
        "ratio",
        runs.len() as u64,
    );
    report.add(
        "controller.vol_csw_per_kop",
        sum(&|r| r.vol_csw) as f64 * 1e3 / ops as f64,
        "count",
        ops,
    );
    // Layers churn does not run through report 0.
    for (name, unit) in PER_LAYER {
        if report.get(name).is_none() && name != "failed_frac" {
            report.add(name, 0.0, unit, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::valid_name;

    #[test]
    fn every_workload_and_metric_name_is_valid_and_unique() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|(n, _)| *n));
        names.extend(PER_LAYER.iter().map(|(n, _)| *n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
    }

    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let declared = |kind: &str| json.matches(kind).count();
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] is not declared"
            );
        }
        assert_eq!(declared("\"bound\""), END_TO_END.len());
        assert_eq!(declared("\"better\""), END_TO_END.len() + PER_LAYER.len());
    }
}
