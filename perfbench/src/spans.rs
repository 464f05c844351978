//! In-memory spans around the two trait boundaries the benchmark reaches
//! from its own files: a [`Benchmark`] decorator (workloads → storage) and
//! a [`NativeFlashDevice`] decorator (storage → ftl).
//!
//! A span is a name, a start, an end and the span that caused it: every
//! device call made inside `run_tx` names that transaction's span as its
//! parent. Spans are kept in memory while the measured window runs and
//! written out as TSV when the benchmark ends. The decorators only read
//! the clock and forward, so a traced run issues exactly the device calls
//! of an untraced one.

use std::cell::RefCell;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;

use ipa_controller::ControllerStats;
use ipa_core::PageLayout;
use ipa_flash::FlashStats;
use ipa_ftl::{
    BlockDevice, DeviceStats, IoCompletion, IoQueue, IoRequest, IoToken, Lba, NativeFlashDevice,
    Result as FtlResult,
};
use ipa_storage::{Result, StorageEngine, TableSpec};
use ipa_workloads::Benchmark;

/// What a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// One `Benchmark::run_tx` call.
    Tx,
    Read,
    Write,
    WriteDelta,
    Submit,
    Poll,
    Sync,
    /// Trim, forget, `is_mapped`, `layout_for`.
    Other,
}

impl Op {
    /// The device-call kinds, in report order.
    pub const DEVICE: [Op; 7] = [
        Op::Read,
        Op::Write,
        Op::WriteDelta,
        Op::Submit,
        Op::Poll,
        Op::Sync,
        Op::Other,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Tx => "tx",
            Op::Read => "read",
            Op::Write => "write",
            Op::WriteDelta => "write_delta",
            Op::Submit => "submit",
            Op::Poll => "poll",
            Op::Sync => "sync",
            Op::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Parent index of a span no other span caused.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the log, or [`NO_PARENT`].
    pub parent: u32,
}

/// A page image that crossed the device boundary, kept for the ECC
/// cost measurement.
pub struct PageSample {
    pub lba: Lba,
    pub data: Vec<u8>,
    /// Read back from the device (verify path) rather than written.
    pub read: bool,
}

/// Every `PAGE_SAMPLE_EVERY`-th page image is kept, at most
/// `PAGE_SAMPLE_CAP` of them.
const PAGE_SAMPLE_EVERY: u64 = 16;
const PAGE_SAMPLE_CAP: usize = 512;

/// Spans and boundary counters of one traced run.
pub struct SpanLog {
    origin: Instant,
    armed: bool,
    spans: Vec<Span>,
    open_tx: u32,
    /// Wall time of `Benchmark::load`.
    pub load_ns: u64,
    /// Delta bytes handed to the device by `write_delta`, `WriteDelta`
    /// and `WriteDeltaV` while armed.
    pub delta_bytes: u64,
    pub deltas: u64,
    pages_seen: u64,
    pub pages: Vec<PageSample>,
}

pub type SharedLog = Rc<RefCell<SpanLog>>;

impl SpanLog {
    pub fn shared() -> SharedLog {
        Rc::new(RefCell::new(SpanLog {
            origin: Instant::now(),
            armed: false,
            spans: Vec::new(),
            open_tx: NO_PARENT,
            load_ns: 0,
            delta_bytes: 0,
            deltas: 0,
            pages_seen: 0,
            pages: Vec::new(),
        }))
    }

    /// Nanoseconds since the log was created: the clock every span and
    /// the measured window share.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start or stop recording (spans are kept only for the measured
    /// window).
    pub fn arm(&mut self, armed: bool) {
        self.armed = armed;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn record(&mut self, op: Op, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            op,
            start_ns,
            end_ns,
            parent: self.open_tx,
        });
    }

    fn note_delta(&mut self, bytes: usize) {
        self.delta_bytes += bytes as u64;
        self.deltas += 1;
    }

    fn note_page(&mut self, lba: Lba, data: &[u8], read: bool) {
        self.pages_seen += 1;
        if self.pages_seen.is_multiple_of(PAGE_SAMPLE_EVERY) && self.pages.len() < PAGE_SAMPLE_CAP {
            self.pages.push(PageSample {
                lba,
                data: data.to_vec(),
                read,
            });
        }
    }

    /// Write every span as `id name start_ns end_ns parent` TSV.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}",
                s.op.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Host time of the measured window split by layer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LayerTimes {
    pub window_ns: u64,
    pub txs: u64,
    /// Window wall outside `run_tx` and outside device calls.
    pub workloads_self_ns: u64,
    /// `run_tx` wall minus the device calls it made.
    pub storage_self_ns: u64,
    /// Wall inside device calls (ftl and everything below it).
    pub ftl_self_ns: u64,
    /// Calls and total wall per device-call kind, indexed by `Op`.
    pub calls: [u64; 8],
    pub call_ns: [u64; 8],
}

/// Split the window `[start_ns, end_ns]` by layer. Device spans outside
/// any transaction (the stream loop positioning client clocks) count as
/// ftl time, so the three self times sum to the window exactly.
pub fn layer_times(spans: &[Span], start_ns: u64, end_ns: u64) -> LayerTimes {
    let mut t = LayerTimes {
        window_ns: end_ns - start_ns,
        ..LayerTimes::default()
    };
    let mut tx_ns = 0u64;
    let mut device_in_tx_ns = 0u64;
    for s in spans
        .iter()
        .filter(|s| s.start_ns >= start_ns && s.end_ns <= end_ns)
    {
        let d = s.end_ns - s.start_ns;
        t.calls[s.op.index()] += 1;
        t.call_ns[s.op.index()] += d;
        if s.op == Op::Tx {
            tx_ns += d;
            t.txs += 1;
        } else {
            t.ftl_self_ns += d;
            if s.parent != NO_PARENT {
                device_in_tx_ns += d;
            }
        }
    }
    t.storage_self_ns = tx_ns - device_in_tx_ns;
    t.workloads_self_ns = t.window_ns - tx_ns - (t.ftl_self_ns - device_in_tx_ns);
    t
}

/// Times `load` and every `run_tx`; the open transaction becomes the
/// parent of the device spans it causes.
pub struct TracedBench {
    inner: Box<dyn Benchmark>,
    log: SharedLog,
}

impl TracedBench {
    pub fn new(inner: Box<dyn Benchmark>, log: SharedLog) -> Self {
        TracedBench { inner, log }
    }
}

impl Benchmark for TracedBench {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<TableSpec> {
        self.inner.tables()
    }

    fn load(&mut self, engine: &mut StorageEngine, rng: &mut StdRng) -> Result<()> {
        let t0 = Instant::now();
        let r = self.inner.load(engine, rng);
        self.log.borrow_mut().load_ns = t0.elapsed().as_nanos() as u64;
        r
    }

    fn run_tx(&mut self, engine: &mut StorageEngine, rng: &mut StdRng) -> Result<()> {
        if !self.log.borrow().armed {
            return self.inner.run_tx(engine, rng);
        }
        let id = {
            let mut log = self.log.borrow_mut();
            let now = log.now();
            log.record(Op::Tx, now, now);
            let id = (log.spans.len() - 1) as u32;
            log.open_tx = id;
            id
        };
        let r = self.inner.run_tx(engine, rng);
        let mut log = self.log.borrow_mut();
        log.spans[id as usize].end_ns = log.now();
        log.open_tx = NO_PARENT;
        r
    }

    fn set_key_skew(&mut self, theta: Option<f64>) {
        self.inner.set_key_skew(theta)
    }

    fn read_fraction(&self) -> f64 {
        self.inner.read_fraction()
    }
}

/// Times every call the engine and the stream loop make into the data
/// device; forwards everything, `as_any` included, so
/// `StorageEngine::device_as` and `Driver::controller_of` still reach the
/// wrapped device.
pub struct TracedDevice {
    inner: Box<dyn NativeFlashDevice>,
    log: SharedLog,
    /// Posted reads submitted while armed and not yet polled, so their
    /// completion data can be sampled.
    pending_reads: Vec<(IoToken, Vec<Lba>)>,
}

impl TracedDevice {
    pub fn new(inner: Box<dyn NativeFlashDevice>, log: SharedLog) -> Self {
        TracedDevice {
            inner,
            log,
            pending_reads: Vec::new(),
        }
    }

    fn timed<R>(&mut self, op: Op, f: impl FnOnce(&mut dyn NativeFlashDevice) -> R) -> R {
        if !self.log.borrow().armed {
            return f(self.inner.as_mut());
        }
        let t0 = self.log.borrow().now();
        let r = f(self.inner.as_mut());
        let mut log = self.log.borrow_mut();
        let t1 = log.now();
        log.record(op, t0, t1);
        r
    }

    fn timed_ref<R>(&self, op: Op, f: impl FnOnce(&dyn NativeFlashDevice) -> R) -> R {
        if !self.log.borrow().armed {
            return f(self.inner.as_ref());
        }
        let t0 = self.log.borrow().now();
        let r = f(self.inner.as_ref());
        let mut log = self.log.borrow_mut();
        let t1 = log.now();
        log.record(op, t0, t1);
        r
    }

    fn note_request(&self, req: &IoRequest) {
        let mut log = self.log.borrow_mut();
        if !log.armed {
            return;
        }
        match req {
            IoRequest::WriteV(pages) => {
                for (lba, data) in pages {
                    log.note_page(*lba, data, false);
                }
            }
            IoRequest::WriteDelta { delta, .. } => log.note_delta(delta.len()),
            IoRequest::WriteDeltaV(members) => {
                for (_, _, delta) in members {
                    log.note_delta(delta.len());
                }
            }
            _ => {}
        }
    }

    fn sample_read(&mut self, token: IoToken, c: &IoCompletion) {
        let Some(i) = self.pending_reads.iter().position(|(t, _)| *t == token) else {
            return;
        };
        let (_, lbas) = self.pending_reads.swap_remove(i);
        let mut log = self.log.borrow_mut();
        for (lba, data) in lbas.iter().zip(&c.data) {
            log.note_page(*lba, data, true);
        }
    }
}

impl BlockDevice for TracedDevice {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn capacity_pages(&self) -> u64 {
        self.inner.capacity_pages()
    }

    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> FtlResult<()> {
        let r = self.timed(Op::Read, |d| d.read(lba, buf));
        if r.is_ok() && self.log.borrow().armed {
            self.log.borrow_mut().note_page(lba, buf, true);
        }
        r
    }

    fn write(&mut self, lba: Lba, data: &[u8]) -> FtlResult<()> {
        if self.log.borrow().armed {
            self.log.borrow_mut().note_page(lba, data, false);
        }
        self.timed(Op::Write, |d| d.write(lba, data))
    }

    fn trim(&mut self, lba: Lba) -> FtlResult<()> {
        self.timed(Op::Other, |d| d.trim(lba))
    }

    fn is_mapped(&self, lba: Lba) -> bool {
        self.timed_ref(Op::Other, |d| d.is_mapped(lba))
    }

    fn layout_for(&self, lba: Lba) -> Option<PageLayout> {
        self.timed_ref(Op::Other, |d| d.layout_for(lba))
    }

    fn device_stats(&self) -> DeviceStats {
        self.inner.device_stats()
    }

    fn flash_stats(&self) -> FlashStats {
        self.inner.flash_stats()
    }

    fn elapsed_ns(&self) -> u64 {
        self.inner.elapsed_ns()
    }

    fn max_erase_count(&self) -> u32 {
        self.inner.max_erase_count()
    }

    fn raw_blocks(&self) -> u32 {
        self.inner.raw_blocks()
    }

    fn controller_stats(&self) -> Option<ControllerStats> {
        self.inner.controller_stats()
    }

    fn set_submission_clock_ns(&mut self, ns: u64) {
        self.inner.set_submission_clock_ns(ns)
    }

    fn submission_clock_ns(&self) -> u64 {
        self.inner.submission_clock_ns()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

impl IoQueue for TracedDevice {
    fn submit(&mut self, req: IoRequest) -> FtlResult<IoToken> {
        self.note_request(&req);
        let lbas = match &req {
            IoRequest::ReadV(l) | IoRequest::HighPriorityReadV(l) if self.log.borrow().armed => {
                Some(l.clone())
            }
            _ => None,
        };
        let token = self.timed(Op::Submit, |d| d.submit(req))?;
        if let Some(lbas) = lbas {
            self.pending_reads.push((token, lbas));
        }
        Ok(token)
    }

    fn poll(&mut self, token: IoToken) -> Option<IoCompletion> {
        let c = self.timed(Op::Poll, |d| d.poll(token));
        if let Some(c) = &c {
            self.sample_read(token, c);
        }
        c
    }

    fn poll_checked(&mut self, token: IoToken) -> FtlResult<IoCompletion> {
        let c = self.timed(Op::Poll, |d| d.poll_checked(token));
        if let Ok(c) = &c {
            self.sample_read(token, c);
        }
        c
    }

    fn sync(&mut self) -> u64 {
        self.timed(Op::Sync, |d| d.sync())
    }

    fn forget(&mut self, token: IoToken) {
        self.pending_reads.retain(|(t, _)| *t != token);
        self.timed(Op::Other, |d| d.forget(token))
    }

    fn note_readahead_hit(&mut self) {
        self.inner.note_readahead_hit()
    }

    fn note_wal_stripe_write(&mut self) {
        self.inner.note_wal_stripe_write()
    }

    fn note_wal_stripe_reclaimed(&mut self) {
        self.inner.note_wal_stripe_reclaimed()
    }
}

impl NativeFlashDevice for TracedDevice {
    fn write_delta(&mut self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> FtlResult<()> {
        if self.log.borrow().armed {
            self.log.borrow_mut().note_delta(delta_bytes.len());
        }
        self.timed(Op::WriteDelta, |d| d.write_delta(lba, offset, delta_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            op,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_times_sum_to_the_window() {
        // Window 0..1000: two transactions, each with device calls
        // inside, plus one clock-positioning device call between them.
        let spans = [
            span(Op::Tx, 100, 400, NO_PARENT),
            span(Op::Read, 120, 200, 0),
            span(Op::Poll, 210, 260, 0),
            span(Op::Other, 410, 415, NO_PARENT),
            span(Op::Tx, 500, 900, NO_PARENT),
            span(Op::WriteDelta, 600, 700, 4),
        ];
        let t = layer_times(&spans, 0, 1000);
        assert_eq!(t.window_ns, 1000);
        assert_eq!(t.txs, 2);
        assert_eq!(t.storage_self_ns, 300 + 400 - 80 - 50 - 100);
        assert_eq!(t.ftl_self_ns, 80 + 50 + 5 + 100);
        assert_eq!(t.workloads_self_ns, 1000 - 700 - 5);
        assert_eq!(
            t.workloads_self_ns + t.storage_self_ns + t.ftl_self_ns,
            t.window_ns
        );
        assert_eq!(t.calls[Op::Read.index()], 1);
        assert_eq!(t.call_ns[Op::WriteDelta.index()], 100);
    }

    #[test]
    fn spans_outside_the_window_are_ignored() {
        let spans = [
            span(Op::Tx, 0, 50, NO_PARENT),
            span(Op::Tx, 60, 90, NO_PARENT),
            span(Op::Read, 70, 80, 1),
        ];
        let t = layer_times(&spans, 55, 100);
        assert_eq!(t.txs, 1);
        assert_eq!(t.workloads_self_ns + t.storage_self_ns + t.ftl_self_ns, 45);
    }
}
