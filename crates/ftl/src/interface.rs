//! Host-facing device interfaces.
//!
//! [`BlockDevice`] is the conventional SSD contract (read/write whole
//! pages by LBA). [`NativeFlashDevice`] extends it with the paper's new
//! command:
//!
//! ```text
//! write_delta( LBA, offset, delta_length, delta_bytes[ ] );
//! ```
//!
//! which appends `delta_bytes` to the *same physical flash page* backing
//! `LBA`, transferring only the delta.
//!
//! [`IoQueue`] is the queued (NVMe-style submission/completion) face of
//! the same devices: the host posts an [`IoRequest`] — possibly vectored
//! across many LBAs — receives an [`IoToken`], and later either `poll`s
//! the token (waiting for the completion) or `sync`s the whole queue.
//! The synchronous `read`/`write` calls are thin wrappers over this
//! path, so the two interfaces always agree on device state.

use std::collections::HashMap;

use ipa_controller::ControllerStats;
use ipa_core::PageLayout;
use ipa_flash::FlashStats;

use crate::error::{Lba, Result};
use crate::stats::DeviceStats;

/// How the DBMS drives the device — the three configurations the demo
/// compares (plus IPL, which lives in its own crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteStrategy {
    /// Demo scenario 1: every dirty page eviction is a full out-of-place
    /// page write (`[0×0]`).
    Traditional,
    /// Demo scenario 2: IPA for conventional SSDs — the DBMS writes full
    /// `body + delta-record area` images through the block interface; the
    /// FTL detects overwrite-compatible images and programs them in place.
    IpaConventional,
    /// Demo scenario 3: IPA for native flash — the DBMS sends only delta
    /// records via `write_delta`.
    IpaNative,
}

impl WriteStrategy {
    /// Does this strategy require an IPA page layout?
    pub fn needs_layout(self) -> bool {
        !matches!(self, WriteStrategy::Traditional)
    }
}

/// Opaque handle for a submitted [`IoRequest`], redeemed at
/// [`IoQueue::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoToken(pub u64);

/// One queued host command. Vectored variants carry any number of pages;
/// a one-element vector is exactly the classic single-page command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoRequest {
    /// Read whole pages; the completion returns one buffer per LBA, in
    /// request order. Posted: the submission clock does not wait for the
    /// data — [`IoQueue::poll`] is the wait.
    ReadV(Vec<Lba>),
    /// [`IoRequest::ReadV`] on the latency-priority lane: on a
    /// QoS-scheduled device the members may be dispatched *ahead of*
    /// posted program/erase work already queued on their dies (suspending
    /// in-flight erases within the chip's resume budget). Host point
    /// reads travel this lane; bulk read-ahead stays on `ReadV` so
    /// streaming cannot starve posted writes. Devices without a QoS
    /// scheduler treat it exactly as `ReadV`.
    HighPriorityReadV(Vec<Lba>),
    /// Write whole pages (posted, like the sync `write`).
    WriteV(Vec<(Lba, Vec<u8>)>),
    /// Native IPA delta append (`write_delta`) as a queued command.
    WriteDelta {
        lba: Lba,
        offset: usize,
        delta: Vec<u8>,
    },
    /// Vectored native delta appends `(lba, offset, delta)` — the evict
    /// path's analogue of a multi-page `WriteV`: members landing on
    /// distinct dies post and overlap like any vectored submission.
    /// A member the device rejects for in-place append (NOP budget, ECC
    /// verdict) does *not* fail the request: its index is reported in
    /// [`IoCompletion::rejected`] and the host falls back per member.
    WriteDeltaV(Vec<(Lba, usize, Vec<u8>)>),
    /// Drop the mapping for an LBA.
    Trim(Lba),
    /// Settle acknowledged-but-unprogrammed device state (plane-pairing
    /// windows) without merging clocks — a write barrier, not a time
    /// barrier.
    Flush,
}

/// What a finished [`IoRequest`] reports. Carries *both* clocks of the
/// submission/completion contract: `submitted_ns` is the issuing client's
/// logical now when the request was accepted, `done_ns` the device clock
/// at which the last member physically completes. On an immediate-
/// completion (single-chip) device the two describe the same walk; on a
/// scheduled device `done_ns - submitted_ns` is the request's true
/// device-side latency, which the old sync-only API could not express.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoCompletion {
    pub token: IoToken,
    /// Pages read (`ReadV` only), in request order; empty otherwise.
    pub data: Vec<Vec<u8>>,
    /// `WriteDeltaV` member indices the device rejected for in-place
    /// append (the host re-drives those members out of place); empty for
    /// every other request kind.
    pub rejected: Vec<usize>,
    /// Submission-side clock at acceptance.
    pub submitted_ns: u64,
    /// Device clock when the whole request is done (max over the per-die
    /// completion times of a fanned-out vector).
    pub done_ns: u64,
}

/// Token allocation, completion buffering and the queued-path counters
/// shared by every native [`IoQueue`] implementation. `device_stats()`
/// merges [`SubmissionState::stats`] into the device's own counters so
/// hosts see them through the ordinary stats surface.
#[derive(Debug, Default)]
pub struct SubmissionState {
    next: u64,
    done: HashMap<u64, IoCompletion>,
    /// The queued-path counters: `vectored_reads`, `vectored_writes` and
    /// `vectored_deltas` (ticked by [`SubmissionState::count_request`]),
    /// plus the host-attributed `readahead_hits`, `wal_stripe_writes` and
    /// `wal_stripes_reclaimed` ([`IoQueue::note_readahead_hit`] and
    /// friends). Every other field stays zero.
    pub stats: DeviceStats,
}

impl SubmissionState {
    /// Record a finished request and hand out its token.
    pub fn complete(&mut self, data: Vec<Vec<u8>>, submitted_ns: u64, done_ns: u64) -> IoToken {
        self.complete_with_rejections(data, Vec::new(), submitted_ns, done_ns)
    }

    /// [`SubmissionState::complete`] carrying per-member in-place
    /// rejections (`WriteDeltaV`).
    pub fn complete_with_rejections(
        &mut self,
        data: Vec<Vec<u8>>,
        rejected: Vec<usize>,
        submitted_ns: u64,
        done_ns: u64,
    ) -> IoToken {
        let token = IoToken(self.next);
        self.next += 1;
        self.done.insert(
            token.0,
            IoCompletion {
                token,
                data,
                rejected,
                submitted_ns,
                done_ns,
            },
        );
        token
    }

    /// Take a completion out of the buffer.
    pub fn take(&mut self, token: IoToken) -> Option<IoCompletion> {
        self.done.remove(&token.0)
    }

    /// [`SubmissionState::take`] with the `None` cases distinguished:
    /// tokens are allocated from a private monotone counter, so a miss
    /// below the watermark can only be a retired (polled/forgotten)
    /// token, and a miss at or above it a token this queue never issued.
    pub fn take_checked(&mut self, token: IoToken) -> crate::error::Result<IoCompletion> {
        match self.done.remove(&token.0) {
            Some(c) => Ok(c),
            None if token.0 >= self.next => {
                Err(crate::error::FtlError::TokenUnknown { token: token.0 })
            }
            None => Err(crate::error::FtlError::TokenRetired { token: token.0 }),
        }
    }

    /// Drop a completion without consuming it (abandoned read-ahead).
    /// Returns the completion so the device can retire it from any
    /// scheduler-side bookkeeping (the posted-read completion horizon) —
    /// dropping the buffer alone would leave those gauges drifting.
    pub fn forget(&mut self, token: IoToken) -> Option<IoCompletion> {
        self.done.remove(&token.0)
    }

    /// Tick the vectored counters for an accepted request.
    pub fn count_request(&mut self, req: &IoRequest) {
        match req {
            IoRequest::ReadV(lbas) | IoRequest::HighPriorityReadV(lbas) if lbas.len() > 1 => {
                self.stats.vectored_reads += 1
            }
            IoRequest::WriteV(pages) if pages.len() > 1 => self.stats.vectored_writes += 1,
            IoRequest::WriteDeltaV(members) if members.len() > 1 => self.stats.vectored_deltas += 1,
            _ => {}
        }
    }
}

/// The queued submission/completion face of a device (NVMe-style queue
/// pair, collapsed to one pair since the simulator is single-threaded).
///
/// ## Contract
///
/// * `submit` accepts the request, applies its state transition, and
///   returns a token. Posted semantics: the submission clock does not
///   advance to the request's completion (it may advance for
///   queue-admission effects such as NCQ back-pressure, exactly like the
///   sync write path).
/// * `poll` *waits* for the token's completion: the submission clock
///   advances to at least `done_ns` and the completion (with any read
///   data) is returned. Polling an unknown or already-polled token
///   returns `None` and costs nothing; when the host needs to tell a
///   double-poll bug apart from "still in flight", `poll_checked`
///   returns a typed [`crate::error::FtlError::TokenRetired`] /
///   [`crate::error::FtlError::TokenUnknown`] instead.
/// * `sync` is the barrier: every prior submission's completion time is
///   folded into the device's merged clock, which is returned. It does
///   not consume buffered completions — tokens stay pollable.
/// * `forget` abandons a token without waiting (an unused read-ahead).
///   The device retires the token from its completion horizon: an
///   abandoned completion is accounted exactly like a polled one in the
///   scheduler's posted-read bookkeeping, so `sync` never waits on behalf
///   of data nobody wants and the posted-read gauges cannot drift.
///
/// ## Reorder contract (QoS devices)
///
/// Completion order is **not** submission order. Within one die a
/// QoS-scheduled device may complete a later-submitted priority read
/// before earlier-submitted posted programs/erases (erase-suspend,
/// reorder windows). Three guarantees survive reordering:
///
/// * **Read-your-writes per LBA**: a read submitted after a write to the
///   same LBA always returns that write's data — device state mutates in
///   submission order; only completion *times* reorder.
/// * **`sync` is the only total barrier**: it waits for every prior
///   submission — promoted, suspended, or pushed out — and merges their
///   completion times into the returned device clock. `Flush` remains a
///   write barrier (plane-pairing windows), not an ordering fence.
/// * **Bounded deferral**: posted work jumped by priority reads is pushed
///   out by exactly the reads' occupancy, and one erase can be suspended
///   at most its chip's `erase_resume_limit` times — no starvation.
///
/// Clock contract (the `submission_clock_ns`/`elapsed_ns` fix): after any
/// sequence of queued operations, [`BlockDevice::elapsed_ns`] is the
/// device-busy horizon — the time at which all submitted work is done —
/// while [`BlockDevice::submission_clock_ns`] is the issuing client's
/// logical now, which only `poll` and back-pressure move forward. On
/// devices with no scheduler the two coincide by construction.
pub trait IoQueue {
    /// Post a request; returns its completion token.
    fn submit(&mut self, req: IoRequest) -> Result<IoToken>;

    /// Wait for (and take) a completion. `None` if the token is unknown
    /// or was already polled/forgotten.
    fn poll(&mut self, token: IoToken) -> Option<IoCompletion>;

    /// [`IoQueue::poll`] with the `None` cases made typed errors: a
    /// retired token (already polled or forgotten) surfaces as
    /// [`crate::error::FtlError::TokenRetired`], a token the queue never
    /// issued as [`crate::error::FtlError::TokenUnknown`]. Hosts that
    /// treat a double-poll as a bug (everything in this repo) should
    /// prefer this over pattern-matching `None`.
    fn poll_checked(&mut self, token: IoToken) -> Result<IoCompletion>;

    /// Barrier over all prior submissions; returns the merged device
    /// time in nanoseconds.
    fn sync(&mut self) -> u64;

    /// Abandon a token without waiting on its completion.
    fn forget(&mut self, token: IoToken);

    /// Host attribution hook: a buffer-pool fetch was served from a
    /// read-ahead completion. Counted in `DeviceStats::readahead_hits`.
    fn note_readahead_hit(&mut self);

    /// Host attribution hook: a WAL group-commit flush went out as one
    /// multi-page vector. Counted in `DeviceStats::wal_stripe_writes`.
    fn note_wal_stripe_write(&mut self);

    /// Host attribution hook: a checkpoint trimmed one sealed WAL page,
    /// recycling its log space. Counted in
    /// `DeviceStats::wal_stripes_reclaimed`.
    fn note_wal_stripe_reclaimed(&mut self);
}

/// A block device with a queued face — the bound host components (the
/// striped WAL, the read-ahead buffer pool) program against when they do
/// not need `write_delta`.
pub trait QueuedBlockDevice: BlockDevice + IoQueue {}
impl<T: BlockDevice + IoQueue> QueuedBlockDevice for T {}

/// A page-granular block device (conventional SSD contract).
pub trait BlockDevice {
    /// Page size in bytes (read/write granularity).
    fn page_size(&self) -> usize;

    /// Number of LBAs exported to the host (after over-provisioning and
    /// mode capacity factors).
    fn capacity_pages(&self) -> u64;

    /// Read one page into `buf` (must be exactly `page_size` long).
    fn read(&mut self, lba: Lba, buf: &mut [u8]) -> Result<()>;

    /// Write one page (out-of-place unless the device detects an
    /// overwrite-compatible image and is configured to exploit it).
    fn write(&mut self, lba: Lba, data: &[u8]) -> Result<()>;

    /// Drop the mapping for an LBA (contents become unreadable).
    fn trim(&mut self, lba: Lba) -> Result<()>;

    /// Does `lba` currently hold readable data? Advisory (read-ahead
    /// uses it to skip never-written holes); the default claims
    /// everything in range is mapped.
    fn is_mapped(&self, lba: Lba) -> bool {
        lba < self.capacity_pages()
    }

    /// The IPA page layout in force for `lba` (from the low-level format /
    /// region table), if any. The DBMS buffer manager sizes its change
    /// tracking off this.
    fn layout_for(&self, lba: Lba) -> Option<PageLayout>;

    /// Host-level counters.
    fn device_stats(&self) -> DeviceStats;

    /// Raw flash counters of the underlying chip.
    fn flash_stats(&self) -> FlashStats;

    /// Simulated time spent on device operations so far, nanoseconds.
    fn elapsed_ns(&self) -> u64;

    /// Peak block erase count (wear) — drives the longevity experiment.
    fn max_erase_count(&self) -> u32;

    /// Raw erase blocks of the underlying silicon (longevity is wear per
    /// raw block, not per exported LBA).
    fn raw_blocks(&self) -> u32;

    /// Scheduler counters, when the device sits behind a multi-channel
    /// controller. Single-chip devices report `None`.
    fn controller_stats(&self) -> Option<ControllerStats> {
        None
    }

    /// Multi-client hook: position the submission-side clock at a client
    /// thread's logical "now" before issuing its commands. A scheduled
    /// device starts subsequent commands at `max(now, die busy, channel
    /// busy)`, so independent clients overlap while contended hardware
    /// still queues. Single-chip devices (one implicit client) ignore it.
    fn set_submission_clock_ns(&mut self, _ns: u64) {}

    /// The submission-side clock after the last command — the issuing
    /// client's logical "now". Defaults to total device time for devices
    /// without a separate submission clock.
    fn submission_clock_ns(&self) -> u64 {
        self.elapsed_ns()
    }

    /// Concrete-type escape hatch: devices that carry extra subsystems
    /// (e.g. a maintenance scheduler wrapped around the FTL) return
    /// `Some(self)` so the engine can surface their stats without the
    /// device trait knowing about every layer above it.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// The NoFTL-style native interface: everything a block device does —
/// including the queued submission/completion face — plus delta appends
/// to the physical page.
pub trait NativeFlashDevice: BlockDevice + IoQueue {
    /// Append `delta_bytes` at byte `offset` of the physical page backing
    /// `lba`. The offset must address a free record slot inside the
    /// region's delta-record area; the device adds the per-record ECC to
    /// the OOB area. Only `delta_bytes.len()` bytes cross the bus.
    fn write_delta(&mut self, lba: Lba, offset: usize, delta_bytes: &[u8]) -> Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_requirements() {
        assert!(!WriteStrategy::Traditional.needs_layout());
        assert!(WriteStrategy::IpaConventional.needs_layout());
        assert!(WriteStrategy::IpaNative.needs_layout());
    }

    #[test]
    fn submission_state_tokens_and_counters() {
        let mut s = SubmissionState::default();
        let a = s.complete(vec![vec![1]], 10, 20);
        let b = s.complete(Vec::new(), 20, 25);
        assert_ne!(a, b, "tokens are unique");
        let ca = s.take(a).expect("buffered completion");
        assert_eq!((ca.submitted_ns, ca.done_ns), (10, 20));
        assert_eq!(ca.data, vec![vec![1]]);
        assert!(s.take(a).is_none(), "taken once");
        assert!(
            matches!(
                s.take_checked(a),
                Err(crate::error::FtlError::TokenRetired { token }) if token == a.0
            ),
            "double-take is a typed retired error"
        );
        assert!(
            matches!(
                s.take_checked(IoToken(999)),
                Err(crate::error::FtlError::TokenUnknown { token: 999 })
            ),
            "never-issued token is unknown, not retired"
        );
        s.forget(b);
        assert!(s.take(b).is_none(), "forgotten");
        assert!(
            matches!(
                s.take_checked(b),
                Err(crate::error::FtlError::TokenRetired { .. })
            ),
            "forget retires the token too"
        );

        s.count_request(&IoRequest::ReadV(vec![1, 2]));
        s.count_request(&IoRequest::ReadV(vec![1]));
        s.count_request(&IoRequest::WriteV(vec![(1, vec![]), (2, vec![])]));
        s.count_request(&IoRequest::Trim(3));
        s.stats.readahead_hits = 7;
        s.stats.wal_stripe_writes = 2;
        let folded = DeviceStats {
            vectored_reads: 1,
            ..Default::default()
        }
        .merged(&s.stats);
        assert_eq!(folded.vectored_reads, 2, "overlay adds to the snapshot");
        assert_eq!(folded.vectored_writes, 1);
        assert_eq!(folded.readahead_hits, 7);
        assert_eq!(folded.wal_stripe_writes, 2);
    }
}
