//! Memory back-ends for the ORAM engine.
//!
//! The engine emits every off-chip block/metadata access through the
//! [`MemorySink`] trait. Two implementations cover the paper's two
//! evaluation modes:
//!
//! * [`CountingSink`] — protocol-level runs (dead-block studies, reshuffle
//!   counts, security experiment) where only traffic *counts* matter;
//! * [`TimingSink`] — cycle-level runs backed by the `aboram-dram` memory
//!   system, producing execution times, breakdowns and bandwidth.

use crate::config::IssueMode;
use crate::fault::{FaultKind, FaultSite};
use aboram_dram::{DecodedAddr, MemOpKind, MemorySystem, Priority, RequestId};
use aboram_telemetry::Phase;
use aboram_tree::SlotAddr;

/// Which protocol operation a memory access belongs to. Used both as the
/// DRAM traffic tag (Fig. 8c breakdown) and for per-op counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OramOp {
    /// Online access servicing a user request (§III-B).
    ReadPath,
    /// Background path reshuffle, every `A` accesses.
    EvictPath,
    /// Bucket reshuffle after exhausting its dummy budget.
    EarlyReshuffle,
    /// Dummy accesses injected to relieve stash pressure (§III-C).
    BackgroundEvict,
    /// Bucket metadata reads/writes.
    Metadata,
}

impl OramOp {
    /// All operation kinds, in tag order.
    pub const ALL: [OramOp; 5] = [
        OramOp::ReadPath,
        OramOp::EvictPath,
        OramOp::EarlyReshuffle,
        OramOp::BackgroundEvict,
        OramOp::Metadata,
    ];

    /// Stable small integer for DRAM traffic attribution.
    pub fn tag(self) -> u32 {
        match self {
            OramOp::ReadPath => 0,
            OramOp::EvictPath => 1,
            OramOp::EarlyReshuffle => 2,
            OramOp::BackgroundEvict => 3,
            OramOp::Metadata => 4,
        }
    }

    /// The telemetry phase traffic tagged with this op reports under.
    pub fn phase(self) -> Phase {
        match self {
            OramOp::ReadPath => Phase::ReadPath,
            OramOp::EvictPath => Phase::EvictPath,
            OramOp::EarlyReshuffle => Phase::EarlyReshuffle,
            OramOp::BackgroundEvict => Phase::BackgroundEvict,
            OramOp::Metadata => Phase::Metadata,
        }
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OramOp::ReadPath => "readPath",
            OramOp::EvictPath => "evictPath",
            OramOp::EarlyReshuffle => "earlyReshuffle",
            OramOp::BackgroundEvict => "backgroundEvict",
            OramOp::Metadata => "metadata",
        }
    }
}

/// Receiver of the engine's off-chip memory accesses.
///
/// `online` marks requests on the processor's critical path (readPath block
/// and metadata fetches); everything else is maintenance traffic the memory
/// scheduler may defer.
pub trait MemorySink {
    /// One 64 B read at `addr`.
    fn read(&mut self, addr: SlotAddr, op: OramOp, online: bool);
    /// One 64 B write at `addr`.
    fn write(&mut self, addr: SlotAddr, op: OramOp, online: bool);
    /// A batch of 64 B reads, issued in slice order. Semantically identical
    /// to calling [`read`](Self::read) once per address (the default does
    /// exactly that); [`CountingSink`] overrides it to count the whole
    /// bucket's worth of commands in one step.
    fn read_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        for &addr in addrs {
            self.read(addr, op, online);
        }
    }
    /// A batch of 64 B writes, issued in slice order (see
    /// [`read_batch`](Self::read_batch)).
    fn write_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        for &addr in addrs {
            self.write(addr, op, online);
        }
    }
    /// Asks whether the transfer being verified at `addr` faulted. The
    /// engine calls this at its verification sites (MAC check of a fetched
    /// block, metadata check, write-CRC acknowledgment); a
    /// [`crate::FaultInjectingSink`] answers from its fault plan. The
    /// default — used by every ordinary sink — reports no fault without
    /// consuming any randomness, keeping fault-free runs bit-identical.
    fn poll_fault(&mut self, _addr: SlotAddr, _site: FaultSite) -> Option<FaultKind> {
        None
    }
}

/// A sink that only counts traffic (protocol-level evaluation mode).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSink {
    reads: [u64; 5],
    writes: [u64; 5],
    online: u64,
    offline: u64,
}

impl CountingSink {
    /// Creates a zeroed counter sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads recorded for `op`.
    pub fn reads(&self, op: OramOp) -> u64 {
        self.reads[op.tag() as usize]
    }

    /// Writes recorded for `op`.
    pub fn writes(&self, op: OramOp) -> u64 {
        self.writes[op.tag() as usize]
    }

    /// Total accesses recorded for `op`.
    pub fn total(&self, op: OramOp) -> u64 {
        self.reads(op) + self.writes(op)
    }

    /// Total accesses across all ops.
    pub fn grand_total(&self) -> u64 {
        OramOp::ALL.iter().map(|&o| self.total(o)).sum()
    }

    /// Accesses flagged online.
    pub fn online_total(&self) -> u64 {
        self.online
    }

    /// Accesses flagged offline.
    pub fn offline_total(&self) -> u64 {
        self.offline
    }
}

impl MemorySink for CountingSink {
    fn read(&mut self, _addr: SlotAddr, op: OramOp, online: bool) {
        self.reads[op.tag() as usize] += 1;
        if online {
            self.online += 1;
        } else {
            self.offline += 1;
        }
    }

    fn write(&mut self, _addr: SlotAddr, op: OramOp, online: bool) {
        self.writes[op.tag() as usize] += 1;
        if online {
            self.online += 1;
        } else {
            self.offline += 1;
        }
    }

    fn read_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        let n = addrs.len() as u64;
        self.reads[op.tag() as usize] += n;
        if online {
            self.online += n;
        } else {
            self.offline += n;
        }
    }

    fn write_batch(&mut self, addrs: &[SlotAddr], op: OramOp, online: bool) {
        let n = addrs.len() as u64;
        self.writes[op.tag() as usize] += n;
        if online {
            self.online += n;
        } else {
            self.offline += n;
        }
    }
}

/// A sink backed by the cycle-level DRAM model.
///
/// The sink *stages* each access's requests instead of enqueueing them:
/// the controller ([`crate::TimingDriver`] or [`crate::TimedBackend`])
/// fixes the access's arrival cycle only after the whole access is staged —
/// it may inspect the staged write footprint to resolve
/// `(channel, bank, row)` conflicts against accesses still in flight — and
/// then releases it with [`release_at`](TimingSink::release_at).
///
/// [`IssueMode::Serial`] releases in program order. In
/// [`IssueMode::ChannelParallel`] the release groups requests by DRAM
/// channel and orders them `(bank, row)` within each channel — the issue
/// order a controller that sees the whole access up front would choose for
/// row locality. The request *set* is identical in both modes (same
/// addresses, kinds, priorities, tags, arrival cycle); only the
/// intra-access order the per-channel FR-FCFS schedulers break same-cycle
/// ties in changes, so the externally observable access pattern is
/// unchanged (DESIGN.md §14).
#[derive(Debug)]
pub struct TimingSink {
    memory: MemorySystem,
    now: u64,
    online_reads: Vec<RequestId>,
    /// Every request released since the last
    /// [`take_issued`](TimingSink::take_issued), with its decoded
    /// `(channel, bank, row)` location and kind.
    issued: Vec<IssuedRequest>,
    issue_mode: IssueMode,
    staged: Vec<StagedRequest>,
}

/// One released request with its decoded `(channel, bank, row)` and kind.
pub(crate) type IssuedRequest = (RequestId, (u8, u16, u64), MemOpKind);

/// A request buffered until its access is released, decoded once at
/// staging time.
#[derive(Debug, Clone, Copy)]
struct StagedRequest {
    kind: MemOpKind,
    loc: DecodedAddr,
    priority: Priority,
    tag: u32,
    online: bool,
}

impl StagedRequest {
    /// The `(channel, bank, row)` grouping key.
    fn key(&self) -> (u8, u16, u64) {
        (self.loc.channel, self.loc.bank, self.loc.row)
    }
}

impl TimingSink {
    /// Wraps a memory system (serial issue mode).
    pub fn new(memory: MemorySystem) -> Self {
        TimingSink {
            memory,
            now: 0,
            online_reads: Vec::new(),
            issued: Vec::new(),
            issue_mode: IssueMode::Serial,
            staged: Vec::new(),
        }
    }

    /// Sets how requests are handed to the memory system. Switching modes
    /// requires no other state change; the access boundary is forced first
    /// so no request is ever reordered across a mode switch.
    pub fn set_issue_mode(&mut self, mode: IssueMode) {
        self.access_boundary();
        self.issue_mode = mode;
    }

    /// The issue mode in force.
    pub fn issue_mode(&self) -> IssueMode {
        self.issue_mode
    }

    /// The single access-boundary choke point: every staged request of the
    /// current access is released to the memory system here, and every
    /// operation that ends or inspects an access (clock moves, drains,
    /// mode switches, releases) funnels through this helper.
    ///
    /// A serial-mode release preserves program order; a channel-parallel
    /// release groups by channel and orders `(bank, row)` within each
    /// channel (stable sort, so same-location requests keep their program
    /// order).
    fn access_boundary(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let mut staged = std::mem::take(&mut self.staged);
        if self.issue_mode == IssueMode::ChannelParallel {
            staged.sort_by_key(StagedRequest::key);
        }
        for r in staged.drain(..) {
            let id = self.memory.enqueue_decoded(r.kind, r.loc, r.priority, r.tag, self.now);
            if r.online && r.kind == MemOpKind::Read {
                self.online_reads.push(id);
            }
            self.issued.push((id, r.key(), r.kind));
        }
        self.staged = staged;
    }

    /// Sets the arrival timestamp for subsequent requests. Timestamps must
    /// be non-decreasing (the memory model's contract). Staged requests
    /// belong to the access that issued them, so the boundary is forced
    /// before the clock moves.
    pub fn set_now(&mut self, cycle: u64) {
        self.access_boundary();
        self.now = cycle;
    }

    /// Releases the staged access: moves the clock to `cycle` *first*,
    /// then forces the access boundary so the staged requests arrive at
    /// that cycle. `cycle` must be ≥ the last timestamp (the memory
    /// model's non-decreasing contract).
    pub fn release_at(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.now, "release_at must not move the clock backwards");
        self.now = cycle;
        self.access_boundary();
    }

    /// The distinct `(channel, bank, row)` locations the currently staged
    /// access *writes*, sorted — the footprint the controller intersects
    /// against in-flight accesses' read footprints to detect
    /// same-bucket/slot write-after-read hazards.
    pub(crate) fn staged_write_footprint(&self, out: &mut Vec<(u8, u16, u64)>) {
        out.clear();
        out.extend(
            self.staged.iter().filter(|r| r.kind == MemOpKind::Write).map(StagedRequest::key),
        );
        out.sort_unstable();
        out.dedup();
    }

    /// Hands over every request released since the last call, with its
    /// decoded `(channel, bank, row)` location and kind, and continues
    /// recording into `spare` (cleared) — the controller's in-flight window
    /// keeps the returned list so a footprint conflict can wait on exactly
    /// the same-row reads rather than the whole access's drain.
    pub(crate) fn take_issued(&mut self, mut spare: Vec<IssuedRequest>) -> Vec<IssuedRequest> {
        self.access_boundary();
        spare.clear();
        std::mem::replace(&mut self.issued, spare)
    }

    /// The completion cycle of `id` (forces scheduling as needed).
    pub fn completion_time(&mut self, id: RequestId) -> u64 {
        self.memory.completion_time(id)
    }

    /// Lets the twin drop the bookkeeping of every request older than both
    /// `live` — the oldest request the controller still holds, `None` when
    /// it holds none — and every request this sink still holds. The caller
    /// vouches that all older requests are complete and never queried
    /// again ([`MemorySystem::forget_before`]).
    pub(crate) fn forget_before(&mut self, live: Option<RequestId>) {
        let held =
            self.issued.first().map(|r| r.0).into_iter().chain(self.online_reads.first().copied());
        let watermark = held.chain(live).min().unwrap_or_else(|| self.memory.next_id());
        self.memory.forget_before(watermark);
    }

    /// Schedules every pending online read and appends each one's completion
    /// cycle to `into` (unordered), clearing the pending list. Callers fold
    /// the completions through the crypto model
    /// ([`aboram_crypto::CryptoLatency`]).
    pub fn drain_online_read_times(&mut self, into: &mut Vec<u64>) {
        self.access_boundary();
        into.clear();
        for i in 0..self.online_reads.len() {
            into.push(self.memory.completion_time(self.online_reads[i]));
        }
        self.online_reads.clear();
    }

    /// The arrival timestamp of the last released access.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Whether every issued request has been handed over (no ids pending a
    /// completion-time query, nothing staged). Snapshots require this.
    pub fn is_idle(&self) -> bool {
        self.online_reads.is_empty() && self.issued.is_empty() && self.staged.is_empty()
    }

    /// Access to the underlying memory system (stats, drain).
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Mutable access to the underlying memory system.
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.memory
    }

    fn stage(&mut self, kind: MemOpKind, addr: SlotAddr, op: OramOp, online: bool) {
        self.staged.push(StagedRequest {
            kind,
            loc: self.memory.decode_addr(addr.byte()),
            priority: if online { Priority::Online } else { Priority::Offline },
            tag: op.tag(),
            online,
        });
    }
}

impl MemorySink for TimingSink {
    fn read(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.stage(MemOpKind::Read, addr, op, online);
    }

    fn write(&mut self, addr: SlotAddr, op: OramOp, online: bool) {
        self.stage(MemOpKind::Write, addr, op, online);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aboram_dram::DramConfig;

    #[test]
    fn counting_sink_attributes_per_op() {
        let mut s = CountingSink::new();
        s.read(SlotAddr(0), OramOp::ReadPath, true);
        s.read(SlotAddr(64), OramOp::Metadata, true);
        s.write(SlotAddr(0), OramOp::EvictPath, false);
        s.write(SlotAddr(64), OramOp::EvictPath, false);
        assert_eq!(s.reads(OramOp::ReadPath), 1);
        assert_eq!(s.total(OramOp::EvictPath), 2);
        assert_eq!(s.grand_total(), 4);
        assert_eq!(s.online_total(), 2);
        assert_eq!(s.offline_total(), 2);
    }

    #[test]
    fn timing_sink_tracks_online_reads() {
        let mut s = TimingSink::new(MemorySystem::new(DramConfig::default()));
        s.read(SlotAddr(0), OramOp::ReadPath, true);
        s.read(SlotAddr(4096), OramOp::EvictPath, false);
        s.write(SlotAddr(128), OramOp::EvictPath, false);
        assert!(!s.is_idle(), "requests stay staged until release");
        s.release_at(100);
        let mut times = Vec::new();
        s.drain_online_read_times(&mut times);
        assert_eq!(times.len(), 1);
        assert!(times[0] > 100);
        s.drain_online_read_times(&mut times);
        assert!(times.is_empty(), "drained");
        assert_eq!(s.take_issued(Vec::new()).len(), 3);
        assert!(s.is_idle());
        s.memory_mut().drain();
        assert_eq!(s.memory().stats().total_requests(), 3);
    }

    #[test]
    fn channel_parallel_staging_preserves_the_request_set() {
        let mk = || TimingSink::new(MemorySystem::new(DramConfig::default()));
        let addrs: Vec<SlotAddr> = (0..16).map(|i| SlotAddr(i * 4096 + 64)).collect();

        let mut serial = mk();
        let mut par = mk();
        par.set_issue_mode(IssueMode::ChannelParallel);
        let mut issued = Vec::new();
        for s in [&mut serial, &mut par] {
            for &a in &addrs {
                s.read(a, OramOp::Metadata, true);
            }
            s.read_batch(&addrs, OramOp::ReadPath, true);
            s.write_batch(&addrs, OramOp::EvictPath, false);
            s.release_at(10);
            let mut times = Vec::new();
            s.drain_online_read_times(&mut times);
            assert_eq!(times.len(), 2 * addrs.len());
            assert!(times.iter().all(|&t| t > 10));
            let mut reqs: Vec<_> = s.take_issued(Vec::new()).iter().map(|r| (r.1, r.2)).collect();
            reqs.sort_unstable_by_key(|&(key, kind)| (key, kind == MemOpKind::Write));
            issued.push(reqs);
            assert!(s.is_idle());
            s.memory_mut().drain();
        }
        assert_eq!(issued[0], issued[1], "same locations and kinds in both modes");
        let (a, b) = (serial.memory().stats(), par.memory().stats());
        assert_eq!(a.total_requests(), b.total_requests());
        assert_eq!(a.reads(), b.reads());
        assert_eq!(a.writes(), b.writes());
        for op in OramOp::ALL {
            assert_eq!(a.requests_for_tag(op.tag()), b.requests_for_tag(op.tag()));
        }
        assert_eq!(a.requests_by_channel(), b.requests_by_channel());
    }

    #[test]
    fn op_tags_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for op in OramOp::ALL {
            assert!(seen.insert(op.tag()));
            assert!(!op.name().is_empty());
        }
    }
}
