//! Storage backends: the engines behind the oblivious service layer.
//!
//! The service layer (`aboram-service`) drives block-level ORAM accesses
//! without caring whether time is simulated cycle-accurately or just
//! accounted. [`StorageBackend`] is that seam: the engine plus a clock.
//!
//! * [`TimedBackend`] is the cycle-accurate twin — the same
//!   `TimingSink`/DRAM/crypto plumbing as [`crate::TimingDriver`], minus the
//!   trace-driven CPU: the caller supplies request arrival times and reads
//!   back completion times, so a load generator measures real queueing
//!   latency on the simulated memory system.
//! * [`UntimedBackend`] runs the identical protocol over a
//!   [`CountingSink`] and charges a fixed cost per 64 B transfer — orders
//!   of magnitude faster, with the same access *pattern* and the same
//!   returned data, for functional tests and high-volume load studies.
//!
//! A reply's `done` is the access's user-visible completion: its online
//! reads plus the crypto pipeline. When an access may *begin* is the
//! backend's business: [`TimedBackend`] runs the same access scheduler as
//! the trace driver (at depth 1 an access waits for the previous one's
//! maintenance drain; deeper windows overlap them, DESIGN.md §15), and
//! [`UntimedBackend`] serializes on its accounted drain.

use crate::config::OramConfig;
use crate::error::OramError;
use crate::ring::{AccessKind, PayloadMutator, RingOram};
use crate::scheduler::AccessScheduler;
use crate::sink::{CountingSink, TimingSink};
use crate::{BlockId, BLOCK_BYTES};
use aboram_crypto::CryptoLatency;
use aboram_dram::{DramConfig, MemorySystem};
use aboram_tree::PathId;

/// Timing outcome of one backend access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendReply {
    /// The fetched payload (pre-`mutate` for managed accesses; `None` for
    /// dummy accesses).
    pub data: Option<[u8; BLOCK_BYTES]>,
    /// User-visible completion time: online reads plus crypto pipeline.
    pub done: u64,
}

/// A block store serving ORAM accesses on a simulated or accounted clock.
///
/// `start` is the request's arrival time in the backend's clock domain; the
/// access begins no earlier, and later when the controller is still busy
/// with earlier accesses (see the module docs). Implementations must be
/// deterministic: identical call sequences produce identical replies and
/// identical engine state.
pub trait StorageBackend {
    /// One user access (read, or write with `new_data`).
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors.
    fn access(
        &mut self,
        start: u64,
        kind: AccessKind,
        block: BlockId,
        new_data: Option<[u8; BLOCK_BYTES]>,
    ) -> Result<BackendReply, OramError>;

    /// One managed access: caller-chosen remap target plus an in-stash
    /// read-modify-write of the payload (see [`RingOram::access_managed`]).
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors.
    fn access_managed(
        &mut self,
        start: u64,
        block: BlockId,
        new_position: Option<PathId>,
        mutate: &mut PayloadMutator<'_>,
    ) -> Result<BackendReply, OramError>;

    /// One dummy access — bus-indistinguishable from a real one; used to
    /// pad batches and to hide misses.
    ///
    /// # Errors
    ///
    /// Propagates engine protocol errors.
    fn dummy_access(&mut self, start: u64) -> Result<BackendReply, OramError>;

    /// Appends a new zeroed block to the store, lazily growing the tree
    /// when the configured utilization threshold would be crossed (see
    /// [`RingOram::insert_block`]). Inserts are bookkeeping, not bus
    /// traffic, so they cost no backend time.
    ///
    /// # Errors
    ///
    /// Propagates [`OramError::CapacityExhausted`] /
    /// [`OramError::StashOverflow`] from the engine.
    fn insert_block(&mut self, position: Option<PathId>) -> Result<BlockId, OramError> {
        self.engine_mut().insert_block(position)
    }

    /// The engine behind this backend.
    fn engine(&self) -> &RingOram;

    /// Mutable engine access (warm-up, stats inspection).
    fn engine_mut(&mut self) -> &mut RingOram;

    /// Sets the access-pipeline depth: the maximum number of concurrently
    /// in-flight accesses (see [`TimedBackend::set_pipeline_depth`]).
    /// Backends without a cycle-level pipeline ignore the knob.
    fn set_pipeline_depth(&mut self, _depth: u8) {}

    /// The access-pipeline depth in force (1 for unpipelined backends).
    fn pipeline_depth(&self) -> u8 {
        1
    }
}

/// Cycle-accurate backend: the engine over the DRAM twin (see module docs).
#[derive(Debug)]
pub struct TimedBackend {
    oram: RingOram,
    sink: TimingSink,
    scheduler: AccessScheduler,
}

impl TimedBackend {
    /// Builds a backend with a fresh engine for `cfg` over `dram`.
    ///
    /// # Errors
    ///
    /// Propagates ORAM construction errors.
    pub fn new(cfg: &OramConfig, dram: DramConfig) -> Result<Self, OramError> {
        Ok(Self::from_oram(RingOram::new(cfg)?, dram))
    }

    /// Wraps an existing (e.g. pre-warmed) engine. The sink's issue mode
    /// follows the engine's scheme ([`crate::Scheme::issue_mode`]), so an
    /// `AbChannelPar` tenant gets the channel-parallel drain end to end.
    pub fn from_oram(oram: RingOram, dram: DramConfig) -> Self {
        let mut sink = TimingSink::new(MemorySystem::new(dram));
        sink.set_issue_mode(oram.config().scheme.issue_mode());
        TimedBackend { oram, sink, scheduler: AccessScheduler::new(CryptoLatency::default(), 0) }
    }

    /// Sets the access-pipeline depth with the same meaning as
    /// [`crate::TimingDriver::set_pipeline_depth`]: depth 1 (the default,
    /// and `0` clamps to it) is the classic serialized controller, depth
    /// `d > 1` overlaps up to `d` accesses. Changing it never reorders
    /// requests: a lower depth retires the excess in-flight accesses at the
    /// next access's window-overflow gate.
    pub fn set_pipeline_depth(&mut self, depth: u8) {
        self.scheduler.set_depth(depth);
    }

    /// The access-pipeline depth in force.
    pub fn pipeline_depth(&self) -> u8 {
        self.scheduler.depth()
    }

    /// Retires every in-flight access and returns the cycle the last
    /// one's maintenance traffic finished draining.
    pub fn quiesce(&mut self) -> u64 {
        self.scheduler.quiesce(&mut self.sink)
    }

    /// Releases the staged access through the scheduler.
    fn finish(&mut self, start: u64, data: Option<[u8; BLOCK_BYTES]>) -> BackendReply {
        let (_, done) = self.scheduler.schedule(&mut self.sink, start);
        BackendReply { data, done }
    }
}

impl StorageBackend for TimedBackend {
    fn access(
        &mut self,
        start: u64,
        kind: AccessKind,
        block: BlockId,
        new_data: Option<[u8; BLOCK_BYTES]>,
    ) -> Result<BackendReply, OramError> {
        let data = self.oram.access(kind, block, new_data, &mut self.sink)?;
        Ok(self.finish(start, data))
    }

    fn access_managed(
        &mut self,
        start: u64,
        block: BlockId,
        new_position: Option<PathId>,
        mutate: &mut PayloadMutator<'_>,
    ) -> Result<BackendReply, OramError> {
        let data = self.oram.access_managed(block, new_position, mutate, &mut self.sink)?;
        Ok(self.finish(start, Some(data)))
    }

    fn dummy_access(&mut self, start: u64) -> Result<BackendReply, OramError> {
        self.oram.dummy_access(&mut self.sink)?;
        Ok(self.finish(start, None))
    }

    fn engine(&self) -> &RingOram {
        &self.oram
    }

    fn engine_mut(&mut self) -> &mut RingOram {
        &mut self.oram
    }

    fn set_pipeline_depth(&mut self, depth: u8) {
        TimedBackend::set_pipeline_depth(self, depth);
    }

    fn pipeline_depth(&self) -> u8 {
        TimedBackend::pipeline_depth(self)
    }
}

/// Cost charged per 64 B transfer by the untimed backend's accounting
/// clock. The value is arbitrary but fixed: latencies are meaningful
/// relative to each other, not to the DRAM twin's cycles.
pub const UNTIMED_CYCLES_PER_TRANSFER: u64 = 4;

/// Fast accounted backend: the same protocol over a [`CountingSink`], with
/// a constant [`UNTIMED_CYCLES_PER_TRANSFER`] charged per 64 B transfer.
/// Accesses serialize: each begins no earlier than the previous access's
/// accounted drain (online and maintenance transfers alike).
#[derive(Debug)]
pub struct UntimedBackend {
    oram: RingOram,
    sink: CountingSink,
    /// When the previous access's accounted transfers finished.
    free_at: u64,
}

impl UntimedBackend {
    /// Builds a backend with a fresh engine for `cfg`.
    ///
    /// # Errors
    ///
    /// Propagates ORAM construction errors.
    pub fn new(cfg: &OramConfig) -> Result<Self, OramError> {
        Ok(Self::from_oram(RingOram::new(cfg)?))
    }

    /// Wraps an existing (e.g. pre-warmed) engine.
    pub fn from_oram(oram: RingOram) -> Self {
        UntimedBackend { oram, sink: CountingSink::new(), free_at: 0 }
    }

    fn finish(
        &mut self,
        at: u64,
        online0: u64,
        total0: u64,
        data: Option<[u8; BLOCK_BYTES]>,
    ) -> BackendReply {
        let online = self.sink.online_total() - online0;
        let total = self.sink.grand_total() - total0;
        let done = at + online * UNTIMED_CYCLES_PER_TRANSFER;
        self.free_at = at + total * UNTIMED_CYCLES_PER_TRANSFER;
        BackendReply { data, done }
    }
}

impl StorageBackend for UntimedBackend {
    fn access(
        &mut self,
        start: u64,
        kind: AccessKind,
        block: BlockId,
        new_data: Option<[u8; BLOCK_BYTES]>,
    ) -> Result<BackendReply, OramError> {
        let at = start.max(self.free_at);
        let (online0, total0) = (self.sink.online_total(), self.sink.grand_total());
        let data = self.oram.access(kind, block, new_data, &mut self.sink)?;
        Ok(self.finish(at, online0, total0, data))
    }

    fn access_managed(
        &mut self,
        start: u64,
        block: BlockId,
        new_position: Option<PathId>,
        mutate: &mut PayloadMutator<'_>,
    ) -> Result<BackendReply, OramError> {
        let at = start.max(self.free_at);
        let (online0, total0) = (self.sink.online_total(), self.sink.grand_total());
        let data = self.oram.access_managed(block, new_position, mutate, &mut self.sink)?;
        Ok(self.finish(at, online0, total0, Some(data)))
    }

    fn dummy_access(&mut self, start: u64) -> Result<BackendReply, OramError> {
        let at = start.max(self.free_at);
        let (online0, total0) = (self.sink.online_total(), self.sink.grand_total());
        self.oram.dummy_access(&mut self.sink)?;
        Ok(self.finish(at, online0, total0, None))
    }

    fn engine(&self) -> &RingOram {
        &self.oram
    }

    fn engine_mut(&mut self) -> &mut RingOram {
        &mut self.oram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn cfg() -> OramConfig {
        OramConfig::builder(8, Scheme::Ab).store_data(true).seed(5).build().unwrap()
    }

    #[test]
    fn both_backends_round_trip_data() {
        let mut timed = TimedBackend::new(&cfg(), DramConfig::default()).unwrap();
        let mut untimed = UntimedBackend::new(&cfg()).unwrap();
        let payload = [0x5A; BLOCK_BYTES];
        for backend in [&mut timed as &mut dyn StorageBackend, &mut untimed] {
            let w = backend.access(0, AccessKind::Write, 3, Some(payload)).unwrap();
            assert!(w.done > 0);
            let r = backend.access(w.done, AccessKind::Read, 3, None).unwrap();
            assert_eq!(r.data, Some(payload));
            assert!(r.done > w.done, "second access completes after the first");
        }
    }

    #[test]
    fn managed_access_mutates_in_one_access() {
        let mut backend = UntimedBackend::new(&cfg()).unwrap();
        backend.access(0, AccessKind::Write, 7, Some([1; BLOCK_BYTES])).unwrap();
        let accesses0 = backend.engine().stats().user_accesses;
        let reply = backend.access_managed(0, 7, Some(PathId::new(0)), &mut |d| d[0] = 99).unwrap();
        assert_eq!(reply.data.unwrap()[0], 1, "managed access returns the pre-mutate payload");
        assert_eq!(backend.engine().stats().user_accesses, accesses0 + 1, "one access total");
        assert_eq!(backend.engine().position_of(7).unwrap(), PathId::new(0), "forced remap");
        let read = backend.access(reply.done, AccessKind::Read, 7, None).unwrap();
        assert_eq!(read.data.unwrap()[0], 99, "mutation persisted");
    }

    #[test]
    fn pipelined_backend_round_trips_and_cuts_queueing() {
        let run = |depth: u8| {
            let mut b = TimedBackend::new(&cfg(), DramConfig::default()).unwrap();
            b.set_pipeline_depth(depth);
            let payload = [0x7E; BLOCK_BYTES];
            b.access(0, AccessKind::Write, 3, Some(payload)).unwrap();
            // A burst of back-to-back arrivals: queueing dominates.
            let mut sum = 0u64;
            let mut last = 0u64;
            for i in 0..24u64 {
                let r = b.access(i, AccessKind::Read, i % 8, None).unwrap();
                sum += r.done - i;
                last = last.max(r.done);
            }
            assert_eq!(
                b.access(last, AccessKind::Read, 3, None).unwrap().data,
                Some(payload),
                "depth {depth}: data survives pipelining"
            );
            let quiesced = b.quiesce();
            assert!(quiesced >= last, "quiesce covers every in-flight writeback");
            sum
        };
        let serial = run(1);
        let piped = run(4);
        assert!(piped < serial, "pipelining saved nothing: depth4 {piped} vs depth1 {serial}");
    }

    #[test]
    fn twin_retains_only_the_in_flight_window() {
        // A long-running service must not grow the twin's per-request
        // tables with its run length. Request counts per access are
        // protocol state, identical at every depth, and at depth 1 the twin
        // retains exactly the last access's requests, so the depth-1 run
        // measures the largest access.
        let cfg = OramConfig::builder(8, Scheme::AbChannelPar).seed(5).build().unwrap();
        let run = |depth: u8, bound: usize| {
            let mut b = TimedBackend::new(&cfg, DramConfig::default()).unwrap();
            b.set_pipeline_depth(depth);
            let mut largest = 0;
            for i in 0..3000u64 {
                b.access(i * 200, AccessKind::Read, i * 7 % 64, None).unwrap();
                let retained = b.sink.memory().retained();
                assert!(retained <= bound, "depth {depth}, access {i}: {retained} > {bound}");
                largest = largest.max(retained);
            }
            b.quiesce();
            assert_eq!(b.sink.memory().retained(), 0, "quiesce releases every request");
            (largest, b.sink.memory().stats().total_requests())
        };
        let (largest, total) = run(1, usize::MAX);
        assert!(largest as u64 * 50 < total, "largest access {largest} of {total} requests");
        let (_, total4) = run(4, 4 * largest);
        assert_eq!(total4, total);
    }

    #[test]
    fn controller_serializes_early_arrivals() {
        let mut backend = UntimedBackend::new(&cfg()).unwrap();
        let a = backend.access(0, AccessKind::Read, 1, None).unwrap();
        // Arrives while the controller is busy: starts once the first
        // access's maintenance transfers drained, not at cycle 1 — so its
        // latency exceeds the online-only latency the first access paid.
        let b = backend.access(1, AccessKind::Read, 2, None).unwrap();
        assert!(b.done - 1 > a.done, "b {} vs a {}", b.done, a.done);
    }
}
