//! The ORAM controller's access scheduler.
//!
//! One implementation of the controller the paper's timing results rest on
//! (§VII): it releases each staged access onto the DRAM twin, charges its
//! decrypt/verify pipeline, and holds it in an in-flight window while its
//! maintenance traffic drains. [`crate::TimingDriver`] (trace + CPU model)
//! and [`crate::TimedBackend`] (service layer) are its only callers.
//!
//! Depth 1 — the classic serialized controller — is this same path with a
//! window of one: the previous access leaves the window (all of its
//! requests served, its crypto exit passed) before the next may start.
//! Depth `d > 1` keeps up to `d` accesses in flight, bounded by true
//! dependencies only (DESIGN.md §15).

use crate::config::IssueMode;
use crate::sink::{IssuedRequest, TimingSink};
use aboram_crypto::CryptoLatency;
use aboram_dram::{MemOpKind, RequestId};
use std::collections::VecDeque;

/// A read of an in-flight access: `((channel, bank, row), id)`.
type IndexedRead = ((u8, u16, u64), RequestId);

/// One access in the in-flight window: its released requests, its crypto
/// exit, and — built on first use — its sorted reads, the locations a later
/// access's writeback must not overwrite before they are served.
#[derive(Debug)]
struct InflightAccess {
    reqs: Vec<IssuedRequest>,
    /// User-visible completion: the access's crypto exit.
    done: u64,
    read_index: Option<Vec<IndexedRead>>,
}

impl InflightAccess {
    /// The read index, sorted (channel-parallel releases are already in order).
    fn read_index(&mut self) -> &[IndexedRead] {
        let reqs = &self.reqs;
        self.read_index.get_or_insert_with(|| {
            let mut index: Vec<_> =
                reqs.iter().filter(|r| r.2 == MemOpKind::Read).map(|r| (r.1, r.0)).collect();
            index.sort_unstable();
            index
        })
    }
}

/// The ORAM controller: crypto model, occupancy floor, pipeline depth and
/// in-flight window (see module docs).
#[derive(Debug)]
pub(crate) struct AccessScheduler {
    crypto: CryptoLatency,
    /// Occupancy floor: every access retired by the last
    /// [`quiesce`](Self::quiesce) has drained its maintenance traffic and
    /// exited the crypto pipeline by this cycle.
    free_at: u64,
    /// Maximum concurrently in-flight accesses (≥ 1).
    depth: u8,
    /// Released accesses whose traffic may still be draining, oldest first.
    window: VecDeque<InflightAccess>,
    /// The stash hand-off gate: the previous access's last online DRAM
    /// reply (its decrypt/verify tail may still be draining).
    prev_online_done: u64,
    /// The crypto pipeline's last exit cycle, carried across accesses.
    crypto_exit: u64,
    /// Scratch for online-read completion times.
    completions: Vec<u64>,
    /// Scratch for the staged access's write footprint.
    footprint: Vec<(u8, u16, u64)>,
    /// A retired access's request buffer, recycled for the next access.
    spare: Vec<IssuedRequest>,
}

impl AccessScheduler {
    /// A depth-1 scheduler with `crypto` charging, idle since `free_at`.
    pub(crate) fn new(crypto: CryptoLatency, free_at: u64) -> Self {
        AccessScheduler {
            crypto,
            free_at,
            depth: 1,
            window: VecDeque::new(),
            prev_online_done: 0,
            crypto_exit: 0,
            completions: Vec::new(),
            footprint: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The crypto latency model in force.
    pub(crate) fn crypto(&self) -> CryptoLatency {
        self.crypto
    }

    /// Replaces the crypto latency model.
    pub(crate) fn set_crypto(&mut self, crypto: CryptoLatency) {
        self.crypto = crypto;
    }

    /// The occupancy floor left by the last [`quiesce`](Self::quiesce).
    pub(crate) fn free_at(&self) -> u64 {
        self.free_at
    }

    /// Sets the window size (`0` clamps to 1). A lower depth needs no
    /// drain: the next access's overflow gate retires as many accesses as
    /// the new window requires.
    pub(crate) fn set_depth(&mut self, depth: u8) {
        self.depth = depth.max(1);
    }

    /// The window size in force.
    pub(crate) fn depth(&self) -> u8 {
        self.depth
    }

    /// Whether no access is in flight.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.window.is_empty()
    }

    /// Releases the access staged in `sink` and returns its `(start, done)`
    /// cycles: `start` is when its requests arrive at the DRAM twin, `done`
    /// when its last online block exits the decrypt/verify pipeline.
    ///
    /// `start` is the max of the gates:
    /// * **issue** — the requester's arrival cycle;
    /// * **monotone starts** — the previous release (`sink.now()`), so the
    ///   twin's non-decreasing-arrival contract holds;
    /// * **stash hand-off** — the previous access's last online reply;
    /// * **window overflow** — when `depth` accesses are in flight, the
    ///   oldest retires first: all of its requests served *and* its crypto
    ///   exit passed (at depth 1 this is the serialized controller);
    /// * **write-after-read** — [`conflict_gate`](Self::conflict_gate)
    ///   against every access still in flight.
    pub(crate) fn schedule(&mut self, sink: &mut TimingSink, issue: u64) -> (u64, u64) {
        let mut gate = issue.max(sink.now()).max(self.prev_online_done).max(self.free_at);
        while self.window.len() >= usize::from(self.depth) {
            let old = self.window.pop_front().expect("non-empty window");
            gate = gate.max(Self::retire(sink, &old));
            self.spare = old.reqs;
        }
        self.forget_retired(sink);
        // Footprints are only worth computing when something is still in
        // flight — never at depth 1.
        if !self.window.is_empty() {
            sink.staged_write_footprint(&mut self.footprint);
            for entry in &mut self.window {
                let reads = entry.read_index();
                gate = gate.max(Self::conflict_gate(reads, &self.footprint, |id| {
                    sink.completion_time(id)
                }));
            }
        }
        let start = gate;
        sink.release_at(start);

        // Online completion + crypto exit, with the pipeline's busy floor
        // carried across access boundaries — back-to-back accesses share
        // one decrypt/verify pipeline.
        sink.drain_online_read_times(&mut self.completions);
        let n = self.completions.len() as u64;
        let last = self.completions.iter().max().copied().unwrap_or(0).max(start);
        let done = if n == 0 {
            start
        } else {
            let done = match sink.issue_mode() {
                // The whole burst after the last reply, floored by the busy
                // pipeline.
                IssueMode::Serial => (last + self.crypto.burst_cycles(n))
                    .max(self.crypto_exit + n * self.crypto.per_block),
                // Each block enters the pipeline as its channel returns it,
                // so only the tail DRAM could not hide stays exposed.
                IssueMode::ChannelParallel => {
                    let serial_done = last + self.crypto.burst_cycles(n);
                    let done = self
                        .crypto
                        .overlapped_exit_from(self.crypto_exit, &mut self.completions)
                        .max(start);
                    aboram_telemetry::counter_add(
                        "crypto.overlap_saved_cycles",
                        serial_done.saturating_sub(done),
                    );
                    aboram_telemetry::counter_add("crypto.overlapped_blocks", n);
                    done
                }
            };
            self.crypto_exit = done;
            done
        };
        self.prev_online_done = last;

        let reqs = sink.take_issued(std::mem::take(&mut self.spare));
        self.window.push_back(InflightAccess { reqs, done, read_index: None });
        aboram_telemetry::observe_level("pipeline.occupancy", self.window.len().min(255) as u8, 1);
        (start, done)
    }

    /// Retires every in-flight access and folds the completions into the
    /// occupancy floor, which it returns — end-of-run draining.
    pub(crate) fn quiesce(&mut self, sink: &mut TimingSink) -> u64 {
        let mut free = self.free_at.max(self.prev_online_done).max(self.crypto_exit);
        while let Some(entry) = self.window.pop_front() {
            free = free.max(Self::retire(sink, &entry));
        }
        self.forget_retired(sink);
        self.free_at = free;
        free
    }

    /// Lets the twin forget every request older than the window's oldest:
    /// [`retire`](Self::retire) forced all their completions, in FIFO order.
    fn forget_retired(&self, sink: &mut TimingSink) {
        sink.forget_before(self.window.iter().find_map(|a| a.reqs.first()).map(|r| r.0));
    }

    /// An in-flight access's full completion: the latest completion over
    /// all of its requests, reads and writebacks alike, and its crypto
    /// exit. Forcing the lazy completion times here is what makes the
    /// window-overflow gate a true dependency.
    fn retire(sink: &mut TimingSink, entry: &InflightAccess) -> u64 {
        entry.reqs.iter().map(|&(id, _, _)| sink.completion_time(id)).fold(entry.done, u64::max)
    }

    /// The earliest cycle at which a new access writing `write_footprint`
    /// may issue without overwriting a location an in-flight access has not
    /// finished reading: the latest `completion` over exactly its `reads`
    /// (read index) in the shared rows, zero when disjoint — one merge-join.
    ///
    /// Write-after-read is the one DRAM-level hazard the window orders
    /// explicitly. Read-after-write needs no gate — a read of a location
    /// with a pending writeback is served from the controller's write
    /// queue (and the protocol state it would observe is already on chip:
    /// the stash hand-off gate runs strictly later than the forwarding
    /// point). Write-after-write needs none either: per-bank queues serve
    /// same-row writes in arrival order. Gating on the conflicting
    /// access's *writes* would instead re-serialize the controller — every
    /// pair of paths shares rows near the root, and offline writebacks are
    /// deprioritized to the end of the drain.
    fn conflict_gate(
        reads: &[IndexedRead],
        write_footprint: &[(u8, u16, u64)],
        mut completion: impl FnMut(RequestId) -> u64,
    ) -> u64 {
        let (mut gate, mut i) = (0, 0);
        for &row in write_footprint {
            while i < reads.len() && reads[i].0 <= row {
                if reads[i].0 == row {
                    gate = gate.max(completion(reads[i].1));
                }
                i += 1;
            }
        }
        gate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{MemorySink, OramOp};
    use aboram_dram::{DramConfig, MemorySystem, Priority};
    use aboram_tree::SlotAddr;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The gate as it was before the read index: intersect the access's
    /// deduplicated read footprint with the write footprint, then rescan
    /// every request and force the reads whose row the writes touch.
    fn reference_gate(
        reqs: &[IssuedRequest],
        write_footprint: &[(u8, u16, u64)],
        mut completion: impl FnMut(RequestId) -> u64,
    ) -> u64 {
        let mut reads: Vec<(u8, u16, u64)> =
            reqs.iter().filter(|r| r.2 == MemOpKind::Read).map(|r| r.1).collect();
        reads.sort_unstable();
        reads.dedup();
        let intersect = {
            let (mut i, mut j) = (0, 0);
            loop {
                if i == reads.len() || j == write_footprint.len() {
                    break false;
                }
                match reads[i].cmp(&write_footprint[j]) {
                    std::cmp::Ordering::Equal => break true,
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                }
            }
        };
        let mut gate = 0;
        if intersect {
            for &(id, key, kind) in reqs {
                if kind == MemOpKind::Read && write_footprint.binary_search(&key).is_ok() {
                    gate = gate.max(completion(id));
                }
            }
        }
        gate
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The merge-join over the read index yields the same gate and
        /// forces exactly the same request ids as the per-request scan, for
        /// in-flight accesses released in program order or grouped by row
        /// (channel-parallel issue), with repeated rows on both sides.
        #[test]
        fn conflict_gate_matches_per_request_scan(
            raw_reqs in proptest::collection::vec(((0u8..2, 0u16..3, 0u64..4), any::<bool>(), 0u64..10_000), 0..64),
            raw_writes in proptest::collection::vec((0u8..2, 0u16..3, 0u64..4), 0..24),
            channel_parallel in any::<bool>(),
        ) {
            let mut raw_reqs = raw_reqs;
            if channel_parallel {
                raw_reqs.sort_by_key(|r| r.0);
            }
            // Real ids from a twin, allocated in release order.
            let mut mem = MemorySystem::new(DramConfig::default());
            let mut times = HashMap::new();
            let reqs: Vec<IssuedRequest> = raw_reqs
                .iter()
                .map(|&(key, write, t)| {
                    let kind = if write { MemOpKind::Write } else { MemOpKind::Read };
                    let id = mem.enqueue(kind, 0, Priority::Online, 0, 0);
                    times.insert(id, t);
                    (id, key, kind)
                })
                .collect();
            let mut writes = raw_writes;
            writes.sort_unstable();
            writes.dedup();

            let mut expected_forced = Vec::new();
            let expected = reference_gate(&reqs, &writes, |id| {
                expected_forced.push(id);
                times[&id]
            });
            let mut access = InflightAccess { reqs, done: 0, read_index: None };
            let mut forced = Vec::new();
            let gate = AccessScheduler::conflict_gate(access.read_index(), &writes, |id| {
                forced.push(id);
                times[&id]
            });
            prop_assert_eq!(gate, expected);
            expected_forced.sort_unstable();
            forced.sort_unstable();
            prop_assert_eq!(forced, expected_forced);
        }
    }

    #[test]
    fn depth_one_waits_for_the_previous_crypto_exit() {
        // A crypto pipeline whose exit outlasts every access's DRAM
        // traffic: the serialized controller must still wait for it.
        let mut sink = TimingSink::new(MemorySystem::new(DramConfig::default()));
        let mut sched = AccessScheduler::new(CryptoLatency::new(4000, 10), 0);
        let mut prev_done = 0;
        for i in 0..6u64 {
            // One access: online path reads and offline writebacks.
            for b in 0..8 {
                sink.read(SlotAddr((i * 8 + b) * 4096), OramOp::ReadPath, true);
                sink.write(SlotAddr((i * 8 + b) * 4096 + 64), OramOp::EvictPath, false);
            }
            let (start, done) = sched.schedule(&mut sink, 0);
            assert!(start >= prev_done, "access {i} started at {start} before {prev_done}");
            assert!(done >= start + 4000);
            prev_done = done;
        }
        assert!(sched.quiesce(&mut sink) >= prev_done);
        assert!(sched.is_quiescent() && sink.is_idle());
    }
}
