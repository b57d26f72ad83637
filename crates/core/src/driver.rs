//! Cycle-level simulation driver: trace CPU → ORAM controller → DRAM.
//!
//! Reproduces the paper's USIMM-based methodology (§VII): a trace-driven
//! core (fetch 4 / ROB 256) issues LLC misses; each miss becomes one Ring
//! ORAM access whose online portion blocks the core while maintenance
//! traffic drains in the background; a cycle-level DRAM model arbitrates
//! everything. Execution time, the Fig. 8c operation breakdown and the
//! Fig. 9 bandwidth numbers all come from here.

use crate::config::{IssueMode, OramConfig};
use crate::error::OramError;
use crate::fault::{FaultInjectingSink, FaultPlan, InjectedFaults};
use crate::ring::{AccessKind, RingOram};
use crate::scheduler::AccessScheduler;
use crate::sink::{OramOp, TimingSink};
use aboram_crypto::CryptoLatency;
use aboram_dram::{DramConfig, MemorySystem, RobCpu};
use aboram_stats::{HealthState, RecoveryStats};
use aboram_trace::{MemOp, TraceRecord};

/// Bus-cycle attribution per protocol operation (Fig. 8c's stacked bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakdownReport {
    /// Data-bus cycles consumed by each [`OramOp`] (indexed by tag).
    pub bus_cycles: [u64; 5],
}

impl BreakdownReport {
    /// Total attributed bus cycles.
    pub fn total(&self) -> u64 {
        self.bus_cycles.iter().sum()
    }

    /// The fraction of traffic belonging to `op`.
    pub fn fraction(&self, op: OramOp) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.bus_cycles[op.tag() as usize] as f64 / t as f64
        }
    }
}

/// End-of-run results of one timing simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// Trace records executed.
    pub records: u64,
    /// Instructions the trace represents (gaps plus memory ops).
    pub instructions: u64,
    /// Execution time in CPU cycles (all instructions retired).
    pub exec_cycles: u64,
    /// Per-operation bus attribution.
    pub breakdown: BreakdownReport,
    /// Total bytes moved on the memory bus.
    pub bytes_transferred: u64,
    /// DRAM row-buffer hit rate.
    pub row_hit_rate: f64,
    /// User ORAM accesses performed.
    pub user_accesses: u64,
    /// Background (dummy) accesses injected.
    pub background_accesses: u64,
    /// evictPath operations.
    pub evict_paths: u64,
    /// earlyReshuffle operations (all levels).
    pub early_reshuffles: u64,
    /// Peak stash occupancy.
    pub stash_peak: usize,
    /// Sum over timed records of each access's user-visible critical-path
    /// latency — online reads plus the decrypt/verify pipeline — in CPU
    /// cycles. [`exec_cycles`](Self::exec_cycles) tracks controller
    /// occupancy (maintenance traffic included); this tracks what the core
    /// actually waits on, which is where the channel-parallel issue mode's
    /// crypto/DRAM overlap shows up.
    pub online_latency_cycles: u64,
    /// Sum over timed records of each access's *response* latency — from
    /// the cycle the core issued the miss to the cycle its data exited the
    /// decrypt/verify pipeline — in CPU cycles. Unlike
    /// [`online_latency_cycles`](Self::online_latency_cycles) (which starts
    /// counting when the controller accepts the access) this includes the
    /// queueing delay behind earlier accesses, so it is the metric the
    /// access-pipelined mode improves: starting access *i+1* under access
    /// *i*'s writeback removes queueing the serial controller charges.
    pub response_latency_cycles: u64,
    /// Fault-recovery counters accumulated during the timed window (all
    /// zero unless fault injection was enabled).
    pub recovery: RecoveryStats,
    /// Engine health at the end of the run: `Degraded` when any fault
    /// exhausted the recovery ladder and a subtree was poisoned (integrity
    /// mode only; always `Healthy` otherwise).
    pub health: HealthState,
}

impl SimulationReport {
    /// Achieved bandwidth in bytes per CPU cycle.
    pub fn bandwidth(&self) -> f64 {
        if self.exec_cycles == 0 {
            0.0
        } else {
            self.bytes_transferred as f64 / self.exec_cycles as f64
        }
    }

    /// Instructions per cycle — the USIMM-style performance summary (tiny
    /// under ORAM, which is the point the paper's slowdown plots make).
    pub fn ipc(&self) -> f64 {
        if self.exec_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.exec_cycles as f64
        }
    }

    /// Mean user-visible access latency in CPU cycles (online reads plus
    /// crypto pipeline, averaged over the timed records).
    pub fn mean_online_latency(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.online_latency_cycles as f64 / self.records as f64
        }
    }

    /// Mean issue-to-data response latency in CPU cycles (controller
    /// queueing included, averaged over the timed records) — the
    /// batch-completion metric the access-pipelined mode moves.
    pub fn mean_response_latency(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.response_latency_cycles as f64 / self.records as f64
        }
    }
}

/// Driver snapshot format version. Bump whenever the driver's simulated
/// behavior changes (core model, crypto charging, controller serialization)
/// so stale cached full-system state is never replayed. The embedded engine
/// and memory-system streams carry their own versions.
///
/// v2: rides the engine-snapshot v2 bump (recovery ladder counters).
///
/// v3: rides the engine-snapshot v3 bump (auto-scaling trees — growth
/// counters and `GrowthConfig`-covering config digests).
///
/// v4: the sink's effective [`IssueMode`] joined the stream (channel-
/// parallel issue + crypto/DRAM overlap), so mid-campaign restores of an
/// overridden issue mode replay cycle-identically.
///
/// v5: the access-pipeline depth joined the stream. The in-flight window
/// itself is run-local (snapshots are quiescent-only), so the depth knob is
/// the only new state.
pub const DRIVER_SNAPSHOT_VERSION: u32 = 5;

/// Magic bytes opening every full-driver snapshot stream.
const DRIVER_SNAPSHOT_MAGIC: [u8; 4] = *b"ABSD";

/// Drives an LLC-miss trace through a [`RingOram`] engine over the
/// cycle-level memory system.
///
/// # Example
///
/// ```
/// use aboram_core::{OramConfig, Scheme, TimingDriver};
/// use aboram_dram::DramConfig;
/// use aboram_trace::{TraceGenerator, profiles};
///
/// let cfg = OramConfig::builder(10, Scheme::Baseline).build().unwrap();
/// let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
/// let profile = &profiles::spec2017()[0];
/// let mut gen = TraceGenerator::new(profile, 1);
/// let report = driver.run((0..200).map(|_| gen.next_record())).unwrap();
/// assert!(report.exec_cycles > 0);
/// assert!(report.user_accesses == 200);
/// ```
#[derive(Debug)]
pub struct TimingDriver {
    oram: RingOram,
    sink: FaultInjectingSink<TimingSink>,
    cpu: RobCpu,
    /// The ORAM controller: crypto model, in-flight window and dependency
    /// gates. Between runs the window is empty and its occupancy floor is
    /// when the last access's maintenance traffic finished draining.
    scheduler: AccessScheduler,
    /// Optional recursive position-map model (extension study; the paper
    /// keeps the posmap fully on-chip).
    posmap_model: Option<crate::recursion::PosMapHierarchy>,
}

impl TimingDriver {
    /// Builds the driver with the Table III core model (fetch 4, ROB 256)
    /// and default crypto-engine latency.
    ///
    /// # Errors
    ///
    /// Propagates ORAM construction errors.
    pub fn new(cfg: &OramConfig, dram: DramConfig) -> Result<Self, OramError> {
        Ok(Self::from_oram(RingOram::new(cfg)?, dram))
    }

    /// Builds a driver around an existing (e.g. pre-warmed) engine — lets a
    /// parameter sweep warm the protocol state once and reuse it across
    /// timed runs.
    pub fn from_oram(oram: RingOram, dram: DramConfig) -> Self {
        let mut sink = TimingSink::new(MemorySystem::new(dram));
        sink.set_issue_mode(oram.config().scheme.issue_mode());
        TimingDriver {
            oram,
            sink: FaultInjectingSink::new(sink),
            cpu: RobCpu::new(4, 256),
            scheduler: AccessScheduler::new(CryptoLatency::default(), 0),
            posmap_model: None,
        }
    }

    /// Overrides the issue mode the scheme selected — the differential
    /// harness uses this to run every scheme under both modes against the
    /// same trace.
    pub fn set_issue_mode(&mut self, mode: IssueMode) {
        self.sink.inner_mut().set_issue_mode(mode);
    }

    /// The issue mode in force.
    pub fn issue_mode(&self) -> IssueMode {
        self.sink.inner().issue_mode()
    }

    /// Sets the access-pipeline depth: the maximum number of concurrently
    /// in-flight accesses. Depth 1 (the default, and `0` clamps to it) is
    /// the classic serialized controller: an access starts only after the
    /// previous one's maintenance traffic drained and its crypto exit
    /// passed. Depth > 1 lets access *i+1*'s read phase issue while access
    /// *i*'s eviction/writeback and decrypt/verify pipeline drain, bounded
    /// by true dependencies: the stash hand-off (an access starts no
    /// earlier than the previous access's last online DRAM reply),
    /// write-after-read `(channel, bank, row)` conflicts (a writeback waits
    /// for exactly the in-flight reads of the rows it overwrites), and the
    /// window itself. The request set and intra-access order of every
    /// access are unchanged — only the inter-access issue schedule shifts,
    /// which is already public (DESIGN.md §15).
    pub fn set_pipeline_depth(&mut self, depth: u8) {
        self.scheduler.set_depth(depth);
    }

    /// The access-pipeline depth in force.
    pub fn pipeline_depth(&self) -> u8 {
        self.scheduler.depth()
    }

    /// Activates chaos testing: installs `plan`'s channel-stall schedule
    /// into the memory system and arms the fault injector, so the next
    /// [`run`](Self::run) executes under the plan's fault schedule. The
    /// resulting [`SimulationReport::recovery`] block quantifies the
    /// degraded-mode overhead.
    pub fn enable_faults(&mut self, plan: FaultPlan) {
        let channels = usize::from(self.sink.inner().memory().config().channels);
        for s in plan.stall_schedule(channels) {
            self.sink.inner_mut().memory_mut().inject_channel_stall(s.channel, s.at, s.duration);
        }
        self.sink.set_plan(Some(plan));
    }

    /// Faults the injector has introduced so far (zero without
    /// [`enable_faults`](Self::enable_faults)).
    pub fn injected_faults(&self) -> InjectedFaults {
        self.sink.injected()
    }

    /// Arms integrity verification on the engine: per-bucket MAC tags are
    /// checked on every readPath / evictPath / earlyReshuffle fetch and
    /// folded into the stash-rooted per-level digest chain, and faulted
    /// transfers go through the full recovery ladder (redundant refetch,
    /// escalated eviction, graceful degradation) instead of aborting.
    /// Idempotent; a fault-free verified run is bit-identical to an
    /// unverified one.
    pub fn enable_integrity(&mut self) {
        self.oram.enable_integrity();
    }

    /// Engine health: `Degraded` once any fault exhausts the recovery
    /// ladder under integrity verification, `Healthy` otherwise.
    pub fn health(&self) -> HealthState {
        self.oram.health()
    }

    /// Enables the recursive position-map extension: PLB misses charge
    /// additional (dummy) ORAM accesses, quantifying the cost the paper's
    /// on-chip-posmap assumption hides.
    pub fn enable_posmap_recursion(&mut self, cfg: crate::recursion::PlbConfig) {
        self.posmap_model = Some(crate::recursion::PosMapHierarchy::new(
            self.oram.config().real_block_count(),
            cfg,
        ));
    }

    /// The recursive position-map model, if enabled.
    pub fn posmap_model(&self) -> Option<&crate::recursion::PosMapHierarchy> {
        self.posmap_model.as_ref()
    }

    /// Replaces the crypto latency model (e.g. [`CryptoLatency::free`] to
    /// isolate DRAM effects).
    pub fn set_crypto_latency(&mut self, lat: CryptoLatency) {
        self.scheduler.set_crypto(lat);
    }

    /// Access to the engine (stats inspection, warm-up by protocol access).
    pub fn oram_mut(&mut self) -> &mut RingOram {
        &mut self.oram
    }

    /// Appends a new zeroed block, lazily growing the tree one level when
    /// the configured utilization threshold would be crossed (see
    /// [`RingOram::insert_block`]). The grown level's physical extents sit
    /// past the old layout high-water mark; the DRAM twin's address decoder
    /// is capacity-agnostic, so the new addresses route through the existing
    /// channel/bank map with no driver-side remapping. Inserts generate no
    /// timed memory traffic; the relocation backlog drains through
    /// subsequent accesses' eviction work as usual.
    ///
    /// # Errors
    ///
    /// Propagates [`OramError::CapacityExhausted`] /
    /// [`OramError::StashOverflow`] from the engine.
    pub fn insert_block(
        &mut self,
        position: Option<aboram_tree::PathId>,
    ) -> Result<crate::BlockId, OramError> {
        self.oram.insert_block(position)
    }

    /// Serializes the *entire* driver — engine protocol state, the DRAM
    /// twin's scheduler state, the core's execution cursors, the crypto
    /// model and the controller-occupancy cursor — so that
    /// [`restore`](Self::restore) followed by any trace is cycle-identical
    /// to this instance running the same trace. This is the full-system
    /// flavor of the engine snapshot: a warm restore skips not just the
    /// protocol warm-up but the whole `TimingDriver` reconstruction.
    ///
    /// Snapshots are quiescent-only (every issued request drained — true
    /// between [`run`](Self::run) calls) and refuse extension state that is
    /// not serialized: an armed fault plan or the recursive position-map
    /// model.
    ///
    /// # Errors
    ///
    /// Fails with [`OramError::SnapshotInvalid`] when the driver is not
    /// quiescent or carries non-snapshottable extension state, and
    /// propagates engine snapshot refusals (`store_data`).
    pub fn snapshot(&self) -> Result<Vec<u8>, OramError> {
        use crate::snapshot::{seal, Writer};
        if self.posmap_model.is_some() {
            return Err(OramError::SnapshotInvalid {
                reason: "recursive position-map state is not snapshottable".to_string(),
            });
        }
        if self.sink.plan().is_some() {
            return Err(OramError::SnapshotInvalid {
                reason: "fault-injection plan is armed; snapshots cover fault-free state only"
                    .to_string(),
            });
        }
        let sink = self.sink.inner();
        if !sink.is_idle() || !self.scheduler.is_quiescent() {
            return Err(OramError::SnapshotInvalid {
                reason: "driver has undrained requests; finish the run first".to_string(),
            });
        }
        let engine = self.oram.snapshot()?;
        let memory = sink.memory().snapshot().map_err(OramError::from)?;
        let mut w = Writer::new();
        w.bytes(&DRIVER_SNAPSHOT_MAGIC);
        w.u32(DRIVER_SNAPSHOT_VERSION);
        let crypto = self.scheduler.crypto();
        w.u64(crypto.pipeline_fill);
        w.u64(crypto.per_block);
        w.u64(self.scheduler.free_at());
        w.u64(sink.now());
        w.u8(match sink.issue_mode() {
            IssueMode::Serial => 0,
            IssueMode::ChannelParallel => 1,
        });
        w.u8(self.scheduler.depth());
        self.cpu.snapshot_into(&mut w);
        w.u64(engine.len() as u64);
        w.bytes(&engine);
        w.u64(memory.len() as u64);
        w.bytes(&memory);
        Ok(seal(w))
    }

    /// Rebuilds a driver from [`snapshot`](Self::snapshot) bytes taken
    /// under identical ORAM and DRAM configurations.
    ///
    /// # Errors
    ///
    /// Fails with [`OramError::SnapshotInvalid`] on truncation, corruption,
    /// a version mismatch, or configuration digests that disagree with
    /// `cfg`/`dram`.
    pub fn restore(cfg: &OramConfig, dram: DramConfig, bytes: &[u8]) -> Result<Self, OramError> {
        use crate::snapshot::{verify_sealed, Reader};
        let body = verify_sealed(bytes)?;
        let mut r = Reader::new(body);
        if r.bytes(4)? != DRIVER_SNAPSHOT_MAGIC {
            return Err(OramError::SnapshotInvalid { reason: "bad driver magic".to_string() });
        }
        let version = r.u32()?;
        if version != DRIVER_SNAPSHOT_VERSION {
            return Err(OramError::SnapshotInvalid {
                reason: format!(
                    "driver snapshot version {version}, driver expects {DRIVER_SNAPSHOT_VERSION}"
                ),
            });
        }
        let crypto = CryptoLatency::new(r.u64()?, r.u64()?);
        let free_at = r.u64()?;
        let now = r.u64()?;
        let issue_mode = match r.u8()? {
            0 => IssueMode::Serial,
            1 => IssueMode::ChannelParallel,
            other => {
                return Err(OramError::SnapshotInvalid {
                    reason: format!("unknown issue mode {other}"),
                })
            }
        };
        let pipeline_depth = r.u8()?;
        let cpu = aboram_dram::RobCpu::restore_from(&mut r).map_err(OramError::from)?;
        let engine_len = r.len_prefix(1)?;
        let oram = RingOram::restore(cfg, r.bytes(engine_len)?)?;
        let memory_len = r.len_prefix(1)?;
        let memory = MemorySystem::restore(dram, r.bytes(memory_len)?).map_err(OramError::from)?;
        if r.remaining() != 0 {
            return Err(OramError::SnapshotInvalid {
                reason: "trailing bytes after driver body".to_string(),
            });
        }
        let mut sink = TimingSink::new(memory);
        sink.set_now(now);
        sink.set_issue_mode(issue_mode);
        let mut scheduler = AccessScheduler::new(crypto, free_at);
        scheduler.set_depth(pipeline_depth);
        Ok(TimingDriver {
            oram,
            sink: FaultInjectingSink::new(sink),
            cpu,
            scheduler,
            posmap_model: None,
        })
    }

    /// The underlying memory system's statistics (final after
    /// [`run`](Self::run) returns; used e.g. by the energy model).
    pub fn memory_stats(&self) -> &aboram_dram::MemoryStats {
        self.sink.inner().memory().stats()
    }

    /// XOR applied to the engine seed to derive [`warm_up`]'s RNG seed.
    /// Exposed so external warm-up replays (e.g. a snapshot cache) can
    /// reproduce the exact access stream `warm_up` would generate.
    ///
    /// [`warm_up`]: Self::warm_up
    pub const WARM_UP_SEED_XOR: u64 = 0x3aa3_5717;

    /// Warms the ORAM protocol state with `accesses` uniform random
    /// accesses that generate no timed memory traffic — the paper's §VII
    /// methodology (38 M of 40 M trace records warm the tree before the
    /// timed window).
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (stash overflow).
    pub fn warm_up(&mut self, accesses: u64) -> Result<(), OramError> {
        use rand::{Rng, SeedableRng};
        let mut sink = crate::sink::CountingSink::new();
        let blocks = self.oram.block_count();
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(self.oram.config().seed ^ Self::WARM_UP_SEED_XOR);
        for _ in 0..accesses {
            let block = rng.gen_range(0..blocks);
            self.oram.access(AccessKind::Read, block, None, &mut sink)?;
        }
        Ok(())
    }

    /// Runs the trace to completion and reports results.
    ///
    /// # Errors
    ///
    /// Propagates ORAM protocol errors (overflow, integrity).
    pub fn run(
        &mut self,
        trace: impl IntoIterator<Item = TraceRecord>,
    ) -> Result<SimulationReport, OramError> {
        let mut records = 0u64;
        let mut instructions = 0u64;
        // Populated blocks, not tree capacity: identical for fixed-capacity
        // engines (fully materialized at construction), and the only valid
        // address range for a partially filled auto-scaling tree.
        let block_count = self.oram.block_count();
        // Telemetry run header: the constant per-request bus occupancy (in
        // CPU cycles) lets the perf-report pipeline turn request counts into
        // exact bus-cycle attributions.
        {
            let dram_cfg = self.sink.inner().memory().config();
            let burst_cpu = dram_cfg.to_cpu_cycles(dram_cfg.timing.burst);
            let scheme = self.oram.config().scheme.to_string();
            aboram_telemetry::begin_run(&scheme, self.oram.config().levels, burst_cpu);
        }
        // Bus cycles already attributed before this run (driver reuse): the
        // end-of-run telemetry summary reports the delta.
        let bus0: u64 = {
            let mem = self.sink.inner().memory().stats();
            OramOp::ALL.iter().map(|op| mem.bus_cycles_for_tag(op.tag())).sum()
        };
        // Per-channel/per-bank occupancy already accumulated before this run
        // (driver reuse): end-of-run histograms report the delta.
        let (ch_req0, ch_bus0, bank_req0) = {
            let mem = self.sink.inner().memory().stats();
            (
                mem.requests_by_channel().to_vec(),
                mem.bus_cycles_by_channel().to_vec(),
                mem.requests_by_bank().to_vec(),
            )
        };
        let mut online_latency_cycles = 0u64;
        let mut response_latency_cycles = 0u64;
        // Snapshot so the report covers the timed window only, not warm-up.
        let (users0, bg0, evicts0, resh0, recovery0) = {
            let s = self.oram.stats();
            (
                s.user_accesses,
                s.background_accesses,
                s.evict_paths,
                s.reshuffles.total(),
                s.recovery,
            )
        };
        for rec in trace {
            records += 1;
            instructions += u64::from(rec.inst_gap) + 1;
            aboram_telemetry::record_mark();
            let issue = self.cpu.issue_op(rec.inst_gap);

            // Every LLC miss (read or writeback) is one ORAM access.
            let block = (rec.addr / 64) % block_count;
            let kind = match rec.op {
                MemOp::Read => AccessKind::Read,
                MemOp::Write => AccessKind::Write,
            };

            // Stage the whole access — recursive position-map fetches
            // (extension study) first, each PLB miss one more full access,
            // in parent→child program order — then let the controller fix
            // its arrival cycle and charge its crypto pipeline.
            if let Some(model) = &mut self.posmap_model {
                for _ in 0..model.access(block) {
                    self.oram.dummy_access(&mut self.sink)?;
                }
            }
            self.oram.access(kind, block, None, &mut self.sink)?;
            let (start, done) = self.scheduler.schedule(self.sink.inner_mut(), issue);

            online_latency_cycles += done.saturating_sub(start);
            response_latency_cycles += done.saturating_sub(issue);
            if rec.op == MemOp::Read {
                self.cpu.complete_read_at(done);
            }
        }

        // Drain the in-flight window: the controller is free once every
        // access's maintenance traffic has been serviced.
        let free_at = self.scheduler.quiesce(self.sink.inner_mut());
        let exec_cycles = self.cpu.finish().max(free_at);
        self.sink.inner_mut().memory_mut().drain();
        let mem = self.sink.inner().memory().stats();
        let mut breakdown = BreakdownReport::default();
        for op in OramOp::ALL {
            breakdown.bus_cycles[op.tag() as usize] = mem.bus_cycles_for_tag(op.tag());
        }
        // Per-channel/per-bank occupancy for this run (delta against the
        // pre-run snapshot), surfaced as per-level histograms the perf
        // report renders directly. Levels are u8; bank ids past 255 (not
        // reachable with the twin's configurations) would saturate.
        let emit_delta = |name: &'static str, now: &[u64], before: &[u64]| {
            for (i, &v) in now.iter().enumerate() {
                let delta = v - before.get(i).copied().unwrap_or(0);
                if delta > 0 {
                    aboram_telemetry::observe_level(name, i.min(255) as u8, delta);
                }
            }
        };
        emit_delta("dram.channel_requests", mem.requests_by_channel(), &ch_req0);
        emit_delta("dram.channel_bus_cycles", mem.bus_cycles_by_channel(), &ch_bus0);
        emit_delta("dram.bank_requests", mem.requests_by_bank(), &bank_req0);
        aboram_telemetry::end_run(exec_cycles, breakdown.total() - bus0);
        let s = self.oram.stats();
        Ok(SimulationReport {
            records,
            instructions,
            exec_cycles,
            breakdown,
            bytes_transferred: mem.bytes_transferred(),
            row_hit_rate: mem.row_hit_rate(),
            user_accesses: s.user_accesses - users0,
            background_accesses: s.background_accesses - bg0,
            evict_paths: s.evict_paths - evicts0,
            early_reshuffles: s.reshuffles.total() - resh0,
            stash_peak: self.oram.stash_peak(),
            online_latency_cycles,
            response_latency_cycles,
            recovery: s.recovery.since(&recovery0),
            health: self.oram.health(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;
    use aboram_trace::{profiles, TraceGenerator};

    fn small_run(scheme: Scheme, n: usize) -> SimulationReport {
        let cfg = OramConfig::builder(10, scheme).seed(7).build().unwrap();
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
        let mut gen = TraceGenerator::new(&profile, 3);
        driver.run((0..n).map(|_| gen.next_record())).unwrap()
    }

    #[test]
    fn produces_nonzero_timing_and_traffic() {
        let r = small_run(Scheme::Baseline, 300);
        assert_eq!(r.records, 300);
        assert_eq!(r.user_accesses, 300);
        assert!(r.exec_cycles > 0);
        assert!(r.bytes_transferred > 0);
        assert!(r.evict_paths >= 300 / 5 - 1);
        assert!(r.breakdown.total() > 0);
        assert!(r.breakdown.fraction(OramOp::ReadPath) > 0.0);
        assert!(r.breakdown.fraction(OramOp::EvictPath) > 0.0);
        assert!(r.bandwidth() > 0.0);
    }

    #[test]
    fn oram_latency_dominates_plain_dram() {
        // An ORAM access takes thousands of cycles; 100 accesses must take
        // far longer than 100 plain DRAM reads would.
        let r = small_run(Scheme::Baseline, 100);
        assert!(r.exec_cycles > 100 * 200, "exec = {}", r.exec_cycles);
    }

    #[test]
    fn ab_scheme_runs_end_to_end() {
        let r = small_run(Scheme::Ab, 300);
        assert_eq!(r.user_accesses, 300);
        assert!(r.early_reshuffles > 0, "shrunken buckets must reshuffle");
    }

    #[test]
    fn channel_parallel_is_no_slower_and_work_identical_to_ab() {
        let ab = small_run(Scheme::Ab, 300);
        let cp = small_run(Scheme::AbChannelPar, 300);
        // Identical protocol work: same request set, only issue order and
        // crypto charging differ.
        assert_eq!(ab.user_accesses, cp.user_accesses);
        assert_eq!(ab.evict_paths, cp.evict_paths);
        assert_eq!(ab.early_reshuffles, cp.early_reshuffles);
        assert_eq!(ab.bytes_transferred, cp.bytes_transferred);
        assert_eq!(ab.stash_peak, cp.stash_peak);
        // The overlapped crypto drain can only remove exposed latency, and
        // with ~10 online reads per access completing at distinct cycles it
        // must actually remove some: the serialized pipeline tail the serial
        // mode charges after the last DRAM reply is hidden behind earlier
        // replies.
        assert!(cp.exec_cycles <= ab.exec_cycles, "cp {} > ab {}", cp.exec_cycles, ab.exec_cycles);
        assert!(
            cp.online_latency_cycles < ab.online_latency_cycles,
            "overlap saved nothing: cp {} vs ab {}",
            cp.online_latency_cycles,
            ab.online_latency_cycles
        );
    }

    fn small_run_depth(scheme: Scheme, n: usize, depth: u8) -> SimulationReport {
        let cfg = OramConfig::builder(10, scheme).seed(7).build().unwrap();
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        driver.set_pipeline_depth(depth);
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
        let mut gen = TraceGenerator::new(&profile, 3);
        driver.run((0..n).map(|_| gen.next_record())).unwrap()
    }

    #[test]
    fn pipelined_run_is_work_identical_and_no_slower() {
        for scheme in [Scheme::Ab, Scheme::AbChannelPar] {
            let serial = small_run_depth(scheme, 300, 1);
            let deep = small_run_depth(scheme, 300, 4);
            // Timing never feeds back into the protocol: the request set and
            // every protocol counter are identical at any depth.
            assert_eq!(serial.user_accesses, deep.user_accesses, "{scheme:?}");
            assert_eq!(serial.evict_paths, deep.evict_paths, "{scheme:?}");
            assert_eq!(serial.early_reshuffles, deep.early_reshuffles, "{scheme:?}");
            assert_eq!(serial.bytes_transferred, deep.bytes_transferred, "{scheme:?}");
            assert_eq!(serial.stash_peak, deep.stash_peak, "{scheme:?}");
            // Overlapping access i+1's reads with access i's writeback drain
            // can only remove issue-to-data queueing delay, and with ~60
            // writebacks per evictPath it must remove a lot of it.
            assert!(
                deep.response_latency_cycles < serial.response_latency_cycles,
                "{scheme:?}: pipelining saved nothing: depth4 {} vs depth1 {}",
                deep.response_latency_cycles,
                serial.response_latency_cycles
            );
            assert!(
                deep.exec_cycles <= serial.exec_cycles,
                "{scheme:?}: depth4 {} > depth1 {}",
                deep.exec_cycles,
                serial.exec_cycles
            );
        }
    }

    #[test]
    fn depth_one_is_bitexact_with_default_and_depth_zero_clamps() {
        let default = small_run(Scheme::Ab, 200);
        let explicit = small_run_depth(Scheme::Ab, 200, 1);
        let clamped = small_run_depth(Scheme::Ab, 200, 0);
        assert_eq!(default, explicit);
        assert_eq!(default, clamped);
    }

    #[test]
    fn issue_mode_follows_scheme_and_can_be_overridden() {
        let cfg = OramConfig::builder(10, Scheme::AbChannelPar).seed(7).build().unwrap();
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        assert_eq!(driver.issue_mode(), IssueMode::ChannelParallel);
        driver.set_issue_mode(IssueMode::Serial);
        assert_eq!(driver.issue_mode(), IssueMode::Serial);
    }

    #[test]
    fn crypto_latency_knob_changes_time() {
        let cfg = OramConfig::builder(10, Scheme::Baseline).seed(7).build().unwrap();
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();

        let mut fast = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        fast.set_crypto_latency(CryptoLatency::free());
        let mut gen = TraceGenerator::new(&profile, 3);
        let rf = fast.run((0..200).map(|_| gen.next_record())).unwrap();

        let mut slow = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        slow.set_crypto_latency(CryptoLatency::new(400, 10));
        let mut gen = TraceGenerator::new(&profile, 3);
        let rs = slow.run((0..200).map(|_| gen.next_record())).unwrap();

        assert!(rs.exec_cycles > rf.exec_cycles);
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use crate::config::Scheme;
    use aboram_trace::{profiles, TraceGenerator};

    fn driver_with(scheme: Scheme) -> TimingDriver {
        let cfg = OramConfig::builder(10, scheme).seed(11).build().unwrap();
        TimingDriver::new(&cfg, DramConfig::default()).unwrap()
    }

    #[test]
    fn restore_then_run_is_cycle_identical_to_straight_line() {
        for scheme in [Scheme::Baseline, Scheme::Ab, Scheme::AbChannelPar] {
            let cfg = OramConfig::builder(10, scheme).seed(11).build().unwrap();
            let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();

            // Straight line: warm-up + 120 records + 80 more records.
            let mut straight = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
            straight.warm_up(300).unwrap();
            let mut gen = TraceGenerator::new(&profile, 5);
            let first_s = straight.run((0..120).map(|_| gen.next_record())).unwrap();
            let second_s = straight.run((0..80).map(|_| gen.next_record())).unwrap();

            // Snapshotted: identical prefix, snapshot, restore, identical tail.
            let mut prefix = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
            prefix.warm_up(300).unwrap();
            let mut gen = TraceGenerator::new(&profile, 5);
            let first_p = prefix.run((0..120).map(|_| gen.next_record())).unwrap();
            assert_eq!(first_s, first_p);
            let bytes = prefix.snapshot().expect("quiescent driver snapshots");
            let mut restored =
                TimingDriver::restore(&cfg, DramConfig::default(), &bytes).expect("restores");
            let second_r = restored.run((0..80).map(|_| gen.next_record())).unwrap();

            assert_eq!(second_s, second_r, "{scheme:?}: restored tail must be cycle-identical");
            assert_eq!(
                straight.snapshot().unwrap(),
                restored.snapshot().unwrap(),
                "{scheme:?}: final driver state must be bit-identical"
            );
        }
    }

    #[test]
    fn snapshot_covers_cpu_and_controller_cursors() {
        let cfg = OramConfig::builder(10, Scheme::Baseline).seed(3).build().unwrap();
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "lbm").unwrap();
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        let mut gen = TraceGenerator::new(&profile, 9);
        driver.run((0..60).map(|_| gen.next_record())).unwrap();
        let restored =
            TimingDriver::restore(&cfg, DramConfig::default(), &driver.snapshot().unwrap())
                .unwrap();
        assert_eq!(restored.scheduler.free_at(), driver.scheduler.free_at());
        assert_eq!(restored.cpu.now(), driver.cpu.now());
        assert_eq!(restored.sink.inner().now(), driver.sink.inner().now());
    }

    #[test]
    fn snapshot_refuses_extension_state() {
        let mut with_posmap = driver_with(Scheme::Baseline);
        with_posmap.enable_posmap_recursion(crate::recursion::PlbConfig {
            plb_bytes: 1024,
            onchip_posmap_bytes: 1024,
            entry_bytes: 4,
        });
        assert!(with_posmap.snapshot().is_err(), "posmap model must refuse");

        let mut with_faults = driver_with(Scheme::Baseline);
        with_faults.enable_faults(crate::fault::FaultPlan::new(5));
        assert!(with_faults.snapshot().is_err(), "armed fault plan must refuse");
    }

    #[test]
    fn grown_driver_snapshots_after_drain_and_restores_cycle_identically() {
        let cfg = OramConfig::builder(8, Scheme::Ab)
            .seed(11)
            .growth(crate::config::GrowthConfig::up_to(10))
            .build()
            .unwrap();
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        let grown = driver.insert_block(None).unwrap();
        assert_eq!(driver.oram.config().levels, 9, "insert at full capacity grew the tree");
        assert!(driver.oram.growth_state().backlog() > 0, "relocation backlog pending");
        let mut gen = TraceGenerator::new(&profile, 5);
        driver.run((0..300).map(|_| gen.next_record())).unwrap();
        assert_eq!(driver.oram.growth_state().backlog(), 0, "drained through eviction work");
        assert!(driver.oram.check_block_reachable(grown));
        let bytes = driver.snapshot().expect("post-drain driver snapshots");
        // The digest covers the *grown* configuration — restore under it.
        let grown_cfg = driver.oram.config().clone();
        assert!(
            TimingDriver::restore(&cfg, DramConfig::default(), &bytes).is_err(),
            "pre-growth config no longer matches the snapshot digest"
        );
        let mut restored =
            TimingDriver::restore(&grown_cfg, DramConfig::default(), &bytes).unwrap();
        let tail_live = driver.run((0..80).map(|_| gen.next_record())).unwrap();
        let mut gen = TraceGenerator::new(&profile, 5);
        for _ in 0..300 {
            gen.next_record();
        }
        let tail_restored = restored.run((0..80).map(|_| gen.next_record())).unwrap();
        assert_eq!(tail_live, tail_restored, "restored grown driver is cycle-identical");
    }

    #[test]
    fn restore_rejects_corruption_and_mismatches() {
        let driver = driver_with(Scheme::Baseline);
        let bytes = driver.snapshot().unwrap();
        let cfg = driver.oram.config().clone();

        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x04;
        assert!(TimingDriver::restore(&cfg, DramConfig::default(), &corrupt).is_err());
        assert!(TimingDriver::restore(&cfg, DramConfig::default(), &bytes[..10]).is_err());

        let other_cfg = OramConfig::builder(10, Scheme::Ab).seed(11).build().unwrap();
        assert!(
            TimingDriver::restore(&other_cfg, DramConfig::default(), &bytes).is_err(),
            "engine config digest must match"
        );
        let other_dram = DramConfig { channels: 2, ..DramConfig::default() };
        assert!(
            TimingDriver::restore(&cfg, other_dram, &bytes).is_err(),
            "DRAM config digest must match"
        );
    }
}

#[cfg(test)]
mod recursion_tests {
    use super::*;
    use crate::config::Scheme;
    use crate::recursion::PlbConfig;
    use aboram_trace::{profiles, TraceGenerator};

    #[test]
    fn posmap_recursion_adds_accesses_and_time() {
        let profile = profiles::spec2017().into_iter().find(|p| p.name == "mcf").unwrap();
        // A small on-chip budget forces recursion even at test scale.
        let tiny = PlbConfig { plb_bytes: 1024, onchip_posmap_bytes: 1024, entry_bytes: 4 };
        let cfg = OramConfig::builder(10, Scheme::Baseline).seed(7).build().unwrap();

        let mut plain = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        let mut gen = TraceGenerator::new(&profile, 3);
        let r_plain = plain.run((0..200).map(|_| gen.next_record())).unwrap();

        let mut recursive = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
        recursive.enable_posmap_recursion(tiny);
        let mut gen = TraceGenerator::new(&profile, 3);
        let r_rec = recursive.run((0..200).map(|_| gen.next_record())).unwrap();

        assert!(r_rec.user_accesses > r_plain.user_accesses, "posmap fetches add accesses");
        assert!(r_rec.exec_cycles > r_plain.exec_cycles, "and they cost time");
        assert!(recursive.posmap_model().unwrap().total_misses() > 0);
    }
}
