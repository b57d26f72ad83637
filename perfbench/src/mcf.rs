//! `sim-mcf`: the paper's Fig. 8 method. AB on the DRAM twin behind the
//! serial controller, warmed fresh, then a window of `mcf` trace records.
//!
//! Why: the `core` driver, `TimingSink` and `dram` twin do about half the
//! host work here and the engine does the rest; the service layer does
//! none.

use crate::engine::EngineCounters;
use crate::spans::{Tracer, NO_OP};
use crate::{metric, ratio, Chunks, Metric, Rep, Workload};
use aboram_bench::Experiment;
use aboram_core::{
    AccessKind, CountingSink, OramConfig, OramError, OramOp, RingOram, Scheme, SimulationReport,
    TimingDriver,
};
use aboram_dram::DramConfig;
use aboram_trace::{profiles, BenchmarkProfile, MemOp, TraceGenerator, TraceRecord};
use std::time::Instant;

const LEVELS: u8 = 16;
const SCHEME: Scheme = Scheme::Ab;
const PIPELINE_DEPTH: u8 = 1;
const WARM_UP_ACCESSES: u64 = 100_000;
/// Trace records per repetition window.
const RECORDS: usize = 100_000;
/// Records per timed chunk of the window.
const CHUNK: u64 = 5_000;
/// Keeps the trace stream independent of the engine's own randomness.
const TRACE_SEED_XOR: u64 = 0x7ace_5eed;

pub struct SimMcf {
    seed: u64,
    profile: BenchmarkProfile,
}

fn err(what: &'static str) -> impl Fn(OramError) -> String {
    move |e| format!("sim-mcf {what}: {e}")
}

impl SimMcf {
    pub fn new(seed: u64) -> Self {
        let profile = profiles::spec2017()
            .into_iter()
            .find(|p| p.name == "mcf")
            .expect("the SPEC 2017 profiles include mcf");
        SimMcf { seed, profile }
    }
}

impl Workload for SimMcf {
    fn settings(&self) -> String {
        format!(
            "scheme {SCHEME} L{LEVELS} depth {PIPELINE_DEPTH} issue serial on the DRAM twin; \
             warm-up {WARM_UP_ACCESSES} accesses; window {RECORDS} {} records",
            self.profile.name
        )
    }

    fn rep(&self, tracer: Option<&mut Tracer>) -> Result<Rep, String> {
        let cfg =
            OramConfig::builder(LEVELS, SCHEME).seed(self.seed).build().map_err(err("config"))?;

        let t0 = Instant::now();
        let mut driver = TimingDriver::new(&cfg, DramConfig::default()).map_err(err("new"))?;
        driver.set_pipeline_depth(PIPELINE_DEPTH);
        let new_s = t0.elapsed().as_secs_f64();
        driver.warm_up(WARM_UP_ACCESSES).map_err(err("warm-up"))?;
        let setup_s = t0.elapsed().as_secs_f64();

        let before = EngineCounters::of(driver.oram_mut().stats());
        let mut gen = TraceGenerator::new(&self.profile, self.seed ^ TRACE_SEED_XOR);
        let mut rep = Rep { setup_s, ops: RECORDS as u64, ..Rep::default() };
        let report = match tracer {
            None => {
                let t = Instant::now();
                // The driver asks for record i once records 0..i are done.
                let mut chunks = Chunks::start(CHUNK);
                let report = driver.run((0..RECORDS).map(|i| {
                    chunks.tick(i as u64);
                    gen.next_record()
                }));
                chunks.tick(RECORDS as u64);
                rep.window_s = t.elapsed().as_secs_f64();
                rep.chunk_rates = chunks.rates();
                report.map_err(err("timed window"))?
            }
            Some(tr) => {
                // The replay twin starts from the same warmed engine.
                let warmed = driver.oram_mut().snapshot().map_err(err("snapshot"))?;
                let mark = tr.mark();
                let window = tr.open("bench.window", None, NO_OP);
                let run = tr.open("core.driver.run", Some(window), NO_OP);
                let mut records: Vec<TraceRecord> = Vec::with_capacity(RECORDS);
                let mut chunks = Chunks::start(CHUNK);
                let report = driver.run((0..RECORDS).map(|i| {
                    chunks.tick(i as u64);
                    let rec =
                        tr.span("trace.next_record", Some(run), i as u64, || gen.next_record());
                    records.push(rec);
                    rec
                }));
                chunks.tick(RECORDS as u64);
                tr.close(run);
                tr.close(window);
                rep.chunk_rates = chunks.rates();
                let report = report.map_err(err("timed window"))?;
                rep.window_s = tr.seconds(window);
                rep.self_s = tr.self_seconds(mark);
                let next_record_s = tr.total_seconds(mark, "trace.next_record");
                let run_self_s = rep.self_s.get("core.driver.run").copied().unwrap_or(0.0);

                let timed = EngineCounters::of(driver.oram_mut().stats()).since(before);
                let access_s = replay(tr, &cfg, &warmed, &records, timed)?;
                let per_record_us = |s: f64| s * 1e6 / RECORDS as f64;
                rep.layers = vec![
                    metric("core.engine.new_s", "s", new_s),
                    metric("core.engine.warm_up_s", "s", setup_s - new_s),
                    metric("trace.next_record_us", "us", per_record_us(next_record_s)),
                    metric("core.driver.run_us", "us", per_record_us(run_self_s)),
                    metric("core.engine.access_us", "us", per_record_us(access_s)),
                    metric(
                        "core.driver.timing_model_us",
                        "us",
                        per_record_us(run_self_s - access_s),
                    ),
                ];
                report
            }
        };
        driver.oram_mut().validate_invariants().map_err(|e| format!("sim-mcf invariants: {e}"))?;
        if report.records != RECORDS as u64 || report.user_accesses != RECORDS as u64 {
            return Err(format!(
                "sim-mcf ran {} records and {} user accesses, expected {RECORDS}",
                report.records, report.user_accesses
            ));
        }
        let engine = EngineCounters::of(driver.oram_mut().stats()).since(before);
        rep.sim = sim_metrics(self.seed, &report, &driver)?;
        rep.sim.extend(engine.metrics(report.stash_peak));
        Ok(rep)
    }
}

/// Replays the window's block stream on a [`CountingSink`] from the warmed
/// snapshot, timing each `RingOram::access`. The replay's engine counters
/// must equal the timed run's, so that the two split the same protocol
/// work. Returns the summed access time in seconds.
fn replay(
    tr: &mut Tracer,
    cfg: &OramConfig,
    warmed: &[u8],
    records: &[TraceRecord],
    timed: EngineCounters,
) -> Result<f64, String> {
    let mut twin = RingOram::restore(cfg, warmed).map_err(err("restore"))?;
    let before = EngineCounters::of(twin.stats());
    let blocks = twin.block_count();
    let mut sink = CountingSink::new();
    let mark = tr.mark();
    let replay = tr.open("bench.replay", None, NO_OP);
    for (i, rec) in records.iter().enumerate() {
        // The block and access kind `TimingDriver::run` derives from a
        // trace record.
        let block = (rec.addr / 64) % blocks;
        let kind = match rec.op {
            MemOp::Read => AccessKind::Read,
            MemOp::Write => AccessKind::Write,
        };
        tr.span("core.engine.access", Some(replay), i as u64, || {
            twin.access(kind, block, None, &mut sink)
        })
        .map_err(err("replay"))?;
    }
    tr.close(replay);
    let replayed = EngineCounters::of(twin.stats()).since(before);
    if replayed != timed {
        return Err(format!("replay twin diverged from the timed run: {replayed:?} vs {timed:?}"));
    }
    Ok(tr.total_seconds(mark, "core.engine.access"))
}

fn sim_metrics(
    seed: u64,
    r: &SimulationReport,
    driver: &TimingDriver,
) -> Result<Vec<Metric>, String> {
    let n = r.records;
    let exp = Experiment { levels: LEVELS, warmup: 0, timed: 0, protocol_accesses: 0, seed };
    let space = exp
        .space_report(Scheme::Baseline)
        .and_then(|base| exp.normalized_space(SCHEME, &base))
        .map_err(err("space"))?;
    let mem = driver.memory_stats();
    let channels = mem.requests_by_channel();
    let channel_max = channels.iter().copied().max().unwrap_or(0) as f64;
    let channel_mean = channels.iter().sum::<u64>() as f64 / channels.len().max(1) as f64;
    let bus = |op: OramOp| ratio(r.breakdown.bus_cycles[op.tag() as usize], n);
    Ok(vec![
        metric("sim_cycles_per_op", "cycles", ratio(r.exec_cycles, n)),
        metric("sim_latency_mean_cycles", "cycles", r.mean_response_latency()),
        metric("bus_blocks_per_op", "blocks", ratio(r.bytes_transferred / 64, n)),
        metric("space_ratio_vs_baseline", "ratio", space),
        metric("core.driver.online_latency_mean_cycles", "cycles", r.mean_online_latency()),
        metric("dram.requests_per_op", "count", ratio(mem.total_requests(), n)),
        metric("dram.row_hit_rate", "ratio", r.row_hit_rate),
        metric("dram.bus_cycles_per_op.readPath", "cycles", bus(OramOp::ReadPath)),
        metric("dram.bus_cycles_per_op.evictPath", "cycles", bus(OramOp::EvictPath)),
        metric("dram.bus_cycles_per_op.earlyReshuffle", "cycles", bus(OramOp::EarlyReshuffle)),
        metric("dram.bus_cycles_per_op.backgroundEvict", "cycles", bus(OramOp::BackgroundEvict)),
        metric("dram.bus_cycles_per_op.metadata", "cycles", bus(OramOp::Metadata)),
        metric("dram.channel_imbalance", "ratio", channel_max / channel_mean),
    ])
}
