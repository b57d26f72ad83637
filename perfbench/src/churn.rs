//! `protocol-churn`: protocol mode (the `ProtocolRun`/`CountingSink` path
//! behind Figs. 2/3/10/12/14 and every warm-up), uniform churn on an L20 AB
//! tree of about 265 MiB.
//!
//! Why: the engine (`ring`, `metadata`, `stash`, `deadq`, `tree`
//! addressing) does all the work, with a working set larger than the host's
//! last-level cache; the DRAM twin and the driver do none. A metadata-scan
//! or SIMD change shows here first.

use crate::engine::EngineCounters;
use crate::spans::{Tracer, NO_OP};
use crate::{metric, ratio, Chunks, Rep, Workload};
use aboram_bench::{ChurnKind, Experiment};
use aboram_core::Scheme;
use std::time::Instant;

const LEVELS: u8 = 20;
const SCHEME: Scheme = Scheme::Ab;
/// Accesses per repetition window.
const ACCESSES: u64 = 120_000;
/// Accesses per timed chunk of the window.
const CHUNK: u64 = 8_000;

pub struct ProtocolChurn {
    exp: Experiment,
}

impl ProtocolChurn {
    pub fn new(seed: u64) -> Self {
        ProtocolChurn {
            exp: Experiment {
                levels: LEVELS,
                warmup: 0,
                timed: 0,
                protocol_accesses: ACCESSES,
                seed,
            },
        }
    }
}

impl Workload for ProtocolChurn {
    fn settings(&self) -> String {
        format!(
            "scheme {SCHEME} L{LEVELS} protocol mode (CountingSink), fresh tree; \
             window {ACCESSES} uniform accesses"
        )
    }

    fn rep(&self, tracer: Option<&mut Tracer>) -> Result<Rep, String> {
        let err = |what: &'static str| move |e| format!("protocol-churn {what}: {e}");
        let t0 = Instant::now();
        let mut run = self.exp.protocol_run(SCHEME, ChurnKind::Uniform).map_err(err("new"))?;
        let setup_s = t0.elapsed().as_secs_f64();
        let before = EngineCounters::of(run.oram.stats());

        let mut rep = Rep { setup_s, ops: ACCESSES, ..Rep::default() };
        match tracer {
            None => {
                let t = Instant::now();
                let mut chunks = Chunks::start(CHUNK);
                for done in (CHUNK..=ACCESSES).step_by(CHUNK as usize) {
                    run.advance(CHUNK).map_err(err("window"))?;
                    chunks.tick(done);
                }
                rep.window_s = t.elapsed().as_secs_f64();
                rep.chunk_rates = chunks.rates();
            }
            Some(tr) => {
                let mark = tr.mark();
                let window = tr.open("bench.window", None, NO_OP);
                let mut chunks = Chunks::start(CHUNK);
                for i in 0..ACCESSES {
                    tr.span("core.engine.access", Some(window), i, || run.advance(1))
                        .map_err(err("window"))?;
                    chunks.tick(i + 1);
                }
                tr.close(window);
                rep.chunk_rates = chunks.rates();
                rep.window_s = tr.seconds(window);
                rep.self_s = tr.self_seconds(mark);
                let access_s = tr.total_seconds(mark, "core.engine.access");
                rep.layers = vec![
                    metric("core.engine.new_s", "s", setup_s),
                    metric("core.engine.access_us", "us", access_s * 1e6 / ACCESSES as f64),
                ];
            }
        }
        run.oram.validate_invariants().map_err(|e| format!("protocol-churn invariants: {e}"))?;
        let engine = EngineCounters::of(run.oram.stats()).since(before);
        if engine.user != ACCESSES {
            return Err(format!(
                "protocol-churn made {} user accesses, expected {ACCESSES}",
                engine.user
            ));
        }
        let space = self
            .exp
            .space_report(Scheme::Baseline)
            .and_then(|base| self.exp.normalized_space(SCHEME, &base))
            .map_err(err("space"))?;
        rep.sim = vec![
            metric("bus_blocks_per_op", "blocks", ratio(run.sink.grand_total(), ACCESSES)),
            metric("space_ratio_vs_baseline", "ratio", space),
        ];
        rep.sim.extend(engine.metrics(run.oram.stash_peak()));
        Ok(rep)
    }
}
