//! `kv-zipf`: the oblivious KV service on the DRAM twin. AB-CP data tree at
//! pipeline depth 4 with per-slot completion stamping, a Baseline posmap
//! ladder of chain depth 4, 4096 pre-loaded keys, Zipf(0.99) 90 % get /
//! 10 % put, open loop at half the batch schedule's slot capacity.
//!
//! Why: this is the serving path `sim-mcf` bypasses: the front-end, the
//! recursive posmap ladder, the real cipher on payloads and the pipelined,
//! channel-parallel `TimedBackend`. It is the only workload with latency
//! percentiles a client sees.

use crate::engine::EngineCounters;
use crate::spans::{Tracer, NO_OP};
use crate::{metric, ratio, Chunks, Rep, Workload};
use aboram_bench::Experiment;
use aboram_core::{OramError, Scheme};
use aboram_dram::DramConfig;
use aboram_service::{
    BackendKind, BatchConfig, BatchingFrontEnd, Completion, LatencyReport, ObliviousStore, Request,
    StoreConfig,
};
use aboram_trace::{KeyDist, KeySampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

const LEVELS: u8 = 14;
const SCHEME: Scheme = Scheme::AbChannelPar;
const POSMAP_SCHEME: Scheme = Scheme::Baseline;
const PIPELINE_DEPTH: u8 = 4;
/// On-chip root bound that gives a chain of four posmap trees at L14.
const ROOT_MAX_ENTRIES: u64 = 64;
const CHAIN_DEPTH: usize = 4;
const KEYS: u64 = 4096;
const ZIPF_S: f64 = 0.99;
/// Requests per repetition window.
const REQUESTS: usize = 9_000;
/// Requests per timed chunk of the window.
const CHUNK: u64 = 500;
const BATCH: BatchConfig =
    BatchConfig { batch_size: 8, period: 150_000, queue_capacity: 256, pipelined: true };
/// One arrival per `GAP` cycles: half of 8 slots per 150 000 cycles.
const GAP: u64 = 37_500;
const REQUEST_SEED_XOR: u64 = 0x10ad_10ad_10ad_10ad;

fn key_of(k: u64) -> Vec<u8> {
    format!("key-{k:05}").into_bytes()
}

pub struct KvZipf {
    seed: u64,
    /// The window's requests, generated from the seed before any timing.
    requests: Vec<Request>,
}

impl KvZipf {
    pub fn new(seed: u64) -> Self {
        let sampler = KeySampler::new(KeyDist::Zipf { s: ZIPF_S }, KEYS);
        let mut rng = StdRng::seed_from_u64(seed ^ REQUEST_SEED_XOR);
        let requests = (0..REQUESTS)
            .map(|i| {
                let key = key_of(sampler.draw(&mut rng));
                if rng.gen_range(0..10u32) == 0 {
                    Request::Put { key, value: format!("v{i}").into_bytes() }
                } else {
                    Request::Get { key }
                }
            })
            .collect();
        KvZipf { seed, requests }
    }

    fn store_config(&self) -> StoreConfig {
        let mut cfg = StoreConfig::new(LEVELS, SCHEME);
        cfg.posmap_scheme = POSMAP_SCHEME;
        cfg.root_max_entries = ROOT_MAX_ENTRIES;
        cfg.seed = self.seed;
        cfg.backend = BackendKind::Timed(DramConfig::default());
        cfg.pipeline_depth = PIPELINE_DEPTH;
        cfg
    }
}

/// The window's correctness model: every accepted put updates a `HashMap`
/// model, every accepted get records the value the model holds at its
/// arrival, and every completion is checked against that expectation.
struct Checker {
    model: HashMap<Vec<u8>, Vec<u8>>,
    /// Expected completion value per ticket: `Some(v)` for a get,
    /// `None` for a put.
    expected: HashMap<u64, Option<Vec<u8>>>,
    wrong: u64,
    latencies: Vec<u64>,
}

impl Checker {
    fn accept(&mut self, ticket: u64, req: &Request) {
        let expect = match req {
            Request::Get { key } => Some(self.model.get(key).cloned().unwrap_or_default()),
            Request::Put { key, value } => {
                self.model.insert(key.clone(), value.clone());
                None
            }
        };
        self.expected.insert(ticket, expect);
    }

    fn complete(&mut self, done: Vec<Completion>) {
        for c in done {
            match self.expected.remove(&c.id) {
                Some(expect) if expect == c.value => self.latencies.push(c.latency()),
                _ => self.wrong += 1,
            }
        }
    }
}

impl Workload for KvZipf {
    fn settings(&self) -> String {
        format!(
            "data tree {SCHEME} L{LEVELS} depth {PIPELINE_DEPTH} issue channel-parallel on the \
             DRAM twin; posmap {POSMAP_SCHEME} chain {CHAIN_DEPTH}; {KEYS} keys pre-loaded; \
             window {REQUESTS} requests zipf({ZIPF_S}) 90% get, open loop every {GAP} cycles; \
             batch {} slots per {} cycles, per-slot stamping",
            BATCH.batch_size, BATCH.period
        )
    }

    fn rep(&self, mut tracer: Option<&mut Tracer>) -> Result<Rep, String> {
        let err = |what: &'static str| move |e: OramError| format!("kv-zipf {what}: {e}");
        let requests = self.requests.clone();

        let t0 = Instant::now();
        let store = ObliviousStore::new(&self.store_config()).map_err(err("new"))?;
        let new_s = t0.elapsed().as_secs_f64();
        let mut fe = BatchingFrontEnd::new(store, BATCH);
        let mut model = HashMap::new();
        for k in 0..KEYS {
            let (key, value) = (key_of(k), format!("p{k}").into_bytes());
            let store = fe.store_mut();
            store
                .rmw_at(store.now(), &key, &mut |_| Some(value.clone()))
                .map_err(err("preload"))?;
            model.insert(key, value);
        }
        fe.activate_at(fe.store().now());
        let setup_s = t0.elapsed().as_secs_f64();

        let chain = fe.store().posmap().chain_depth();
        if chain != CHAIN_DEPTH {
            return Err(format!("kv-zipf posmap chain depth {chain}, expected {CHAIN_DEPTH}"));
        }
        let start = fe.next_launch();
        let fe0 = fe.stats();
        let pm0 = fe.store().posmap().stats();
        let store0 = fe.store().stats();
        let engine0 = EngineCounters::of(fe.store().data_engine().stats());
        let mut check = Checker {
            model,
            expected: HashMap::with_capacity(REQUESTS),
            wrong: 0,
            latencies: Vec::with_capacity(REQUESTS),
        };
        let mut rejected = 0u64;

        let mark = tracer.as_ref().map(|tr| tr.mark());
        let window = tracer.as_mut().map(|tr| tr.open("bench.window", None, NO_OP));
        let t = Instant::now();
        let mut chunks = Chunks::start(CHUNK);
        for (i, (req, original)) in requests.into_iter().zip(&self.requests).enumerate() {
            let op = i as u64;
            // Latency counts from each request's due time; the clock is
            // simulated, so the generator is never late.
            let due = start + op * GAP;
            let ticket = match tracer.as_mut() {
                None => fe.submit(due, req),
                Some(tr) => tr.span("service.frontend.submit", window, op, || fe.submit(due, req)),
            };
            match ticket {
                Ok(ticket) => check.accept(ticket, original),
                Err(_) => rejected += 1,
            }
            let done = match tracer.as_mut() {
                None => fe.advance_to(due),
                Some(tr) => {
                    tr.span("service.frontend.advance_to", window, op, || fe.advance_to(due))
                }
            }
            .map_err(err("batch"))?;
            match tracer.as_mut() {
                None => check.complete(done),
                Some(tr) => tr.span("bench.check", window, op, || check.complete(done)),
            }
            chunks.tick(op + 1);
        }
        let done = match tracer.as_mut() {
            None => fe.drain(),
            Some(tr) => tr.span("service.frontend.drain", window, NO_OP, || fe.drain()),
        }
        .map_err(err("drain"))?;
        check.complete(done);
        let window_s = t.elapsed().as_secs_f64();

        let missing = check.expected.len() as u64;
        let failed = check.wrong + missing + rejected;
        let fe1 = fe.stats();
        let batches = fe1.batches - fe0.batches;
        let mut rep = Rep {
            setup_s,
            window_s,
            ops: REQUESTS as u64,
            failed,
            chunk_rates: chunks.rates(),
            ..Rep::default()
        };
        if let (Some(tr), Some(mark), Some(window)) = (tracer, mark, window) {
            tr.close(window);
            rep.window_s = tr.seconds(window);
            rep.self_s = tr.self_seconds(mark);
            let batch_s = tr.total_seconds(mark, "service.frontend.advance_to")
                + tr.total_seconds(mark, "service.frontend.drain");
            rep.layers = vec![
                metric("service.store.new_s", "s", new_s),
                metric("service.store.preload_s", "s", setup_s - new_s),
                metric(
                    "service.frontend.submit_us",
                    "us",
                    tr.total_seconds(mark, "service.frontend.submit") * 1e6 / REQUESTS as f64,
                ),
                metric("service.frontend.batch_ms", "ms", batch_s * 1e3 / batches.max(1) as f64),
            ];
        }

        let engine = fe.store().data_engine();
        engine.validate_invariants().map_err(|e| format!("kv-zipf invariants: {e}"))?;
        let lat = LatencyReport::from_latencies(check.latencies)
            .ok_or("kv-zipf completed no request correctly")?;
        let pm = fe.store().posmap().stats();
        let tree_accesses = pm.tree_accesses - pm0.tree_accesses;
        let dummy_tree_accesses = pm.dummy_tree_accesses - pm0.dummy_tree_accesses;
        let real = fe1.real_slots - fe0.real_slots;
        let exp = Experiment {
            levels: LEVELS,
            warmup: 0,
            timed: 0,
            protocol_accesses: 0,
            seed: self.seed,
        };
        let space = exp
            .space_report(Scheme::Baseline)
            .and_then(|base| exp.normalized_space(SCHEME, &base))
            .map_err(err("space"))?;
        rep.sim = vec![
            metric("sim_latency_mean_cycles", "cycles", lat.mean),
            metric("sim_latency_p50_cycles", "cycles", lat.p50 as f64),
            metric("sim_latency_p99_cycles", "cycles", lat.p99 as f64),
            metric("sim_latency_samples", "count", lat.count as f64),
            metric("space_ratio_vs_baseline", "ratio", space),
            metric(
                "service.frontend.real_slot_fraction",
                "ratio",
                ratio(real, real + fe1.dummy_slots - fe0.dummy_slots),
            ),
            metric(
                "service.frontend.coalesced_fraction",
                "ratio",
                ratio(fe1.coalesced - fe0.coalesced, fe1.accepted - fe0.accepted),
            ),
            metric("service.frontend.rejected", "count", (fe1.rejected - fe0.rejected) as f64),
            metric(
                "service.posmap.tree_accesses_per_request",
                "count",
                ratio(tree_accesses + dummy_tree_accesses, REQUESTS as u64),
            ),
            metric(
                "service.posmap.dummy_tree_access_fraction",
                "ratio",
                ratio(dummy_tree_accesses, tree_accesses + dummy_tree_accesses),
            ),
            metric(
                "service.store.misses",
                "count",
                (fe.store().stats().misses - store0.misses) as f64,
            ),
        ];
        rep.sim
            .extend(EngineCounters::of(engine.stats()).since(engine0).metrics(engine.stash_peak()));
        Ok(rep)
    }
}
