//! Telemetry's zero-perturbation contract (DESIGN.md §7): instrumentation
//! consumes no engine randomness and changes no protocol decision, so a
//! fixed-seed timing run produces a bit-identical [`SimulationReport`]
//! whether or not a collector is installed — and with none installed, the
//! hooks are pure branch-not-taken overhead. The same holds on the serving
//! path: a `TimedBackend` session replies identically either way, and
//! reports the access scheduler's series when a collector is installed.

use aboram_core::{
    AccessKind, BackendReply, OramConfig, Scheme, SimulationReport, StorageBackend, TimedBackend,
    TimingDriver,
};
use aboram_dram::DramConfig;
use aboram_telemetry::Collector;
use aboram_trace::{profiles, TraceGenerator};

fn fixed_run(scheme: Scheme, instrument: bool) -> (SimulationReport, Option<String>) {
    let buf = instrument.then(|| {
        let (collector, buf) = Collector::to_shared_buffer();
        aboram_telemetry::install(collector);
        buf
    });
    let cfg = OramConfig::builder(12, scheme).seed(77).build().unwrap();
    let mut driver = TimingDriver::new(&cfg, DramConfig::default()).unwrap();
    driver.warm_up(3_000).unwrap();
    let profile = profiles::spec2017().into_iter().next().unwrap();
    let mut gen = TraceGenerator::new(&profile, 77);
    let report = driver.run((0..400).map(|_| gen.next_record())).unwrap();
    let trace = buf.map(|buf| {
        let mut c = aboram_telemetry::uninstall().expect("collector was installed");
        c.flush().unwrap();
        buf.contents()
    });
    (report, trace)
}

#[test]
fn telemetry_does_not_perturb_fixed_seed_runs() {
    for scheme in [Scheme::PlainRing, Scheme::Ab] {
        let (plain, none) = fixed_run(scheme, false);
        assert!(none.is_none());
        let (instrumented, trace) = fixed_run(scheme, true);
        assert_eq!(
            plain, instrumented,
            "{scheme}: an installed collector must not change the simulation"
        );
        // And the instrumented run actually produced a trace: one run
        // header, per-phase request counts, and a closing summary.
        let trace = trace.unwrap();
        assert!(trace.contains("\"t\":\"run\""), "missing run header:\n{trace}");
        assert!(trace.contains("\"t\":\"counts\""), "missing phase counts:\n{trace}");
        assert!(trace.contains("\"t\":\"sum\""), "missing run summary:\n{trace}");
    }
}

#[test]
fn repeated_uninstrumented_runs_are_deterministic() {
    let (a, _) = fixed_run(Scheme::Ab, false);
    let (b, _) = fixed_run(Scheme::Ab, false);
    assert_eq!(a, b, "the fixed-seed simulation itself must be reproducible");
}

/// The access scheduler's series, read back from a collector.
#[derive(Debug)]
struct SchedulerSeries {
    overlap_saved_cycles: u64,
    overlapped_blocks: u64,
    occupancy: Vec<u64>,
}

/// A fixed burst of reads and writes through a channel-parallel
/// `TimedBackend` at pipeline depth `depth`.
fn backend_run(depth: u8, instrument: bool) -> (Vec<BackendReply>, Option<SchedulerSeries>) {
    if instrument {
        aboram_telemetry::install(Collector::to_shared_buffer().0);
    }
    let cfg =
        OramConfig::builder(10, Scheme::AbChannelPar).store_data(true).seed(77).build().unwrap();
    let mut backend = TimedBackend::new(&cfg, DramConfig::default()).unwrap();
    backend.set_pipeline_depth(depth);
    let replies: Vec<BackendReply> = (0..60u64)
        .map(|i| {
            let (kind, data) = if i % 3 == 0 {
                (AccessKind::Write, Some([i as u8; 64]))
            } else {
                (AccessKind::Read, None)
            };
            backend.access(i * 500, kind, i % 17, data).unwrap()
        })
        .collect();
    backend.quiesce();
    let series = instrument.then(|| {
        let c = aboram_telemetry::uninstall().expect("collector was installed");
        let registry = c.registry();
        SchedulerSeries {
            overlap_saved_cycles: registry.counter("crypto.overlap_saved_cycles"),
            overlapped_blocks: registry.counter("crypto.overlapped_blocks"),
            occupancy: registry
                .run_hist_deltas()
                .into_iter()
                .find(|h| h.name() == "pipeline.occupancy")
                .map(|h| h.bins().to_vec())
                .unwrap_or_default(),
        }
    });
    (replies, series)
}

#[test]
fn telemetry_does_not_perturb_timed_backend_and_reports_scheduler_series() {
    for depth in [1u8, 4] {
        let (plain, none) = backend_run(depth, false);
        assert!(none.is_none());
        let (instrumented, series) = backend_run(depth, true);
        assert_eq!(plain, instrumented, "depth {depth}: a collector changed the replies");
        let series = series.unwrap();
        assert!(series.overlap_saved_cycles > 0, "depth {depth}: {series:?}");
        assert!(series.overlapped_blocks > 0, "depth {depth}: {series:?}");
        assert_eq!(
            series.occupancy.iter().sum::<u64>(),
            plain.len() as u64,
            "depth {depth}: one occupancy sample per access: {series:?}"
        );
        assert_eq!(series.occupancy.len() - 1, usize::from(depth), "depth {depth}: {series:?}");
    }
}
