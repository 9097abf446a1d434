//! Layer replays of one open-loop sweep point: trace generation, the
//! serial engine with the program's null probe, the same engine with the
//! counting probe, and with the energy and reliability probes the sweep
//! path folds. Each stage runs inside its own span.

use std::hint::black_box;
use std::time::Instant;

use onoc_sim::{
    EnergyModel, EnergyProbe, NullProbe, OpenLoopReport, OpenLoopSimulator, ReliabilityProbe,
    ReportMode, SimProbe, SimScratch,
};
use onoc_traffic::{TrafficConfig, TrafficRng, TrafficTrace, generate};

use crate::probe::CountingProbe;
use crate::trace::Tracer;

/// Alternating null-probe / probed engine runs per replayed point.
const ENGINE_REPEATS: usize = 2;

/// The seed the sweep path derives for grid point `index`.
pub fn point_seed(grid_seed: u64, index: usize) -> u64 {
    TrafficRng::new(grid_seed).split(index as u64).next_u64()
}

/// Route rows of the flows a trace injects: the serial sweep path builds
/// only these.
fn flow_rows(trace: &TrafficTrace, nodes: usize) -> Vec<u32> {
    let mut rows: Vec<u32> = trace
        .events()
        .iter()
        .map(|e| u32::try_from(e.src.0 * nodes + e.dst.0).expect("ring sizes fit u32 rows"))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// Runs the serial engine the way the sweep path does.
pub fn run_serial<P: SimProbe>(
    sim: &OpenLoopSimulator,
    trace: &TrafficTrace,
    nodes: usize,
    scratch: &mut SimScratch,
    probe: &mut P,
) -> OpenLoopReport {
    scratch.set_flow_rows(Some(flow_rows(trace, nodes)));
    sim.run_with_scratch_probed(trace.source(), scratch, ReportMode::Streaming, probe)
        .expect("generated traces are ordered and non-degenerate")
}

/// Host-time split of one replayed point.
#[derive(Debug)]
pub struct PointLayers {
    pub messages: usize,
    pub gen_ns: f64,
    pub engine_ns: f64,
    pub probed_ns: f64,
    pub facts: u64,
    pub report: OpenLoopReport,
    pub trace: TrafficTrace,
}

#[allow(clippy::cast_precision_loss)]
fn ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

/// Replays one point stage by stage. The null-probe and probed engine
/// runs alternate [`ENGINE_REPEATS`] times and keep their fastest run, so
/// the fold's share is not a difference of two noisy samples. The
/// counting run is not timed: its fact count divides the null-probe
/// engine time.
pub fn replay_point(
    tracer: &mut Tracer,
    config: &TrafficConfig,
    sim: &OpenLoopSimulator,
    wavelengths: usize,
    energy: &EnergyModel,
    scratch: &mut SimScratch,
) -> PointLayers {
    let start = Instant::now();
    let trace = tracer.span("traffic.generate", || generate(config));
    let gen_ns = ns(start);

    let mut report = None;
    let (mut engine_ns, mut probed_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ENGINE_REPEATS {
        let start = Instant::now();
        report = Some(tracer.span("sim.engine", || {
            run_serial(sim, &trace, config.nodes, scratch, &mut NullProbe)
        }));
        engine_ns = engine_ns.min(ns(start));

        let mut energy_probe = EnergyProbe::new(energy.clone(), config.nodes, wavelengths);
        let mut reliability = ReliabilityProbe::new(wavelengths);
        let start = Instant::now();
        tracer.span("sim.engine_fold", || {
            let mut pair = (&mut energy_probe, &mut reliability);
            black_box(run_serial(sim, &trace, config.nodes, scratch, &mut pair));
            black_box((energy_probe.report(), reliability.report()))
        });
        probed_ns = probed_ns.min(ns(start));
    }

    let mut counting = CountingProbe::default();
    tracer.span("sim.engine_counting", || {
        black_box(run_serial(
            sim,
            &trace,
            config.nodes,
            scratch,
            &mut counting,
        ))
    });

    PointLayers {
        messages: trace.len(),
        gen_ns,
        engine_ns,
        probed_ns,
        facts: counting.facts(),
        report: report.expect("at least one engine run"),
        trace,
    }
}

/// Sums of the per-point replays.
#[derive(Debug, Default)]
pub struct LayerTotals {
    pub messages: f64,
    pub gen_ns: f64,
    pub engine_ns: f64,
    pub probed_ns: f64,
    pub facts: f64,
    pub blocked: f64,
}

impl LayerTotals {
    #[allow(clippy::cast_precision_loss)]
    pub fn add(&mut self, point: &PointLayers) {
        self.messages += point.messages as f64;
        self.gen_ns += point.gen_ns;
        self.engine_ns += point.engine_ns;
        self.probed_ns += point.probed_ns;
        self.facts += point.facts as f64;
        self.blocked += point.report.blocked_attempts as f64;
    }

    /// The open-loop layer metrics over every replayed point.
    pub fn metrics(&self) -> Vec<crate::harness::Metric> {
        use crate::harness::metric;
        vec![
            metric("traffic.gen_ns_per_msg", self.gen_ns / self.messages),
            metric("sim.engine_ns_per_msg", self.engine_ns / self.messages),
            metric("sim.ns_per_fact", self.engine_ns / self.facts),
            metric("sim.facts_per_msg", self.facts / self.messages),
            metric("sim.blocked_per_msg", self.blocked / self.messages),
            metric(
                "sim.fold_ns_per_msg",
                (self.probed_ns - self.engine_ns) / self.messages,
            ),
        ]
    }
}
