//! `tornado-256n`: 256 nodes × 128λ, tornado traffic at 0.02 on the
//! source-striped static map, run serially through the sweep path. The
//! one workload whose set-up dominates (`EnergyModel::paper(256, 128)`),
//! and the engine's static path: scheduled starts and sparse route
//! set-up, with no two flows contending for a lane. Every source sends
//! all its flows on its one lane at 10× that lane's capacity, so messages
//! queue at their source and the latency reflects that backlog. The
//! comb's channels are narrower than the micro-ring linewidth; the pJ/bit
//! it reports is that infeasible design's figure, reported as is.

use std::hint::black_box;
use std::time::Instant;

use onoc_photonics::WavelengthId;
use onoc_sim::{
    AimdParams, DynamicPolicy, EnergyModel, InjectionMode, NullProbe, OpenLoopSimulator,
    ReportMode, SimScratch, StaticFlowMap, TransportMode, WavelengthMode,
};
use onoc_topology::{NodeId, OnocArchitecture, RingTopology, Transmission, power_budgets};
use onoc_traffic::{
    Scenario, ScenarioResult, SweepGrid, TrafficConfig, TrafficPattern, run_scenario_with,
};
use onoc_units::{Bits, BitsPerCycle};

use crate::harness::{Bench, Checks, Metric, Verdict, Workload, metric};
use crate::replay::{LayerTotals, point_seed, replay_point};

const NODES: usize = 256;
const WAVELENGTHS: usize = 128;
const RATE: f64 = 0.02;
const HORIZON: u64 = 200_000;
/// Intra-run workers of the traced PDES comparison.
pub const PDES_WORKERS: usize = 2;
/// Source nodes whose single-lane paths `topo.budget_us` times.
const BUDGET_SOURCES: usize = 32;

pub struct Tornado;

pub struct State {
    grid: SweepGrid,
    scenario: Scenario,
    scratch: SimScratch,
}

/// Every flow out of `src` owns lane `src % wavelengths`. Under tornado
/// traffic the two sources sharing a lane sit half a ring apart, so
/// their paths never meet: the map is conflict-free.
fn source_striped_map(nodes: usize, wavelengths: usize) -> StaticFlowMap {
    let mut lanes = vec![Vec::new(); nodes * nodes];
    for src in 0..nodes {
        for dst in 0..nodes {
            if src != dst {
                lanes[src * nodes + dst] = vec![WavelengthId(src % wavelengths)];
            }
        }
    }
    StaticFlowMap::from_table(nodes, wavelengths, lanes)
}

fn simulator(grid: &SweepGrid) -> OpenLoopSimulator {
    let map = grid.static_map.clone().expect("tornado-256n is static");
    OpenLoopSimulator::with_injection(
        RingTopology::new(NODES),
        WAVELENGTHS,
        grid.lane_rate,
        WavelengthMode::Static(map),
        InjectionMode::Open,
    )
}

fn traffic_config(grid: &SweepGrid, scenario: &Scenario) -> TrafficConfig {
    TrafficConfig {
        nodes: scenario.nodes,
        pattern: scenario.pattern.clone(),
        injection_rate: scenario.injection_rate,
        message_volume: grid.message_volume,
        horizon: grid.horizon,
        seed: point_seed(grid.seed, scenario.index),
        burstiness: None,
    }
}

impl Workload for Tornado {
    type State = State;
    type Output = ScenarioResult;

    fn setup(&self, bench: &mut Bench) -> State {
        let tracer = &mut bench.tracer;
        let energy = tracer.span("sim.energy_model", || {
            EnergyModel::paper(NODES, WAVELENGTHS)
        });
        let map = tracer.span("sim.static_map", || source_striped_map(NODES, WAVELENGTHS));
        let grid = SweepGrid {
            patterns: vec![TrafficPattern::Tornado],
            injection_rates: vec![RATE],
            wavelengths: vec![WAVELENGTHS],
            ring_sizes: vec![NODES],
            message_volume: Bits::new(512.0),
            horizon: HORIZON,
            seed: bench.seed,
            lane_rate: BitsPerCycle::new(1.0),
            policy: DynamicPolicy::Single,
            burstiness: None,
            injection: InjectionMode::Open,
            energy: Some(energy),
            faults: None,
            transport: TransportMode::None,
            healing: None,
            aimd: AimdParams::default(),
            workers: 1,
            static_map: Some(map),
        };
        let scenario = grid.scenarios().remove(0);
        State {
            grid,
            scenario,
            scratch: SimScratch::new(),
        }
    }

    fn pass(&self, bench: &mut Bench, state: &mut State) -> ScenarioResult {
        bench.tracer.span("traffic.run_scenario", || {
            run_scenario_with(&state.grid, &state.scenario, &mut state.scratch)
        })
    }

    fn operations(&self, _output: &ScenarioResult) -> usize {
        1
    }

    fn canonical(
        &self,
        output: &ScenarioResult,
        out: &mut dyn std::fmt::Write,
    ) -> std::fmt::Result {
        write!(out, "{output:?}")
    }

    fn check(&self, _state: &mut State, output: &ScenarioResult) -> Verdict {
        let mut verdict = Verdict::default();
        let delivered = output.latency.count;
        verdict.require(delivered + output.lost == output.injected, 1, || {
            format!(
                "delivered {delivered} + lost {} != injected {}",
                output.lost, output.injected
            )
        });
        verdict.require(
            output.injected > 0 && output.energy_pj_per_bit > 0.0,
            1,
            || {
                format!(
                    "{} injected at {} pJ/bit",
                    output.injected, output.energy_pj_per_bit
                )
            },
        );
        verdict
    }

    fn outputs(&self, output: &ScenarioResult) -> Vec<Metric> {
        vec![
            metric("pj_per_bit", output.energy_pj_per_bit),
            metric("latency_p99_cycles", output.latency.p99),
        ]
    }

    fn layers(
        &self,
        bench: &mut Bench,
        state: &mut State,
        output: &ScenarioResult,
        checks: &mut Checks,
    ) -> Vec<Metric> {
        let tracer = &mut bench.tracer;
        let energy_ms = crate::harness::median(&tracer.durations_ms("sim.energy_model"));

        // One single-lane budget per path, as the energy model computes.
        let (rows, cols) = OnocArchitecture::near_square_grid(NODES);
        let arch = OnocArchitecture::builder()
            .grid_dimensions(rows, cols)
            .wavelengths(WAVELENGTHS)
            .build()
            .expect("the paper grid at 256 nodes is valid");
        let paths: Vec<Transmission> = (0..BUDGET_SOURCES)
            .flat_map(|src| {
                (0..NODES)
                    .filter(move |&dst| dst != src)
                    .map(move |dst| (src, dst))
            })
            .map(|(src, dst)| {
                let path = arch.route_shortest(NodeId(src), NodeId(dst));
                Transmission::new(0, path, vec![WavelengthId(0)])
            })
            .collect();
        let start = Instant::now();
        tracer.span("topo.budget", || {
            for tx in &paths {
                black_box(power_budgets(&arch, std::slice::from_ref(tx)).ok());
            }
        });
        #[allow(clippy::cast_precision_loss)]
        let budget_us = start.elapsed().as_nanos() as f64 / 1e3 / paths.len() as f64;

        let config = traffic_config(&state.grid, &state.scenario);
        let sim = simulator(&state.grid);
        let energy = state
            .grid
            .energy
            .clone()
            .expect("tornado-256n folds energy");
        let point = replay_point(
            tracer,
            &config,
            &sim,
            WAVELENGTHS,
            &energy,
            &mut state.scratch,
        );
        let mut totals = LayerTotals::default();
        totals.add(&point);
        checks.expect(
            point.report.latency() == output.latency && point.messages == output.injected,
            || "the direct engine replay disagrees with the sweep path".into(),
        );

        // 2-worker PDES on the same trace: the report must equal the
        // serial one, and the speed-up against the fastest serial run is
        // the evidence the ROADMAP's PDES decision needs.
        let start = Instant::now();
        let parallel = tracer.span("sim.pdes", || {
            sim.run_parallel_probed(
                point.trace.source(),
                PDES_WORKERS,
                ReportMode::Streaming,
                &mut NullProbe,
            )
        });
        #[allow(clippy::cast_precision_loss)]
        let parallel_ns = start.elapsed().as_nanos() as f64;
        checks.expect(
            matches!(&parallel, Ok(report) if *report == point.report),
            || "the 2-worker PDES report differs from the serial one".into(),
        );

        let mut metrics = totals.metrics();
        #[allow(clippy::cast_precision_loss)]
        metrics.extend([
            metric("sim.energy_model_ms", energy_ms),
            metric("topo.budget_us", budget_us),
            metric("sim.pdes_speedup", point.engine_ns / parallel_ns),
            metric("sim.pdes_threads", (PDES_WORKERS + 1) as f64),
        ]);
        metrics
    }
}
