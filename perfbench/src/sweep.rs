//! `sat-sweep`: the open-loop saturation ramp on 32 nodes × 8λ, uniform
//! and hotspot traffic, dynamic `single` allocation, paper energy model.
//! Loaded, run and rendered the way `onoc run --spec` does it, so trace
//! generation, the serial event core (admit and retry paths, since the
//! ramp crosses saturation) and the energy fold do the work. Bypasses
//! onoc-wa.

use std::hint::black_box;
use std::time::Instant;

use onoc_exp::{Report, ScenarioSpec, WorkloadSpec, run_spec};
use onoc_sim::{
    DynamicPolicy, EnergyModel, InjectionMode, NullProbe, OpenLoopSimulator, SimScratch,
    WavelengthMode,
};
use onoc_topology::RingTopology;
use onoc_traffic::{TrafficConfig, generate};
use onoc_units::{Bits, BitsPerCycle};

use crate::harness::{Bench, Checks, Metric, Verdict, Workload, metric};
use crate::replay::{LayerTotals, point_seed, replay_point, run_serial};

/// Latency limit of `sat_rate`: p99 message latency in cycles.
const LATENCY_LIMIT_CYCLES: f64 = 2000.0;
/// Accepted share of the offered load below which a point saturated.
const MIN_ACCEPTED_SHARE: f64 = 0.95;
/// Spec parses timed per `exp.spec_parse_us` sample.
const PARSE_REPLAYS: u32 = 200;

const SPEC: &str = r#"
name = "sat-sweep"
seed = @SEED@
scale = "paper"

[arch]
nodes = 32
wavelengths = 8

[workload]
kind = "sweep"
patterns = ["uniform", "hotspot"]
hotspots = [0]
fraction = 0.5
injection_rates = [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16]
wavelengths = [8]
ring_sizes = [32]
message_bits = 512.0
horizon = 100000

[allocator]
kind = "dynamic"
policy = "single"
"#;

pub struct SatSweep;

pub struct State {
    spec: ScenarioSpec,
    text: String,
    scratch: SimScratch,
    /// Sweep points, the unit of `attempted`.
    points: usize,
}

/// One sweep point as the report's table renders it.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    pattern: String,
    rate: f64,
    offered: f64,
    accepted: f64,
    messages: usize,
    p99: f64,
    p99_text: String,
    pj_per_bit: f64,
    lost: usize,
}

pub struct Output {
    json: String,
    points: Result<Vec<Point>, String>,
    expected_points: usize,
}

/// The sweep's points in grid order (ring → comb → pattern → rate).
struct Grid {
    nodes: usize,
    wavelengths: usize,
    points: Vec<TrafficConfig>,
}

fn grid(spec: &ScenarioSpec) -> Grid {
    let WorkloadSpec::Sweep {
        patterns,
        injection_rates,
        wavelengths,
        ring_sizes,
        message_bits,
        horizon,
        ..
    } = &spec.workload
    else {
        unreachable!("the sat-sweep spec is a sweep");
    };
    assert!(
        ring_sizes.len() == 1 && wavelengths.len() == 1,
        "the replay covers one ring and one comb"
    );
    let mut points = Vec::new();
    for pattern in patterns {
        for &injection_rate in injection_rates {
            points.push(TrafficConfig {
                nodes: ring_sizes[0],
                pattern: pattern.clone(),
                injection_rate,
                message_volume: Bits::new(*message_bits),
                horizon: *horizon,
                seed: point_seed(spec.seed, points.len()),
                burstiness: None,
            });
        }
    }
    Grid {
        nodes: ring_sizes[0],
        wavelengths: wavelengths[0],
        points,
    }
}

fn simulator(grid: &Grid, policy: DynamicPolicy) -> OpenLoopSimulator {
    OpenLoopSimulator::with_injection(
        RingTopology::new(grid.nodes),
        grid.wavelengths,
        BitsPerCycle::new(1.0),
        WavelengthMode::Dynamic(policy),
        InjectionMode::Open,
    )
}

fn policy(spec: &ScenarioSpec) -> DynamicPolicy {
    match &spec.allocator {
        onoc_exp::AllocatorSpec::Dynamic { policy } => *policy,
        other => unreachable!("the sat-sweep spec is dynamic, not {}", other.kind()),
    }
}

fn points(report: &Report) -> Result<Vec<Point>, String> {
    let table = report
        .tables()
        .into_iter()
        .find(|t| t.name() == "sweep")
        .ok_or("the report has no sweep table")?;
    let col = |name: &str| {
        table
            .columns()
            .iter()
            .position(|c| c == name)
            .ok_or(format!("the sweep table has no {name} column"))
    };
    let (pattern, rate, offered, accepted) = (
        col("pattern")?,
        col("injection_rate")?,
        col("offered_bits_per_cycle")?,
        col("accepted_bits_per_cycle")?,
    );
    let (messages, p99, pj, lost) = (
        col("messages")?,
        col("latency_p99")?,
        col("energy_pj_per_bit")?,
        col("lost")?,
    );
    table
        .rows()
        .iter()
        .map(|row| {
            let float = |i: usize| {
                row[i]
                    .parse::<f64>()
                    .map_err(|e| format!("{}: {e}", row[i]))
            };
            let count = |i: usize| {
                row[i]
                    .parse::<usize>()
                    .map_err(|e| format!("{}: {e}", row[i]))
            };
            Ok(Point {
                pattern: row[pattern].clone(),
                rate: float(rate)?,
                offered: float(offered)?,
                accepted: float(accepted)?,
                messages: count(messages)?,
                p99: float(p99)?,
                p99_text: row[p99].clone(),
                pj_per_bit: float(pj)?,
                lost: count(lost)?,
            })
        })
        .collect()
}

/// Highest rate at which every pattern meets the latency limit without
/// saturating, and the worst pattern's p99 there.
fn saturation(points: &[Point]) -> (f64, f64) {
    let mut rates: Vec<f64> = points.iter().map(|p| p.rate).collect();
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    let meets =
        |p: &Point| p.p99 <= LATENCY_LIMIT_CYCLES && p.accepted >= MIN_ACCEPTED_SHARE * p.offered;
    let mut best = (0.0, 0.0);
    for rate in rates {
        let at: Vec<&Point> = points.iter().filter(|p| p.rate == rate).collect();
        if !at.iter().all(|p| meets(p)) {
            break;
        }
        best = (rate, at.iter().map(|p| p.p99).fold(0.0, f64::max));
    }
    best
}

impl Workload for SatSweep {
    type State = State;
    type Output = Output;

    fn setup(&self, bench: &mut Bench) -> State {
        let text = SPEC.replace("@SEED@", &bench.seed.to_string());
        let spec = bench.tracer.span("exp.spec_parse", || {
            ScenarioSpec::from_toml_str(&text).expect("the sat-sweep spec is valid")
        });
        let points = grid(&spec).points.len();
        State {
            spec,
            text,
            scratch: SimScratch::new(),
            points,
        }
    }

    fn pass(&self, bench: &mut Bench, state: &mut State) -> Output {
        let tracer = &mut bench.tracer;
        let report = tracer.span("exp.run_spec", || run_spec(&state.spec, 1));
        match report {
            Ok(report) => Output {
                json: tracer.span("exp.render", || report.to_json()),
                points: points(&report),
                expected_points: state.points,
            },
            Err(e) => Output {
                json: String::new(),
                points: Err(format!("run_spec failed: {e}")),
                expected_points: state.points,
            },
        }
    }

    fn operations(&self, output: &Output) -> usize {
        output.expected_points
    }

    fn canonical(&self, output: &Output, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        out.write_str(&output.json)
    }

    fn check(&self, state: &mut State, output: &Output) -> Verdict {
        let mut verdict = Verdict::default();
        let ops = output.expected_points;
        let points = match &output.points {
            Ok(points) => points,
            Err(e) => {
                verdict.require(false, ops, || e.clone());
                return verdict;
            }
        };
        let grid = grid(&state.spec);
        verdict.require(points.len() == grid.points.len(), ops, || {
            format!("{} rows for {} points", points.len(), grid.points.len())
        });
        // Replay each point on the engine directly: every injected
        // message is delivered or lost, and the spec path reports the
        // same message count and p99.
        let sim = simulator(&grid, policy(&state.spec));
        for (point, config) in points.iter().zip(&grid.points) {
            let trace = generate(config);
            let report = run_serial(&sim, &trace, grid.nodes, &mut state.scratch, &mut NullProbe);
            let delivered = report.message_count;
            let lost = report.lost_messages;
            let p99 = format!("{:.2}", report.latency().p99);
            let ok = delivered + lost == trace.len()
                && point.messages == trace.len()
                && point.lost == lost
                && point.p99_text == p99
                && point.pj_per_bit > 0.0;
            verdict.require(ok, 1, || {
                format!(
                    "{} @ {}: delivered {delivered} + lost {lost} vs injected {} \
                     (row: {} messages, p99 {} vs replay {p99}, {} pJ/bit)",
                    point.pattern,
                    point.rate,
                    trace.len(),
                    point.messages,
                    point.p99_text,
                    point.pj_per_bit
                )
            });
        }
        verdict
    }

    fn outputs(&self, output: &Output) -> Vec<Metric> {
        let Ok(points) = &output.points else {
            return Vec::new();
        };
        #[allow(clippy::cast_precision_loss)]
        let pj = points.iter().map(|p| p.pj_per_bit).sum::<f64>() / points.len() as f64;
        let (rate, p99) = saturation(points);
        vec![
            metric("pj_per_bit", pj),
            metric("sat_rate", rate),
            metric("latency_p99_cycles", p99),
        ]
    }

    fn layers(
        &self,
        bench: &mut Bench,
        state: &mut State,
        _output: &Output,
        _checks: &mut Checks,
    ) -> Vec<Metric> {
        let grid = grid(&state.spec);
        let tracer = &mut bench.tracer;
        // The model the spec path resolves for the sweep.
        let start = Instant::now();
        let energy = tracer.span("sim.energy_model", || {
            EnergyModel::paper(grid.nodes, grid.wavelengths)
        });
        #[allow(clippy::cast_precision_loss)]
        let energy_ms = start.elapsed().as_nanos() as f64 / 1e6;
        let sim = simulator(&grid, policy(&state.spec));
        let mut totals = LayerTotals::default();
        for config in &grid.points {
            let point = replay_point(
                tracer,
                config,
                &sim,
                grid.wavelengths,
                &energy,
                &mut state.scratch,
            );
            totals.add(&point);
        }
        let parse_us = tracer.span("exp.spec_parse", || {
            let start = Instant::now();
            for _ in 0..PARSE_REPLAYS {
                black_box(ScenarioSpec::from_toml_str(black_box(&state.text)).ok());
            }
            #[allow(clippy::cast_precision_loss)]
            let us = start.elapsed().as_nanos() as f64 / 1e3 / PARSE_REPLAYS as f64;
            us
        });
        let render_ms = tracer.durations_ms("exp.render");
        let mut metrics = totals.metrics();
        metrics.extend([
            metric("sim.energy_model_ms", energy_ms),
            metric("exp.spec_parse_us", parse_us),
            metric("exp.render_ms", crate::harness::median(&render_ms)),
        ]);
        metrics
    }
}
