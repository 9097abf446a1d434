//! `paper-dse`: the paper's Fig. 6(a) search. NSGA-II, population 400,
//! 300 generations, time × energy, on the 6-communication application at
//! NW ∈ {4, 8, 12}. Exercises onoc-wa (NSGA-II, evaluator), onoc-app
//! (schedule) and the onoc-topology/onoc-photonics spectrum walk; never
//! touches the event engine, traffic generation or the ledger.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use onoc_app::Schedule;
use onoc_topology::{SpectrumEngine, Transmission};
use onoc_wa::{
    Allocation, Nsga2, Nsga2Config, Nsga2Outcome, ObjectiveSet, ProblemInstance, nsga2_sort,
};

use crate::harness::{Bench, Checks, Metric, Verdict, Workload, median, metric, tail};

const WAVELENGTHS: [usize; 3] = [4, 8, 12];
/// Best execution times the paper annotates in Fig. 6(a), in kcc.
const PAPER_BEST_KCC: [f64; 3] = [28.3, 23.8, 22.96];
/// Hypervolume reference point (exec kcc, bit energy fJ): weakly worse
/// than every valid allocation of the paper application at NW ≤ 12.
const HV_REFERENCE: [f64; 2] = [40.0, 2000.0];
const POPULATION: usize = 400;
const GENERATIONS: usize = 300;
/// Replays of the final populations per layer measurement.
const REPLAYS: usize = 5;

pub struct PaperDse;

pub struct State {
    instances: Vec<ProblemInstance>,
}

pub struct Search {
    nw: usize,
    outcome: Nsga2Outcome,
    /// Objective vectors of the last `POPULATION` evaluations (the final
    /// generation's offspring); collected in traced passes only.
    offspring: Vec<Vec<f64>>,
}

fn config(seed: u64) -> Nsga2Config {
    Nsga2Config {
        population_size: POPULATION,
        generations: GENERATIONS,
        objectives: ObjectiveSet::TimeEnergy,
        seed,
        ..Nsga2Config::default()
    }
}

fn best_kcc(outcome: &Nsga2Outcome) -> f64 {
    outcome
        .front
        .points()
        .iter()
        .map(|p| p.objectives.exec_time.to_kilocycles())
        .fold(f64::INFINITY, f64::min)
}

fn transmissions(instance: &ProblemInstance, allocation: &Allocation) -> Vec<Transmission> {
    let app = instance.app();
    app.graph()
        .comms()
        .map(|(id, _)| Transmission::new(id.0, *app.route(id), allocation.channels(id)))
        .collect()
}

/// Median over [`REPLAYS`] of the mean ns per call of `f` over `items`.
#[allow(clippy::cast_precision_loss)]
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let samples: Vec<f64> = (0..REPLAYS)
        .map(|_| {
            let start = Instant::now();
            for item in items {
                f(item);
            }
            start.elapsed().as_nanos() as f64 / items.len().max(1) as f64
        })
        .collect();
    median(&samples)
}

impl Workload for PaperDse {
    type State = State;
    type Output = Vec<Search>;

    fn setup(&self, bench: &mut Bench) -> State {
        let instances = bench.tracer.span("wa.instance", || {
            WAVELENGTHS
                .iter()
                .map(|&nw| ProblemInstance::paper_with_wavelengths(nw))
                .collect()
        });
        State { instances }
    }

    fn pass(&self, bench: &mut Bench, state: &mut State) -> Vec<Search> {
        state
            .instances
            .iter()
            .map(|instance| {
                let evaluator = instance.evaluator();
                let nsga2 = Nsga2::new(&evaluator, config(bench.seed));
                if !bench.tracer.enabled() {
                    return Search {
                        nw: instance.wavelength_count(),
                        outcome: nsga2.run(),
                        offspring: Vec::new(),
                    };
                }
                let tracer = &mut bench.tracer;
                let span = tracer.begin("wa.nsga2");
                let mut boundary = Instant::now();
                let mut recent: VecDeque<Vec<f64>> = VecDeque::with_capacity(POPULATION);
                let outcome = nsga2.run_with_observers(
                    |_, _| {
                        let now = Instant::now();
                        tracer.record("wa.generation", boundary, now);
                        boundary = now;
                    },
                    |_, objectives| {
                        if recent.len() == POPULATION {
                            recent.pop_front();
                        }
                        if let Some(o) = objectives {
                            recent.push_back(o.values(ObjectiveSet::TimeEnergy));
                        }
                    },
                );
                bench.tracer.end(span);
                Search {
                    nw: instance.wavelength_count(),
                    outcome,
                    offspring: recent.into(),
                }
            })
            .collect()
    }

    fn operations(&self, output: &Vec<Search>) -> usize {
        output.len()
    }

    fn canonical(&self, output: &Vec<Search>, text: &mut dyn std::fmt::Write) -> std::fmt::Result {
        for search in output {
            let s = search.outcome.stats;
            writeln!(
                text,
                "nw={} evaluations={} valid={} unique_valid={} generations={}",
                search.nw, s.evaluations, s.valid_evaluations, s.unique_valid, s.generations
            )?;
            for p in search.outcome.front.points() {
                writeln!(
                    text,
                    "{:?} {:?} {:?} {:?}",
                    p.objectives.exec_time.to_kilocycles(),
                    p.objectives.bit_energy.value(),
                    p.objectives.avg_log_ber,
                    p.allocation.counts()
                )?;
            }
        }
        Ok(())
    }

    fn check(&self, state: &mut State, output: &Vec<Search>) -> Verdict {
        let mut verdict = Verdict::default();
        let ops = output.len();
        // Seed-independent anchors: the frugal allocation scores 38 kcc at
        // every comb size, and the unbounded-bandwidth makespan is 20 kcc.
        for instance in &state.instances {
            let evaluator = instance.evaluator();
            let frugal = instance
                .allocation_from_counts(&[1; 6])
                .ok()
                .and_then(|a| evaluator.evaluate(&a))
                .map(|o| o.exec_time.to_kilocycles());
            verdict.require(frugal == Some(38.0), ops, || {
                format!(
                    "frugal [1;6] at {}λ scores {frugal:?} kcc, expected 38",
                    instance.wavelength_count()
                )
            });
            let min = Schedule::new(instance.app().graph(), instance.options().rate)
                .map(|s| s.min_makespan().to_kilocycles());
            verdict.require(min == Ok(20.0), ops, || {
                format!("minimum makespan is {min:?} kcc, expected 20")
            });
        }
        for (search, instance) in output.iter().zip(&state.instances) {
            let s = search.outcome.stats;
            let evaluator = instance.evaluator();
            let front = search.outcome.front.points();
            let sane = s.generations == GENERATIONS
                && s.evaluations == POPULATION * (GENERATIONS + 1)
                && s.valid_evaluations <= s.evaluations
                && s.unique_valid <= s.valid_evaluations
                && !front.is_empty();
            // Every front point re-scores to the objectives it carries
            // and lies inside the hypervolume box.
            let rescored = front.iter().all(|p| {
                evaluator.evaluate(&p.allocation) == Some(p.objectives)
                    && p.values[0] >= 20.0
                    && p.values[0] <= HV_REFERENCE[0]
                    && p.values[1] <= HV_REFERENCE[1]
            });
            verdict.require(sane && rescored, 1, || {
                format!(
                    "NW={}: stats {s:?}, {} front points, rescored {rescored}",
                    search.nw,
                    front.len()
                )
            });
        }
        verdict
    }

    fn outputs(&self, output: &Vec<Search>) -> Vec<Metric> {
        #[allow(clippy::cast_precision_loss)]
        let n = output.len() as f64;
        let best: Vec<f64> = output.iter().map(|s| best_kcc(&s.outcome)).collect();
        let err: f64 = best
            .iter()
            .zip(PAPER_BEST_KCC)
            .map(|(b, p)| (b - p).abs() / p * 100.0)
            .sum::<f64>()
            / n;
        let hv: f64 = output
            .iter()
            .filter(|s| {
                s.outcome
                    .front
                    .points()
                    .iter()
                    .all(|p| p.values[0] <= HV_REFERENCE[0] && p.values[1] <= HV_REFERENCE[1])
            })
            .map(|s| s.outcome.front.hypervolume_2d(HV_REFERENCE))
            .sum();
        vec![
            metric("best_exec_kcc", best.iter().sum::<f64>() / n),
            metric("front_hv", hv),
            metric("paper_err_pct", err),
        ]
    }

    fn layers(
        &self,
        bench: &mut Bench,
        state: &mut State,
        output: &Vec<Search>,
        _checks: &mut Checks,
    ) -> Vec<Metric> {
        let generations = bench.tracer.durations_ms("wa.generation");
        let (evals, valid, unique) = output.iter().fold((0, 0, 0), |(e, v, u), s| {
            let st = s.outcome.stats;
            (
                e + st.evaluations,
                v + st.valid_evaluations,
                u + st.unique_valid,
            )
        });
        #[allow(clippy::cast_precision_loss)]
        let mut metrics = vec![
            metric("wa.gen_ms.p50", median(&generations)),
            metric("wa.gen_ms.tail", tail(&generations)),
            metric("wa.evals", evals as f64),
            metric("wa.valid_ratio", valid as f64 / evals as f64),
            metric("wa.distinct_ratio", unique as f64 / valid as f64),
        ];

        // Replay every final population through the evaluator's stages;
        // `k` indexes the instance (and so the evaluator and schedule).
        let pairs: Vec<(usize, &Allocation, bool)> = output
            .iter()
            .enumerate()
            .flat_map(|(k, s)| {
                s.outcome
                    .final_population
                    .iter()
                    .map(move |ind| (k, &ind.allocation, ind.objectives.is_some()))
            })
            .collect();
        let valid_pairs: Vec<(usize, &Allocation, bool)> = pairs
            .iter()
            .copied()
            .filter(|&(_, _, valid)| valid)
            .collect();
        let evaluators: Vec<_> = state.instances.iter().map(|i| i.evaluator()).collect();
        let schedules: Vec<Schedule<'_>> = state
            .instances
            .iter()
            .map(|i| Schedule::new(i.app().graph(), i.options().rate).expect("acyclic"))
            .collect();
        let tracer = &mut bench.tracer;
        let eval_ns = tracer.span("wa.evaluate", || {
            ns_per_call(&pairs, |&(k, a, _)| {
                black_box(evaluators[k].evaluate(a));
            })
        });
        let check_ns = tracer.span("wa.check", || {
            ns_per_call(&pairs, |&(k, a, _)| {
                black_box(evaluators[k].checker().is_valid(a));
            })
        });
        let schedule_ns = tracer.span("app.schedule", || {
            ns_per_call(&valid_pairs, |&(k, a, _)| {
                black_box(schedules[k].evaluate(&a.counts()).ok());
            })
        });
        let spectrum_ns = tracer.span("topo.spectrum", || {
            ns_per_call(&valid_pairs, |&(k, a, _)| {
                let instance = &state.instances[k];
                let traffic = transmissions(instance, a);
                let engine = SpectrumEngine::with_model(
                    instance.arch(),
                    &traffic,
                    instance.options().crosstalk_model,
                )
                .expect("valid allocations build a spectrum engine");
                black_box(engine.analyze().ok());
            })
        });
        // NSGA-II sorts parents ∪ offspring: 2N objective vectors.
        let combined: Vec<Vec<Vec<f64>>> = output
            .iter()
            .map(|s| {
                let mut objs: Vec<Vec<f64>> = s
                    .outcome
                    .final_population
                    .iter()
                    .filter_map(|ind| ind.objectives.map(|o| o.values(ObjectiveSet::TimeEnergy)))
                    .collect();
                objs.extend(s.offspring.iter().cloned());
                objs
            })
            .collect();
        let sort_us = tracer.span("wa.sort", || {
            ns_per_call(&combined, |objs| {
                black_box(nsga2_sort::fast_nondominated_sort(objs));
            }) / 1e3
        });
        metrics.extend([
            metric("wa.eval_ns", eval_ns),
            metric("wa.check_ns", check_ns),
            metric("wa.sort_us", sort_us),
            metric("app.schedule_ns", schedule_ns),
            metric("topo.spectrum_ns", spectrum_ns),
        ]);
        metrics
    }
}
