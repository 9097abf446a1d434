//! The NSGA-II generational loop.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::nsga2::crowding::crowding_distances;
use crate::nsga2::operators::{binary_tournament, bitflip_mutation, two_point_crossover};
use crate::nsga2::sort::fast_nondominated_sort;
use crate::pareto::{FrontPoint, ParetoFront};
use crate::{Allocation, Evaluator, ObjectiveSet, Objectives};

/// Configuration of one NSGA-II run.
///
/// The defaults reproduce the paper's setup (§IV): population 400,
/// 300 generations; crossover/mutation rates are not stated in the paper, so
/// the standard NSGA-II choices are used (pc = 0.9, pm = 1/genes).
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Individuals per generation (the paper uses 400).
    pub population_size: usize,
    /// Number of generations (the paper uses 300).
    pub generations: usize,
    /// Probability that a selected pair undergoes crossover.
    pub crossover_probability: f64,
    /// Per-gene mutation probability; `None` selects `1/gene_count`.
    pub mutation_probability: Option<f64>,
    /// RNG seed — runs are fully deterministic given a seed.
    pub seed: u64,
    /// Which objectives drive dominance.
    pub objectives: ObjectiveSet,
    /// Keep an archive of every distinct valid solution encountered; the
    /// returned front is then drawn from the whole search history (as in
    /// Fig. 7) instead of the final population only.
    pub track_archive: bool,
    /// Seed the initial population with the First-Fit allocation when one
    /// exists. On heavily constrained instances (dense waveguide-sharing
    /// graphs) random initialisation may contain no valid individual at
    /// all; one feasible seed is enough for selection pressure to take
    /// over.
    pub seed_with_heuristics: bool,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Self {
            population_size: 400,
            generations: 300,
            crossover_probability: 0.9,
            mutation_probability: None,
            seed: 42,
            objectives: ObjectiveSet::default(),
            track_archive: true,
            seed_with_heuristics: true,
        }
    }
}

/// One population member.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// The chromosome.
    pub allocation: Allocation,
    /// Its score; `None` marks a §III-D-invalid individual (the paper's
    /// "fitness = infinity").
    pub objectives: Option<Objectives>,
}

/// Search statistics, the raw material of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Nsga2Stats {
    /// Total chromosome evaluations (initial population + offspring).
    pub evaluations: usize,
    /// Evaluations that satisfied the §III-D constraints
    /// (Table II counts these as "valid solutions").
    pub valid_evaluations: usize,
    /// Distinct valid chromosomes encountered.
    pub unique_valid: usize,
    /// Generations executed.
    pub generations: usize,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Nsga2Outcome {
    /// The Pareto front (archive-wide if `track_archive`, else drawn from
    /// the final population).
    pub front: ParetoFront,
    /// The final population.
    pub final_population: Vec<Individual>,
    /// Search statistics.
    pub stats: Nsga2Stats,
}

/// The NSGA-II optimiser bound to an [`Evaluator`].
///
/// # Examples
///
/// ```
/// use onoc_wa::{Nsga2, Nsga2Config, ObjectiveSet, ProblemInstance};
///
/// let instance = ProblemInstance::paper_with_wavelengths(4);
/// let evaluator = instance.evaluator();
/// let outcome = Nsga2::new(&evaluator, Nsga2Config {
///     population_size: 40,
///     generations: 20,
///     objectives: ObjectiveSet::TimeEnergy,
///     seed: 1,
///     ..Nsga2Config::default()
/// }).run();
/// assert!(outcome.stats.valid_evaluations > 0);
/// assert!(!outcome.front.is_empty());
/// ```
#[derive(Debug)]
pub struct Nsga2<'e, 'i> {
    evaluator: &'e Evaluator<'i>,
    config: Nsga2Config,
}

impl<'e, 'i> Nsga2<'e, 'i> {
    /// Binds the algorithm to an evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (population < 4, zero
    /// generations, or probabilities outside `[0, 1]`).
    #[must_use]
    pub fn new(evaluator: &'e Evaluator<'i>, config: Nsga2Config) -> Self {
        assert!(
            config.population_size >= 4,
            "population must hold at least 4 individuals, got {}",
            config.population_size
        );
        assert!(config.generations > 0, "need at least one generation");
        assert!(
            (0.0..=1.0).contains(&config.crossover_probability),
            "crossover probability must be in [0, 1]"
        );
        if let Some(pm) = config.mutation_probability {
            assert!(
                (0.0..=1.0).contains(&pm),
                "mutation probability must be in [0, 1]"
            );
        }
        Self { evaluator, config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &Nsga2Config {
        &self.config
    }

    /// Runs the optimisation.
    #[must_use]
    pub fn run(&self) -> Nsga2Outcome {
        self.run_with_observers(|_, _| {}, |_, _| {})
    }

    /// Runs the optimisation, invoking `observer(generation, front_so_far)`
    /// after every generation.
    #[must_use]
    pub fn run_with_observer(&self, observer: impl FnMut(usize, &ParetoFront)) -> Nsga2Outcome {
        self.run_with_observers(observer, |_, _| {})
    }

    /// Runs the optimisation with two observers: `observer` fires per
    /// generation, `on_eval` fires for every chromosome evaluation
    /// (`None` objectives = §III-D-invalid). The evaluation observer is how
    /// the Fig. 7 scatter of all explored valid solutions is collected.
    #[must_use]
    pub fn run_with_observers(
        &self,
        mut observer: impl FnMut(usize, &ParetoFront),
        mut on_eval: impl FnMut(&Allocation, Option<&Objectives>),
    ) -> Nsga2Outcome {
        let instance = self.evaluator.instance();
        let nl = instance.comm_count();
        let nw = instance.wavelength_count();
        let genes = nl * nw;
        let pm = self
            .config
            .mutation_probability
            .unwrap_or(1.0 / genes as f64);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut stats = Nsga2Stats::default();
        let mut archive = Archive::new(self.config.track_archive, self.config.objectives);
        // Scores of the current parents and of the offspring scored so far
        // this generation; rebuilt from the survivors after every
        // selection, so it never holds more than two populations.
        let mut memo: HashMap<GeneKey, Option<Objectives>> =
            HashMap::with_capacity(2 * self.config.population_size);

        // Initial population: sparse random chromosomes. A per-gene density
        // of ~2/NW keeps a healthy share of §III-D-valid individuals at
        // every comb size (dense uniform bits are almost always invalid for
        // wide combs).
        let density = (2.0 / nw as f64).min(0.5);
        let mut population: Vec<Individual> = Vec::with_capacity(self.config.population_size);
        if self.config.seed_with_heuristics {
            if let Ok(seeded) = crate::heuristics::first_fit(instance) {
                population.push(self.score(
                    seeded,
                    &mut memo,
                    &mut stats,
                    &mut archive,
                    &mut on_eval,
                ));
            }
        }
        while population.len() < self.config.population_size {
            let genes: Vec<bool> = (0..genes).map(|_| rng.random_bool(density)).collect();
            let allocation =
                Allocation::from_genes(genes, nw).expect("generated genes are aligned");
            population.push(self.score(
                allocation,
                &mut memo,
                &mut stats,
                &mut archive,
                &mut on_eval,
            ));
        }
        let mut fitness = self.rank_population(&population);

        for generation in 0..self.config.generations {
            // Variation: tournament parents, two-point crossover, mutation.
            let mut offspring = Vec::with_capacity(self.config.population_size);
            while offspring.len() < self.config.population_size {
                let pa = &population[binary_tournament(&mut rng, &fitness)].allocation;
                let pb = &population[binary_tournament(&mut rng, &fitness)].allocation;
                let (mut ca, mut cb) = if rng.random_bool(self.config.crossover_probability) {
                    two_point_crossover(&mut rng, pa, pb)
                } else {
                    (pa.clone(), pb.clone())
                };
                bitflip_mutation(&mut rng, &mut ca, pm);
                bitflip_mutation(&mut rng, &mut cb, pm);
                offspring.push(self.score(ca, &mut memo, &mut stats, &mut archive, &mut on_eval));
                if offspring.len() < self.config.population_size {
                    offspring.push(self.score(
                        cb,
                        &mut memo,
                        &mut stats,
                        &mut archive,
                        &mut on_eval,
                    ));
                }
            }

            // Environmental selection over parents ∪ offspring.
            let mut combined = population;
            combined.extend(offspring);
            (population, fitness) = self.select(combined);
            memo.clear();
            memo.extend(
                population
                    .iter()
                    .map(|ind| (GeneKey::new(&ind.allocation), ind.objectives)),
            );

            stats.generations = generation + 1;
            if self.config.track_archive {
                observer(generation, archive.front());
            } else {
                let front = self.population_front(&population);
                observer(generation, &front);
            }
        }

        stats.unique_valid = archive.unique_valid();
        let front = if self.config.track_archive {
            archive.into_front()
        } else {
            self.population_front(&population)
        };
        Nsga2Outcome {
            front,
            final_population: population,
            stats,
        }
    }

    /// Scores one chromosome. A chromosome already in `memo` reuses its
    /// score (evaluation is deterministic); it still counts as an
    /// evaluation and reaches the archive and `on_eval` like a fresh one.
    fn score(
        &self,
        allocation: Allocation,
        memo: &mut HashMap<GeneKey, Option<Objectives>>,
        stats: &mut Nsga2Stats,
        archive: &mut Archive,
        on_eval: &mut impl FnMut(&Allocation, Option<&Objectives>),
    ) -> Individual {
        let key = GeneKey::new(&allocation);
        let objectives = match memo.get(&key) {
            Some(&known) => known,
            None => {
                let fresh = self.evaluator.evaluate(&allocation);
                memo.insert(key.clone(), fresh);
                fresh
            }
        };
        stats.evaluations += 1;
        if let Some(o) = objectives {
            stats.valid_evaluations += 1;
            archive.record(key, &allocation, o);
        }
        on_eval(&allocation, objectives.as_ref());
        Individual {
            allocation,
            objectives,
        }
    }

    /// Ranks a population: valid individuals by front and crowding, invalid
    /// ones all share the worst rank.
    fn rank_population(&self, population: &[Individual]) -> Vec<(usize, f64)> {
        let valid: Vec<usize> = (0..population.len())
            .filter(|&i| population[i].objectives.is_some())
            .collect();
        let objs: Vec<Vec<f64>> = valid
            .iter()
            .map(|&i| {
                population[i]
                    .objectives
                    .expect("filtered to valid")
                    .values(self.config.objectives)
            })
            .collect();
        let mut fitness = vec![(usize::MAX, 0.0f64); population.len()];
        if !valid.is_empty() {
            let fronts = fast_nondominated_sort(&objs);
            for (rank, front) in fronts.iter().enumerate() {
                let dists = crowding_distances(front, &objs);
                for (&local, dist) in front.iter().zip(dists) {
                    fitness[valid[local]] = (rank, dist);
                }
            }
        }
        fitness
    }

    /// NSGA-II environmental selection: keep the best `population_size` of
    /// the combined population (front by front, last front by crowding);
    /// invalid individuals fill leftover slots only when valids run out.
    fn select(&self, combined: Vec<Individual>) -> (Vec<Individual>, Vec<(usize, f64)>) {
        let n = self.config.population_size;
        let fitness = self.rank_population(&combined);
        let mut order: Vec<usize> = (0..combined.len()).collect();
        order.sort_by(|&a, &b| {
            fitness[a]
                .0
                .cmp(&fitness[b].0)
                .then_with(|| {
                    fitness[b]
                        .1
                        .partial_cmp(&fitness[a].1)
                        .expect("crowding distances are not NaN")
                })
                .then_with(|| a.cmp(&b)) // determinism
        });
        order.truncate(n);
        let keep: HashSet<usize> = order.iter().copied().collect();
        let mut survivors = Vec::with_capacity(n);
        let mut survivor_fitness = Vec::with_capacity(n);
        for (i, ind) in combined.into_iter().enumerate() {
            if keep.contains(&i) {
                survivor_fitness.push(fitness[i]);
                survivors.push(ind);
            }
        }
        (survivors, survivor_fitness)
    }

    fn population_front(&self, population: &[Individual]) -> ParetoFront {
        ParetoFront::from_points(
            population
                .iter()
                .filter_map(|ind| {
                    ind.objectives.map(|o| FrontPoint {
                        allocation: ind.allocation.clone(),
                        objectives: o,
                        values: o.values(self.config.objectives),
                    })
                })
                .collect(),
        )
    }
}

/// A chromosome packed 64 genes to a word. Up to 128 genes (the paper's
/// 6 × 12 = 72) stay inline; every chromosome of one run has the same
/// length, so the two forms never meet.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GeneKey {
    Short([u64; 2]),
    Long(Box<[u64]>),
}

impl GeneKey {
    fn new(allocation: &Allocation) -> Self {
        let mut words = allocation.genes().chunks(64).map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |word, (i, &gene)| word | (u64::from(gene) << i))
        });
        if allocation.genes().len() <= 128 {
            GeneKey::Short([words.next().unwrap_or(0), words.next().unwrap_or(0)])
        } else {
            GeneKey::Long(words.collect())
        }
    }
}

/// Running archive of valid solutions (distinct chromosomes) and their
/// non-dominated front.
#[derive(Debug)]
struct Archive {
    enabled: bool,
    set: ObjectiveSet,
    seen: HashSet<GeneKey>,
    front: ParetoFront,
}

impl Archive {
    fn new(enabled: bool, set: ObjectiveSet) -> Self {
        Self {
            enabled,
            set,
            seen: HashSet::new(),
            front: ParetoFront::default(),
        }
    }

    fn record(&mut self, key: GeneKey, allocation: &Allocation, objectives: Objectives) {
        if !self.enabled {
            return;
        }
        if !self.seen.insert(key) {
            return;
        }
        let _ = self.front.insert(FrontPoint {
            allocation: allocation.clone(),
            objectives,
            values: objectives.values(self.set),
        });
    }

    fn unique_valid(&self) -> usize {
        self.seen.len()
    }

    fn front(&self) -> &ParetoFront {
        &self.front
    }

    fn into_front(self) -> ParetoFront {
        self.front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProblemInstance;

    fn small_config(set: ObjectiveSet, seed: u64) -> Nsga2Config {
        Nsga2Config {
            population_size: 40,
            generations: 25,
            objectives: set,
            seed,
            ..Nsga2Config::default()
        }
    }

    #[test]
    fn run_is_deterministic_under_seed() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let run = |seed| {
            Nsga2::new(&ev, small_config(ObjectiveSet::TimeEnergy, seed))
                .run()
                .front
                .points()
                .iter()
                .map(|p| p.values.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        // And virtually always differs across seeds (not asserted strictly).
    }

    #[test]
    fn stats_account_for_every_evaluation() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let config = small_config(ObjectiveSet::TimeEnergy, 3);
        let outcome = Nsga2::new(&ev, config.clone()).run();
        assert_eq!(
            outcome.stats.evaluations,
            config.population_size * (config.generations + 1)
        );
        assert!(outcome.stats.valid_evaluations <= outcome.stats.evaluations);
        assert!(outcome.stats.unique_valid <= outcome.stats.valid_evaluations);
        assert_eq!(outcome.stats.generations, config.generations);
        assert_eq!(outcome.final_population.len(), config.population_size);
    }

    #[test]
    fn front_solutions_are_valid_allocations() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let outcome = Nsga2::new(&ev, small_config(ObjectiveSet::TimeEnergy, 5)).run();
        for p in outcome.front.points() {
            assert!(ev.checker().is_valid(&p.allocation));
        }
    }

    #[test]
    fn ga_finds_the_frugal_corner() {
        // The minimum-energy point [1,1,1,1,1,1] (38 kcc) must be on the
        // time-energy front, as in Fig. 6(a). A quick run needs a slightly
        // larger budget than the other tests to hit this exact corner of
        // the 2^24 gene space.
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let config = Nsga2Config {
            population_size: 80,
            generations: 80,
            objectives: ObjectiveSet::TimeEnergy,
            seed: 11,
            ..Nsga2Config::default()
        };
        let outcome = Nsga2::new(&ev, config).run();
        let has_frugal = outcome
            .front
            .points()
            .iter()
            .any(|p| p.allocation.counts() == vec![1; 6]);
        assert!(
            has_frugal,
            "front lacks [1,1,1,1,1,1]: {:?}",
            outcome
                .front
                .points()
                .iter()
                .map(|p| p.allocation.counts())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn observer_sees_every_generation() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let mut seen = Vec::new();
        let _ = Nsga2::new(&ev, small_config(ObjectiveSet::TimeEnergy, 2))
            .run_with_observer(|g, front| seen.push((g, front.len())));
        assert_eq!(seen.len(), 25);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen.last().unwrap().0, 24);
    }

    #[test]
    fn population_front_mode_works_without_archive() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let config = Nsga2Config {
            track_archive: false,
            ..small_config(ObjectiveSet::TimeEnergy, 13)
        };
        let outcome = Nsga2::new(&ev, config).run();
        assert!(!outcome.front.is_empty());
        assert_eq!(outcome.stats.unique_valid, 0); // not tracked
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_population_rejected() {
        let instance = ProblemInstance::paper_with_wavelengths(4);
        let ev = instance.evaluator();
        let _ = Nsga2::new(
            &ev,
            Nsga2Config {
                population_size: 2,
                ..Nsga2Config::default()
            },
        );
    }

    /// FNV-1a over 64-bit words: a compact fingerprint of a run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Fingerprint(u64);

    impl Fingerprint {
        fn new() -> Self {
            Self(0xCBF2_9CE4_8422_2325)
        }

        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }

        fn genes(&mut self, allocation: &Allocation) {
            self.word(allocation.genes().len() as u64);
            for chunk in allocation.genes().chunks(64) {
                self.word(
                    chunk
                        .iter()
                        .enumerate()
                        .fold(0, |w, (i, &g)| w | (u64::from(g) << i)),
                );
            }
        }

        fn objectives(&mut self, objectives: Option<&Objectives>) {
            match objectives {
                None => self.word(u64::MAX),
                Some(o) => {
                    self.word(o.exec_time.value().to_bits());
                    self.word(o.bit_energy.value().to_bits());
                    self.word(o.avg_log_ber.to_bits());
                }
            }
        }
    }

    /// Runs NSGA-II and fingerprints the front (values by `to_bits`), the
    /// final population and the `on_eval` sequence; also returns the
    /// stats and the number of `on_eval` calls.
    fn run_fingerprint(
        nw: usize,
        set: ObjectiveSet,
        track_archive: bool,
    ) -> (Nsga2Stats, usize, [u64; 3]) {
        let instance = ProblemInstance::paper_with_wavelengths(nw);
        let ev = instance.evaluator();
        let config = Nsga2Config {
            population_size: 40,
            generations: 25,
            objectives: set,
            seed: 2017,
            track_archive,
            ..Nsga2Config::default()
        };
        let mut evals = Fingerprint::new();
        let mut calls = 0usize;
        let outcome = Nsga2::new(&ev, config).run_with_observers(
            |_, _| {},
            |allocation, objectives| {
                calls += 1;
                evals.genes(allocation);
                evals.objectives(objectives);
            },
        );
        let mut front = Fingerprint::new();
        for p in outcome.front.points() {
            front.genes(&p.allocation);
            front.objectives(Some(&p.objectives));
            for v in &p.values {
                front.word(v.to_bits());
            }
        }
        let mut population = Fingerprint::new();
        for ind in &outcome.final_population {
            population.genes(&ind.allocation);
            population.objectives(ind.objectives.as_ref());
        }
        (outcome.stats, calls, [front.0, population.0, evals.0])
    }

    /// Captured before the generation memo, the packed archive keys and
    /// the grouped sort existed: (NW, objectives, archive, valid and
    /// unique-valid evaluations, [front, final population, `on_eval`
    /// sequence] fingerprints). 24λ gives 144 genes, past the inline key.
    const GOLDEN: [(usize, ObjectiveSet, bool, usize, usize, [u64; 3]); 7] = [
        (
            4,
            ObjectiveSet::TimeEnergy,
            true,
            477,
            277,
            [
                0x347f_074f_05e6_ecd4,
                0x36c4_2147_2f85_9952,
                0xda8a_d7e0_6995_b474,
            ],
        ),
        (
            4,
            ObjectiveSet::TimeEnergy,
            false,
            477,
            0,
            [
                0x347f_074f_05e6_ecd4,
                0x36c4_2147_2f85_9952,
                0xda8a_d7e0_6995_b474,
            ],
        ),
        (
            8,
            ObjectiveSet::TimeBer,
            true,
            667,
            547,
            [
                0x6986_1d29_3777_de1c,
                0xf007_5a22_3fae_1115,
                0x71d3_47b6_c89a_5a8e,
            ],
        ),
        (
            8,
            ObjectiveSet::TimeBer,
            false,
            667,
            0,
            [
                0x6986_1d29_3777_de1c,
                0xf007_5a22_3fae_1115,
                0x71d3_47b6_c89a_5a8e,
            ],
        ),
        (
            12,
            ObjectiveSet::TimeEnergyBer,
            true,
            748,
            663,
            [
                0x222f_0182_4f67_1c5d,
                0xcd75_bcc9_057a_e04b,
                0xd494_43d1_ef31_b8a5,
            ],
        ),
        (
            12,
            ObjectiveSet::TimeEnergyBer,
            false,
            748,
            0,
            [
                0x8705_c1c0_27ef_79b3,
                0xcd75_bcc9_057a_e04b,
                0xd494_43d1_ef31_b8a5,
            ],
        ),
        (
            24,
            ObjectiveSet::TimeEnergy,
            true,
            802,
            699,
            [
                0xd168_e876_2347_bc3f,
                0xd0e3_df27_8d8d_391a,
                0xc027_6047_6a49_3e73,
            ],
        ),
    ];

    #[test]
    fn memo_reproduces_pre_memo_runs() {
        for (nw, set, track, valid, unique, fingerprint) in GOLDEN {
            let stats = Nsga2Stats {
                evaluations: 40 * 26,
                valid_evaluations: valid,
                unique_valid: unique,
                generations: 25,
            };
            let got = run_fingerprint(nw, set, track);
            // `on_eval` fires once per counted evaluation.
            assert_eq!(
                got,
                (stats, stats.evaluations, fingerprint),
                "{nw}λ {set} archive={track}"
            );
        }
    }
}
