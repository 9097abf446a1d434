//! Reproduce a Fig. 6(a)-style Pareto front with NSGA-II.
//!
//! ```sh
//! cargo run --release --example paper_pareto
//! ```

use ring_wdm_onoc::prelude::*;

fn main() {
    let instance = ProblemInstance::paper_with_wavelengths(8);
    let evaluator = instance.evaluator();

    // A reduced configuration (the paper uses 400 × 300; `onoc run
    // fig6a` is the full-scale run).
    let config = Nsga2Config {
        population_size: 150,
        generations: 80,
        objectives: ObjectiveSet::TimeEnergy,
        seed: 2017,
        ..Nsga2Config::default()
    };
    println!(
        "Running NSGA-II: population {}, {} generations…",
        config.population_size, config.generations
    );
    let nsga2 = Nsga2::new(&evaluator, config);
    let outcome = nsga2.run_with_observer(|generation, front| {
        if generation % 20 == 0 {
            println!(
                "  generation {generation:>3}: {} points on the front",
                front.len()
            );
        }
    });

    println!(
        "\n{} evaluations, {} valid ({} distinct)",
        outcome.stats.evaluations, outcome.stats.valid_evaluations, outcome.stats.unique_valid
    );
    println!("\nPareto front (execution time vs bit energy):");
    println!("{:>12}{:>16}   counts", "exec (kcc)", "energy (fJ/bit)");
    for point in outcome.front.points() {
        println!(
            "{:>12.2}{:>16.2}   {:?}",
            point.objectives.exec_time.to_kilocycles(),
            point.objectives.bit_energy.value(),
            point.allocation.counts()
        );
    }

    let best_time = outcome
        .front
        .points()
        .iter()
        .map(|p| p.objectives.exec_time.to_kilocycles())
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nBest execution time: {best_time:.2} kcc (paper's 8λ annotation: 23.8 kcc;\n\
         exhaustive optimum of the reconstructed instance: 23.7 kcc)"
    );
}
