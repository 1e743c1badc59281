//! Quickstart: synthesize a small list-manipulation program from input-output
//! examples with NetSyn's genetic algorithm.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Set `NETSYN_CACHE_DIR=/some/dir` to make the fitness cache durable: a
//! second run warm-starts from the scores the first run persisted, and
//! reproduces the same search from disk.

use netsyn_core::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The hidden target program: keep the positive numbers, double them, and
    // sort the result (the user of a synthesizer only has the examples).
    let target: Program = "FILTER(>0), MAP(*2), SORT".parse()?;
    let spec = IoSpec::from_program(
        &target,
        &[
            vec![Value::List(vec![-2, 10, 3, -4, 5, 2])],
            vec![Value::List(vec![1, -5, 7, 2])],
            vec![Value::List(vec![4, 4, -1, 0, 9])],
            vec![Value::List(vec![8, -8, 6, -6, 2])],
            vec![Value::List(vec![-3, -1, 12, 5])],
        ],
    );
    println!("Specification (5 input-output examples):\n{spec}\n");

    // The quickest way to see the GA at work is the output edit-distance
    // fitness, which needs no trained model. NetSyn's learned fitness
    // functions plug into exactly the same interface (see the
    // `train_fitness_nn` and `compare_baselines` examples).
    let mut config = NetSynConfig::paper_defaults(FitnessChoice::EditDistance, target.len());
    config.ga.mutation_mode = MutationMode::UniformRandom;
    config.ga.max_generations = 2_000;
    let synthesizer = NetSyn::new(config, None);

    // Opt-in durable cache: with NETSYN_CACHE_DIR set, scores survive the
    // process — a rerun warm-starts from disk (and a damaged or foreign
    // cache directory degrades to a cold cache, never to wrong scores).
    let cache = match std::env::var_os("NETSYN_CACHE_DIR") {
        Some(dir) => {
            let cache = FitnessCache::durable(&dir)?;
            if let Some(report) = cache.load_report() {
                println!(
                    "Durable cache: {} score entries loaded from {}\n",
                    report.score_entries,
                    std::path::Path::new(&dir).display()
                );
            }
            cache
        }
        None => FitnessCache::new(),
    };

    let problem = SynthesisProblem::new(spec.clone(), target.len());
    let mut budget = SearchBudget::new(200_000);
    let mut rng = ChaCha8Rng::seed_from_u64(2021);
    let result = synthesizer.synthesize_cached(&problem, &mut budget, &mut rng, &cache);

    match &result.solution {
        Some(program) => {
            println!("Synthesized program : {program}");
            println!("Candidates evaluated: {}", result.candidates_evaluated);
            println!(
                "Search space used   : {:.2}% of the {}-candidate cap",
                100.0 * result.candidates_evaluated as f64 / budget.max_candidates() as f64,
                budget.max_candidates()
            );
            if let Some(generations) = result.generations {
                println!("GA generations      : {generations}");
            }
            assert!(spec.is_satisfied_by(program));
            // The synthesized program may differ syntactically from the
            // hidden target while being equivalent on the specification.
            println!("Hidden target was   : {target}");
        }
        None => {
            println!(
                "No program found within {} candidates — try a larger budget.",
                result.candidates_evaluated
            );
        }
    }
    Ok(())
}
