//! Demonstrates the restricted local neighborhood search (Algorithm 1): when
//! the genetic algorithm's fitness signal saturates, searching the
//! single-replacement neighborhood of the top genes recovers programs that
//! are "approximately correct" — the paper's convergence contribution.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example neighborhood_rescue
//! ```

use netsyn_dsl::{DomainId, IoSpec, Program, Value};
use netsyn_fitness::{ClosenessMetric, OracleFitness, SpecScores, TraceEncodingCache};
use netsyn_ga::{neighborhood, GaConfig, GeneticEngine, NeighborhoodStrategy, SearchBudget};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let target: Program = "FILTER(>0), MAP(*2), SORT, REVERSE".parse()?;
    let spec = IoSpec::from_program(
        &target,
        &[
            vec![Value::List(vec![-2, 10, 3, -4, 5, 2])],
            vec![Value::List(vec![1, -5, 7, 2])],
            vec![Value::List(vec![4, 4, -1, 0, 9])],
            vec![Value::List(vec![6, -6, 11, 3])],
        ],
    );

    // 1. A candidate that is one function away from the target: the
    //    neighborhood search finds the solution directly, in at most
    //    len(gene) * (|DSL| - 1) = 4 * 40 candidate evaluations.
    let approximately_correct: Program = "FILTER(>0), MAP(*2), SUM, REVERSE".parse()?;
    let oracle = OracleFitness::new(target.clone(), ClosenessMetric::CommonFunctions);
    let mut budget = SearchBudget::new(10_000);
    let outcome = neighborhood::search(
        std::slice::from_ref(&approximately_correct),
        &spec,
        NeighborhoodStrategy::Bfs,
        DomainId::List,
        &oracle,
        &mut budget,
        &SpecScores::default(),
        &TraceEncodingCache::new(),
        None,
    );
    println!("BFS neighborhood of `{approximately_correct}`:");
    match &outcome.solution {
        Some(found) => println!(
            "  found `{found}` after {} candidate evaluations",
            outcome.candidates_evaluated
        ),
        None => println!("  no solution in the neighborhood"),
    }

    // 2. The same mechanism inside the full engine: with neighborhood search
    //    enabled the GA needs fewer candidates than with it disabled.
    println!("\nFull GA with and without neighborhood search (oracle CF fitness):");
    for (label, strategy) in [
        ("NS disabled", NeighborhoodStrategy::Disabled),
        ("NS (BFS)", NeighborhoodStrategy::Bfs),
        ("NS (DFS)", NeighborhoodStrategy::Dfs),
    ] {
        let mut config = GaConfig::paper_defaults(target.len());
        config.max_generations = 400;
        config.neighborhood = strategy;
        let engine = GeneticEngine::new(config);
        let mut budget = SearchBudget::new(150_000);
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let outcome = engine.synthesize(&spec, &oracle, &mut budget, &mut rng);
        println!(
            "  {label:<12} success: {:<5} candidates: {:>7} generations: {:>4} found-by-NS: {}",
            outcome.is_success(),
            outcome.candidates_evaluated,
            outcome.generations,
            outcome.found_by_neighborhood
        );
    }
    Ok(())
}
