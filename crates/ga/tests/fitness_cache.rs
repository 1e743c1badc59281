//! Integration tests for the cross-generation fitness cache and the
//! spec-encoded-once guarantee:
//!
//! * a counting test double proves the engine drives one spec encoding per
//!   `synthesize` call through the `SpecEncodingCache` layer, and the real
//!   `LearnedFitness` confirms it end to end;
//! * a counting fitness proves a shared `FitnessCache` serves a repeated
//!   run of the same task entirely from cached scores (and that a warm
//!   cache leaves the search trajectory untouched);
//! * a pre-published target score proves the GA's memo of failed spec
//!   checks is built from the checks themselves, not from cache membership.

use netsyn_dsl::{Function, IntPredicate, IoSpec, MapOp, Program, Value};
use netsyn_fitness::dataset::{generate_dataset, BalanceMetric, DatasetConfig};
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_fitness::{
    ClosenessMetric, EncodingConfig, FitnessCache, FitnessFunction, FitnessNetConfig,
    LearnedFitness, OracleFitness, SpecEncodingCache,
};
use netsyn_ga::{GaConfig, GeneticEngine, NeighborhoodStrategy, SearchBudget};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn target() -> Program {
    Program::new(vec![
        Function::Filter(IntPredicate::Positive),
        Function::Map(MapOp::Mul2),
        Function::Sort,
    ])
}

fn spec() -> IoSpec {
    IoSpec::from_program(
        &target(),
        &[
            vec![Value::List(vec![-2, 10, 3, -4, 5, 2])],
            vec![Value::List(vec![1, -5, 7, 2])],
            vec![Value::List(vec![4, 4, -1, 0, 9])],
        ],
    )
}

/// A test double standing in for a learned fitness: it routes every call
/// through a [`SpecEncodingCache`] exactly like `LearnedFitness` does, and
/// counts how many candidates it was actually asked to score.
struct CountingFitness {
    encoding: EncodingConfig,
    spec_cache: SpecEncodingCache,
    scored: AtomicUsize,
}

impl CountingFitness {
    fn new() -> Self {
        CountingFitness {
            encoding: EncodingConfig::new(),
            spec_cache: SpecEncodingCache::new(),
            scored: AtomicUsize::new(0),
        }
    }

    fn scored(&self) -> usize {
        self.scored.load(Ordering::Relaxed)
    }
}

impl FitnessFunction for CountingFitness {
    fn name(&self) -> &str {
        "counting"
    }

    fn score(&self, candidate: &Program, spec: &IoSpec) -> f64 {
        let _shared = self.spec_cache.get_or_encode(&self.encoding, spec);
        self.scored.fetch_add(1, Ordering::Relaxed);
        // Deterministic, non-constant, program-only score.
        (candidate.len() % 4) as f64 + 0.5
    }

    fn score_batch(&self, candidates: &[Program], spec: &IoSpec) -> Vec<f64> {
        let _shared = self.spec_cache.get_or_encode(&self.encoding, spec);
        self.scored.fetch_add(candidates.len(), Ordering::Relaxed);
        candidates
            .iter()
            .map(|candidate| (candidate.len() % 4) as f64 + 0.5)
            .collect()
    }

    fn max_score(&self) -> f64 {
        4.5
    }
}

fn engine() -> GeneticEngine {
    let mut config = GaConfig::small(3);
    config.max_generations = 12;
    config.population_size = 24;
    config.neighborhood = NeighborhoodStrategy::Disabled;
    GeneticEngine::new(config)
}

#[test]
fn spec_is_encoded_exactly_once_per_synthesize() {
    let fitness = CountingFitness::new();
    let mut budget = SearchBudget::new(5_000);
    let _ = engine().synthesize(&spec(), &fitness, &mut budget, &mut rng(3));
    assert!(
        fitness.scored() > 0,
        "the engine must have scored something"
    );
    assert_eq!(
        fitness.spec_cache.encode_count(),
        1,
        "one synthesize call must encode its specification exactly once"
    );
}

#[test]
fn learned_fitness_encodes_the_spec_once_per_synthesize() {
    let mut r = rng(11);
    let mut dataset_config = DatasetConfig::for_length(3);
    dataset_config.num_target_programs = 6;
    dataset_config.examples_per_program = 2;
    let samples =
        generate_dataset(&dataset_config, BalanceMetric::CommonFunctions, &mut r).unwrap();
    let mut trainer_config = TrainerConfig::small();
    trainer_config.net = FitnessNetConfig {
        value_embed_dim: 4,
        encoder_hidden_dim: 6,
        function_embed_dim: 4,
        trace_hidden_dim: 6,
        example_hidden_dim: 8,
        head_hidden_dim: 8,
        output_dim: 1,
    };
    trainer_config.epochs = 1;
    let model = train_fitness_model(
        FitnessModelKind::CommonFunctions,
        &samples,
        3,
        &trainer_config,
        &mut r,
    );
    let fitness = LearnedFitness::new(model);
    assert_eq!(fitness.spec_encode_count(), 0);
    let mut budget = SearchBudget::new(2_000);
    let outcome = engine().synthesize(&spec(), &fitness, &mut budget, &mut r);
    assert!(outcome.generations > 1, "the GA must have iterated");
    assert_eq!(
        fitness.spec_encode_count(),
        1,
        "a multi-generation run must encode the spec exactly once"
    );
}

#[test]
fn shared_cache_serves_repeated_runs_without_rescoring() {
    let fitness = CountingFitness::new();
    let cache = FitnessCache::new();
    let engine = engine();

    let mut budget = SearchBudget::new(5_000);
    let cold = engine.synthesize_with_cache(&spec(), &fitness, &mut budget, &mut rng(7), &cache);
    let cold_scored = fitness.scored();
    assert!(cold_scored > 0);

    // Same seed, same spec, shared cache: the identical candidate stream is
    // served entirely from the cache and the trajectory is unchanged.
    let mut budget = SearchBudget::new(5_000);
    let warm = engine.synthesize_with_cache(&spec(), &fitness, &mut budget, &mut rng(7), &cache);
    assert_eq!(
        fitness.scored(),
        cold_scored,
        "a warm cache must not re-score any candidate of an identical run"
    );
    assert_eq!(warm, cold, "a warm cache must not change the trajectory");

    // A different seed rediscovers many programs: some cache hits, not all.
    let mut budget = SearchBudget::new(5_000);
    let _ = engine.synthesize_with_cache(&spec(), &fitness, &mut budget, &mut rng(8), &cache);
    let third_scored = fitness.scored() - cold_scored;
    assert!(
        third_scored < cold_scored,
        "a different run of the same task should still hit the cache: \
         {third_scored} newly scored vs {cold_scored} in the cold run"
    );
}

#[test]
fn private_caches_keep_synthesize_deterministic() {
    let fitness = CountingFitness::new();
    let engine = engine();
    let mut budget_a = SearchBudget::new(4_000);
    let mut budget_b = SearchBudget::new(4_000);
    let a = engine.synthesize(&spec(), &fitness, &mut budget_a, &mut rng(9));
    let scored_after_a = fitness.scored();
    let b = engine.synthesize(&spec(), &fitness, &mut budget_b, &mut rng(9));
    assert_eq!(a, b);
    // Plain synthesize uses a fresh private cache: the second run re-scores.
    assert_eq!(fitness.scored(), 2 * scored_after_a);
}

#[test]
fn a_cached_target_score_does_not_hide_the_solution() {
    // A seed whose cold run breeds exactly the target (not an equivalent
    // program, not a neighborhood find).
    let fitness = OracleFitness::new(target(), ClosenessMetric::CommonFunctions);
    let engine = engine();
    let (seed, cold) = (0..64)
        .find_map(|seed| {
            let mut budget = SearchBudget::new(5_000);
            let outcome = engine.synthesize(&spec(), &fitness, &mut budget, &mut rng(seed));
            (outcome.solution == Some(target()) && outcome.generations > 0)
                .then_some((seed, outcome))
        })
        .expect("some seed breeds the target");
    assert!(!cold.found_by_neighborhood);

    // The target's score is already cached before the run starts. A memo
    // that took "has a cached score" to mean "failed the spec" would skip
    // the target's check and never return it.
    let cache = FitnessCache::new();
    cache
        .shard(&fitness.cache_key(), &spec())
        .insert(target(), fitness.score(&target(), &spec()));
    let mut budget = SearchBudget::new(5_000);
    let warm = engine.synthesize_with_cache(&spec(), &fitness, &mut budget, &mut rng(seed), &cache);
    assert_eq!(warm.solution, Some(target()));
    assert_eq!(
        warm, cold,
        "a pre-cached score must not change the trajectory"
    );
}
