//! The genetic-algorithm engine: the public synthesis entry point over the
//! island layer.
//!
//! The evolution itself — population initialization, fitness-ranked breeding
//! with elitism, crossover and (optionally FP-guided) mutation, dead-code-
//! aware offspring generation and the saturation-triggered neighborhood
//! search — lives in [`crate::island`]. The engine decides how a synthesis
//! call maps onto islands:
//!
//! * `islands == 1` (the default): one island driven directly by the
//!   caller's RNG and budget. This is draw-for-draw identical to the
//!   historical panmictic engine; the serialized [`GaOutcome`] is pinned
//!   byte-for-byte by golden-bytes tests.
//! * `islands > 1`: the budget is partitioned into fixed per-island slices,
//!   each island evolves on its own RNG stream seeded from the caller's RNG
//!   in index order, and elites migrate around a ring on a fixed generation
//!   schedule. Islands run on separate pool workers between migration
//!   points; all merges are index-ordered, so the outcome is a pure
//!   function of `(config, spec, fitness, seed)` — independent of
//!   `NETSYN_POOL_THREADS` and `NETSYN_SIMD`.
//!
//! The `NETSYN_ISLANDS` environment variable overrides the configured
//! island count at engine construction (strictly parsed; an invalid value
//! warns once on stderr and is ignored).

use crate::budget::SearchBudget;
use crate::config::GaConfig;
use crate::island::{self, SynthesisContext};
use netsyn_dsl::{IoSpec, Program};
use netsyn_fitness::{FitnessCache, FitnessFunction};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Result of one synthesis attempt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaOutcome {
    /// The program satisfying the specification, if one was found.
    pub solution: Option<Program>,
    /// Number of completed generations. For a multi-island run this is the
    /// maximum over islands (generations advance in lockstep between
    /// migration points, so it is also the global generation count).
    pub generations: usize,
    /// Number of candidate programs evaluated (the paper's search-space
    /// metric), including initial population, offspring and neighborhood
    /// candidates, summed over all islands.
    pub candidates_evaluated: usize,
    /// Whether the solution was discovered by the neighborhood search rather
    /// than the evolutionary loop.
    pub found_by_neighborhood: bool,
    /// Average population fitness per generation. For a multi-island run,
    /// the mean over the islands still evolving at that generation.
    pub average_fitness_history: Vec<f64>,
    /// Best population fitness per generation (maximum over islands).
    pub best_fitness_history: Vec<f64>,
}

impl GaOutcome {
    /// Whether a solution was found.
    #[must_use]
    pub fn is_success(&self) -> bool {
        self.solution.is_some()
    }
}

/// The genetic-algorithm engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneticEngine {
    config: GaConfig,
}

impl GeneticEngine {
    /// Creates an engine from a validated configuration.
    ///
    /// The `NETSYN_ISLANDS` environment variable, when set to a valid
    /// integer `>= 1`, overrides `config.islands`; an invalid value emits
    /// one warning naming the rejected value and the configured fallback.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see [`GaConfig::validate`]).
    #[must_use]
    pub fn new(mut config: GaConfig) -> Self {
        if let Some(islands) = island::islands_from_env() {
            config.islands = islands;
        }
        config.validate();
        GeneticEngine { config }
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Runs the evolutionary search for a program equivalent to the target
    /// described by `spec`, using `fitness` to rank candidates and drawing
    /// every candidate evaluation from `budget`.
    ///
    /// Scores are memoized for the duration of the call (duplicate offspring
    /// are never re-scored); use [`GeneticEngine::synthesize_with_cache`] to
    /// share that memo across repeated runs of the same specification.
    pub fn synthesize<F, R>(
        &self,
        spec: &IoSpec,
        fitness: &F,
        budget: &mut SearchBudget,
        rng: &mut R,
    ) -> GaOutcome
    where
        F: FitnessFunction + ?Sized,
        R: Rng + ?Sized,
    {
        self.synthesize_with_cache(spec, fitness, budget, rng, &FitnessCache::new())
    }

    /// [`GeneticEngine::synthesize`] with an externally owned
    /// [`FitnessCache`].
    ///
    /// The engine reads and fills the cache's `(fitness cache key, spec)`
    /// shard:
    /// any candidate scored by a previous run of the same task is served
    /// from the cache instead of re-scored. Because every
    /// [`FitnessFunction::score_batch`] implementation is bit-identical to
    /// the per-candidate path, cached scores equal recomputed scores
    /// exactly, so a warm cache never changes the search trajectory — it
    /// only skips fitness evaluations. The evaluation harness threads one
    /// cache per task through its `K` repetitions; iterative synthesis
    /// loops that re-attempt a fixed specification benefit the same way.
    /// All islands of one call share the same shard, so a program scored on
    /// one island is never re-scored on another.
    pub fn synthesize_with_cache<F, R>(
        &self,
        spec: &IoSpec,
        fitness: &F,
        budget: &mut SearchBudget,
        rng: &mut R,
        cache: &FitnessCache,
    ) -> GaOutcome
    where
        F: FitnessFunction + ?Sized,
        R: Rng + ?Sized,
    {
        let ctx = SynthesisContext::new(&self.config, spec, fitness, cache);
        if self.config.islands == 1 {
            island::synthesize_single(&ctx, budget, rng)
        } else {
            island::synthesize_islands(&ctx, self.config.islands, budget, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MutationMode, NeighborhoodStrategy};
    use netsyn_dsl::{Function, IntPredicate, MapOp, Value};
    use netsyn_fitness::{ClosenessMetric, EditDistanceFitness, OracleFitness};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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
                vec![Value::List(vec![-3, -6, 12])],
                vec![Value::List(vec![8, 1, -2, 6, 3])],
            ],
        )
    }

    #[test]
    fn oracle_guided_search_finds_a_length_three_target() {
        let engine = GeneticEngine::new(GaConfig::small(3));
        let oracle = OracleFitness::new(target(), ClosenessMetric::CommonFunctions);
        let mut budget = SearchBudget::new(200_000);
        let outcome = engine.synthesize(&spec(), &oracle, &mut budget, &mut rng(1));
        assert!(outcome.is_success(), "outcome: {outcome:?}");
        let solution = outcome.solution.unwrap();
        assert!(spec().is_satisfied_by(&solution));
        assert_eq!(outcome.candidates_evaluated, budget.evaluated());
        assert!(outcome.candidates_evaluated <= 200_000);
    }

    #[test]
    fn search_is_deterministic_for_a_fixed_seed() {
        let engine = GeneticEngine::new(GaConfig::small(3));
        let oracle = OracleFitness::new(target(), ClosenessMetric::LongestCommonSubsequence);
        let mut budget_a = SearchBudget::new(100_000);
        let mut budget_b = SearchBudget::new(100_000);
        let a = engine.synthesize(&spec(), &oracle, &mut budget_a, &mut rng(7));
        let b = engine.synthesize(&spec(), &oracle, &mut budget_b, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn budget_exhaustion_terminates_the_search() {
        let engine = GeneticEngine::new(GaConfig::small(5));
        let fitness = EditDistanceFitness::new();
        let mut budget = SearchBudget::new(150);
        let outcome = engine.synthesize(&spec(), &fitness, &mut budget, &mut rng(2));
        assert!(budget.is_exhausted() || outcome.is_success());
        assert!(outcome.candidates_evaluated <= 150);
    }

    #[test]
    fn zero_budget_returns_immediately() {
        let engine = GeneticEngine::new(GaConfig::small(3));
        let fitness = EditDistanceFitness::new();
        let mut budget = SearchBudget::new(0);
        let outcome = engine.synthesize(&spec(), &fitness, &mut budget, &mut rng(3));
        assert!(!outcome.is_success());
        assert_eq!(outcome.candidates_evaluated, 0);
        assert_eq!(outcome.generations, 0);
    }

    /// Scores every candidate NaN, which the roulette wheel rejects.
    struct NanFitness;

    impl FitnessFunction for NanFitness {
        fn name(&self) -> &str {
            "nan"
        }

        fn score(&self, _candidate: &Program, _spec: &IoSpec) -> f64 {
            f64::NAN
        }

        fn max_score(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn elites_filling_the_population_never_spin_the_wheel() {
        // No offspring is drawn, so the invalid weights are never spun.
        let mut config = GaConfig::small(3);
        config.elite_count = config.population_size;
        config.max_generations = 4;
        config.neighborhood = NeighborhoodStrategy::Disabled;
        let engine = GeneticEngine::new(config);
        let mut budget = SearchBudget::new(1_000_000);
        let outcome = engine.synthesize(&spec(), &NanFitness, &mut budget, &mut rng(5));
        assert_eq!(outcome.generations, 4);
        assert_eq!(outcome.candidates_evaluated, 30);
    }

    #[test]
    #[should_panic(expected = "weights must be non-negative and finite")]
    fn breeding_from_nan_weights_panics() {
        let mut config = GaConfig::small(3);
        config.neighborhood = NeighborhoodStrategy::Disabled;
        let engine = GeneticEngine::new(config);
        let mut budget = SearchBudget::new(1_000_000);
        let _ = engine.synthesize(&spec(), &NanFitness, &mut budget, &mut rng(5));
    }

    #[test]
    fn max_generations_bounds_the_search() {
        let mut config = GaConfig::small(5);
        config.max_generations = 3;
        config.neighborhood = NeighborhoodStrategy::Disabled;
        let engine = GeneticEngine::new(config);
        let fitness = EditDistanceFitness::new();
        let mut budget = SearchBudget::new(1_000_000);
        let outcome = engine.synthesize(&spec(), &fitness, &mut budget, &mut rng(4));
        assert!(outcome.generations <= 3);
        assert_eq!(outcome.average_fitness_history.len(), outcome.generations);
        assert_eq!(outcome.best_fitness_history.len(), outcome.generations);
    }

    #[test]
    fn fitness_histories_are_recorded_and_bounded() {
        let mut config = GaConfig::small(3);
        config.max_generations = 10;
        config.neighborhood = NeighborhoodStrategy::Disabled;
        let engine = GeneticEngine::new(config);
        let oracle = OracleFitness::new(target(), ClosenessMetric::CommonFunctions);
        let mut budget = SearchBudget::new(100_000);
        let outcome = engine.synthesize(&spec(), &oracle, &mut budget, &mut rng(5));
        for (&avg, &best) in outcome
            .average_fitness_history
            .iter()
            .zip(outcome.best_fitness_history.iter())
        {
            assert!(avg <= best + 1e-9);
            assert!(best <= oracle.max_score() + 1e-9);
            assert!(avg >= 0.0);
        }
    }

    #[test]
    fn probability_guided_mutation_uses_the_fitness_map() {
        let mut config = GaConfig::small(3);
        config.mutation_mode = MutationMode::ProbabilityGuided;
        let engine = GeneticEngine::new(config);
        let oracle = OracleFitness::new(target(), ClosenessMetric::CommonFunctions);
        let mut budget = SearchBudget::new(200_000);
        let outcome = engine.synthesize(&spec(), &oracle, &mut budget, &mut rng(6));
        assert!(outcome.is_success());
    }

    #[test]
    fn neighborhood_search_rescues_a_stagnant_population() {
        // With an uninformative fitness (constant), the GA cannot make
        // progress; the saturation detector fires and the BFS neighborhood
        // of the top genes is searched. Use a length-1 target so that the
        // neighborhood of *any* gene contains the solution.
        struct Constant;
        impl FitnessFunction for Constant {
            fn name(&self) -> &str {
                "constant"
            }
            fn score(&self, _candidate: &Program, _spec: &IoSpec) -> f64 {
                1.0
            }
            fn max_score(&self) -> f64 {
                1.0
            }
        }
        let tiny_target = Program::new(vec![Function::Sort]);
        let tiny_spec = IoSpec::from_program(
            &tiny_target,
            &[
                vec![Value::List(vec![3, 1, 2])],
                vec![Value::List(vec![9, -4, 0, 2])],
                vec![Value::List(vec![5, 5, 1])],
            ],
        );
        let mut config = GaConfig::small(1);
        config.population_size = 5;
        config.elite_count = 1;
        config.saturation_window = 2;
        config.max_generations = 50;
        let engine = GeneticEngine::new(config);
        let mut budget = SearchBudget::new(100_000);
        let outcome = engine.synthesize(&tiny_spec, &Constant, &mut budget, &mut rng(8));
        assert!(outcome.is_success());
    }

    #[test]
    fn island_sharded_search_is_deterministic_and_charges_the_master_budget() {
        let mut config = GaConfig::small(3);
        config.islands = 3;
        let engine = GeneticEngine::new(config);
        let oracle = OracleFitness::new(target(), ClosenessMetric::LongestCommonSubsequence);
        let mut budget_a = SearchBudget::new(60_000);
        let mut budget_b = SearchBudget::new(60_000);
        let a = engine.synthesize(&spec(), &oracle, &mut budget_a, &mut rng(7));
        let b = engine.synthesize(&spec(), &oracle, &mut budget_b, &mut rng(7));
        assert_eq!(a, b);
        assert_eq!(a.candidates_evaluated, budget_a.evaluated());
        assert!(budget_a.evaluated() <= 60_000);
    }

    #[test]
    fn island_sharded_search_finds_the_target() {
        let mut config = GaConfig::small(3);
        config.islands = 2;
        let engine = GeneticEngine::new(config);
        let oracle = OracleFitness::new(target(), ClosenessMetric::CommonFunctions);
        let mut budget = SearchBudget::new(200_000);
        let outcome = engine.synthesize(&spec(), &oracle, &mut budget, &mut rng(1));
        assert!(outcome.is_success(), "outcome: {outcome:?}");
        assert!(spec().is_satisfied_by(&outcome.solution.unwrap()));
        assert_eq!(outcome.candidates_evaluated, budget.evaluated());
    }

    #[test]
    fn island_sharded_zero_budget_returns_immediately() {
        let mut config = GaConfig::small(3);
        config.islands = 4;
        let engine = GeneticEngine::new(config);
        let fitness = EditDistanceFitness::new();
        let mut budget = SearchBudget::new(0);
        let outcome = engine.synthesize(&spec(), &fitness, &mut budget, &mut rng(3));
        assert!(!outcome.is_success());
        assert_eq!(outcome.candidates_evaluated, 0);
        assert_eq!(outcome.generations, 0);
    }
}
