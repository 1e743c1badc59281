//! # netsyn-ga
//!
//! The search core of the NetSyn reproduction ("Learning Fitness Functions
//! for Machine Programming", MLSys 2021): an island-model genetic algorithm
//! plus the steppable search strategies a portfolio orchestrator can race
//! against it.
//!
//! ## Three layers
//!
//! **Island layer** ([`GeneticEngine`] over `island`). Candidate programs
//! are value-encoded genes (one DSL function per position). Each synthesis
//! shards into `K = GaConfig::islands` island populations (overridable via
//! the `NETSYN_ISLANDS` environment variable). Within an island, each
//! generation ranks genes by a pluggable
//! [`FitnessFunction`](netsyn_fitness::FitnessFunction), carries the top
//! genes over unchanged, and refills the pool by Roulette-Wheel-selected
//! crossover, (optionally FP-guided) point mutation and reproduction;
//! offspring containing dead code are regenerated. When an island's average
//! fitness saturates, the restricted local neighborhood of its top genes is
//! searched (BFS or DFS flavored, Algorithm 1 of the paper). Every candidate
//! evaluation is drawn from a [`SearchBudget`] so the paper's "search space
//! used" metric is directly measurable.
//!
//! **Strategy layer** ([`SearchStrategy`]). A uniform step interface over
//! heterogeneous searches: [`GaSearchStrategy`] (one generation across all
//! islands per step), [`DfsSearchStrategy`] (one DFS `(gene, position)`
//! neighborhood per step) and [`BeamSearch`] (one guided beam depth level
//! per step, lifted out of the PCCoder baseline). A step draws every
//! candidate from the `&mut SearchBudget` it is handed and touches no other
//! strategy's state.
//!
//! **Portfolio orchestration** lives above this crate (in `netsyn-core`):
//! strategies race in lockstep rounds. Each round splits the remaining
//! budget among the live strategies with [`SearchBudget::split_remaining`],
//! steps each once on its own slice, and merges the results in index order.
//!
//! ## Determinism contract
//!
//! Serialized [`GaOutcome`]s are byte-identical for a fixed
//! `(config, spec, fitness, seed)` at **any** `K` × `NETSYN_POOL_THREADS` ×
//! `NETSYN_SIMD` combination, because nothing an island computes ever
//! depends on scheduling:
//!
//! * `K = 1` drives a single island with the caller's RNG and budget —
//!   draw-for-draw identical to the historical panmictic engine (pinned by
//!   golden bytes in `tests/warm_cache_determinism.rs`).
//! * `K > 1` seeds one RNG stream per island from the caller's RNG in index
//!   order and partitions the budget into fixed per-island slices up front
//!   with [`SearchBudget::split_remaining`] (`total/K` each, the first
//!   `total%K` getting one extra; never rebalanced).
//! * Islands evolve epochs of `migration_interval` generations on separate
//!   pool workers, then synchronize: island `i` sends clones of its
//!   `migration_size` fittest genes to `(i+1) % K`, replacing the
//!   receiver's worst-ranked genes. Emigrants are snapshotted from every
//!   island before any island is mutated and merges apply in island-index
//!   order.
//! * The solved island with the lowest index wins; merged histories are
//!   index-ordered folds (mean/max per generation).
//! * Islands share the striped `SpecScores`/`TraceEncodingCache` shards, so
//!   a program scored on one island is never re-scored on another — safe
//!   because batched scores are bit-identical to per-candidate scores
//!   whichever worker computes them first.
//!
//! Portfolio races follow the same contract. Every round's slices are a
//! function of the budget left after the previous round, each strategy's
//! step depends only on its own state and slice, and the merge is
//! index-ordered: the lowest-index strategy to solve in the earliest round
//! wins. The winner, the solution and every strategy's candidate count are
//! therefore the same at every pool size.
//!
//! ## Cancellation semantics
//!
//! Nothing below the portfolio race is cancellable: a step always runs to
//! its end, so no cache shard is ever left half-updated. A
//! [`CancelToken`] is the race caller's stop switch. The race checks it
//! between rounds, so a token fired before the race means zero draws, and
//! a token fired during round `k` stops the race after round `k` is merged
//! and charged. The race fires the token itself when a strategy solves or
//! panics.
//!
//! ## Example
//!
//! ```
//! use netsyn_dsl::{IoSpec, Program, Value};
//! use netsyn_fitness::{ClosenessMetric, OracleFitness};
//! use netsyn_ga::{GaConfig, GeneticEngine, SearchBudget};
//! use rand::SeedableRng;
//!
//! let target: Program = "FILTER(>0), MAP(*2), SORT".parse()?;
//! let spec = IoSpec::from_program(&target, &[
//!     vec![Value::List(vec![-2, 10, 3, -4, 5, 2])],
//!     vec![Value::List(vec![1, -5, 7, 2])],
//! ]);
//! let engine = GeneticEngine::new(GaConfig::small(3));
//! let oracle = OracleFitness::new(target, ClosenessMetric::CommonFunctions);
//! let mut budget = SearchBudget::new(100_000);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let outcome = engine.synthesize(&spec, &oracle, &mut budget, &mut rng);
//! assert!(outcome.is_success());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod beam;
mod budget;
mod cancel;
mod config;
pub mod crossover;
mod engine;
mod gene;
mod island;
pub mod mutation;
pub mod neighborhood;
mod saturation;
pub mod selection;
mod strategy;

pub use beam::{guided_partial_score, BeamConfig, BeamSearch, BeamStep};
pub use budget::SearchBudget;
pub use cancel::CancelToken;
pub use config::{GaConfig, MutationMode, NeighborhoodStrategy};
pub use engine::{GaOutcome, GeneticEngine};
pub use gene::{Gene, Population};
pub use neighborhood::NeighborhoodOutcome;
pub use saturation::SaturationDetector;
pub use strategy::{
    random_seed_programs, DfsSearchStrategy, GaSearchStrategy, SearchStrategy, StepStatus,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GaConfig>();
        assert_send_sync::<GeneticEngine>();
        assert_send_sync::<GaOutcome>();
        assert_send_sync::<SearchBudget>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<Population>();
    }
}
