//! # netsyn-fitness
//!
//! Fitness functions for genetic-algorithm program synthesis, reproducing the
//! central contribution of "Learning Fitness Functions for Machine
//! Programming" (MLSys 2021):
//!
//! * **Ideal / oracle fitness** ([`OracleFitness`]) — grades candidates with
//!   the exact number of common functions (CF) or the longest common
//!   subsequence (LCS) against the hidden target program;
//! * **Hand-crafted fitness** ([`EditDistanceFitness`]) — the output
//!   edit-distance heuristic the paper argues is brittle;
//! * **Learned fitness (NN-FF)** — an LSTM-based model ([`FitnessNet`]) that
//!   predicts CF / LCS values from the specification and the candidate's
//!   execution trace ([`LearnedFitness`]), or a per-function probability map
//!   from the specification alone ([`LearnedProbabilityModel`],
//!   [`ProbabilityFitness`]);
//! * **Corpus generation and training** ([`dataset`], [`trainer`]) — balanced
//!   training-data generation and training loops producing the confusion
//!   matrices and accuracy curves of Figure 7.
//!
//! All fitness functions implement the common [`FitnessFunction`] trait used
//! by the GA engine and the baselines.
//!
//! ## The zero-copy encoding split
//!
//! A model input has two halves with very different lifetimes inside the GA
//! loop: the *specification* is fixed for a whole synthesis run, while the
//! *candidate traces* change with every scored program. The encoding layer
//! mirrors that split:
//!
//! * [`SpecEncoding`] ([`encoding::encode_spec`]) — the spec's IO-example
//!   token sequences, built **once per synthesis** and shared zero-copy
//!   (`Arc`-backed) by every candidate scored against it. Learned fitness
//!   functions memoize it in a one-slot [`encoding::SpecEncodingCache`], so
//!   repeated `score_batch` calls across generations never re-encode the
//!   spec (`LearnedFitness::spec_encode_count` makes this observable).
//! * [`CandidateEncoding`] ([`encoding::encode_candidate`] /
//!   [`encoding::encode_candidates`]) — the per-candidate execution traces
//!   only. The batch encoder reuses one interpreter `TraceArena` across all
//!   trace runs, so per-statement bookkeeping costs no allocation.
//!
//! ## Batched scoring
//!
//! Ranking thousands of GA candidates per generation is the system's hot
//! path, so the trait also exposes
//! [`FitnessFunction::score_batch`]: score many candidates against one
//! specification in a single call. The default implementation loops over
//! `score`; the neural implementations override it —
//! [`LearnedFitness::score_batch`](FitnessFunction::score_batch) passes the
//! shared [`SpecEncoding`] and the batch of [`CandidateEncoding`]s to
//! [`FitnessNet::predict_batch_with`], which encodes the spec's sequences
//! once, dedups repeated trace-value token sequences across the batch, and
//! steps every LSTM stage over all sequences together in flat row-major
//! buffers before the head classifies the batch with one GEMM.
//!
//! That batched pass is the network's one shipped inference path:
//! `LearnedFitness::score` is a batch of one, and
//! [`LearnedProbabilityModel::probability_map`] a batch of one spec-only
//! candidate; training runs the batched `forward_batch_train` /
//! `backward_batch` pair. The per-sample reference passes they are certified
//! against — and the per-sample reference trainer — live in the dev-only
//! `netsyn-oracle` crate, which reads the network through its read-only
//! layer accessors and [`netsyn_nn::Parameterized::params_mut`]. Every token a model's own [`EncodingConfig`] produces is in range once
//! [`FitnessNet::check_vocab`] passes, which the model loaders and the
//! learned-fitness constructors check.
//!
//! Batching is a pure performance optimization: every override returns
//! scores **bit-identical** to the per-candidate path (asserted by
//! `netsyn-oracle`'s `score_batch_equivalence` tests for the CF, LCS and FP
//! models, against the per-sample oracle too), so GA search trajectories
//! are unchanged.
//!
//! ## Score caching
//!
//! A candidate's score is a pure function of `(fitness, program, spec)` —
//! and bit-identical however computed — so scores are cached at two levels:
//! within one `synthesize` call, the GA engine never re-scores a duplicate
//! offspring; across calls, a shared [`FitnessCache`] (spec-keyed, see
//! [`cache`]) lets repeated runs of the same task — the evaluation
//! harness's `K` repetitions, GA restarts, iterative refinement loops —
//! reuse every score computed for that specification. A warm cache never
//! changes a search trajectory; it only skips network passes.
//!
//! ## Trace-value encoding reuse
//!
//! Beneath the score cache sits a second, finer-grained reuse layer: the
//! step encoder's hidden state for each distinct trace-value token sequence
//! is memoized in a [`TraceEncodingCache`]. The encoder is a deterministic,
//! batch-independent function of the tokens, so values already seen in
//! earlier generations — or earlier runs of the same task, when the engine
//! threads a [`FitnessCache::trace_shard`] through
//! [`FitnessFunction::score_batch_cached`] — skip their LSTM sweep outright,
//! bit-identically. [`LearnedFitness`] also owns a private instance memo, so
//! plain `score_batch` callers get the cross-generation reuse for free;
//! shards are keyed by [`FitnessFunction::cache_key`] because the cached
//! states depend on the model's weights (a trainer updating weights must
//! use a fresh cache).
//!
//! ## The durable cache tier
//!
//! Scores can outlive the process: a cache opened with
//! [`FitnessCache::durable`] loads previously persisted scores at startup
//! (merged first write wins, exactly like concurrent publications) and
//! appends new ones back to a checksummed record log, `scores.nsl` under
//! the chosen directory (`NETSYN_CACHE_DIR` in the evaluation harness and
//! examples). Scores round-trip as raw bit patterns, and shard keys embed
//! the model's weight fingerprint on disk exactly as in memory, so a
//! warm-from-disk restart reproduces byte-identical search trajectories
//! and cross-checkpoint aliasing stays impossible. A restarted identical
//! search hits the score cache on every candidate, so the network never
//! runs; trace-value encodings therefore stay in memory, and a
//! `traces.nsl` left by an earlier build is ignored (safe to delete).
//!
//! The tier is built to *fail toward cold, never toward wrong*: torn or
//! bit-flipped record suffixes are dropped at the first CRC failure,
//! unreadable or wrong-version/wrong-vocabulary files are quarantined
//! (renamed, never deleted), flush I/O errors degrade the store to
//! memory-only with a warning, and a worker panic no longer poisons the
//! cache locks for later users (scores are first-write-wins idempotent,
//! so recovering the guard is safe). See [`persist`] for the on-disk
//! format specification and the full crash-consistency contract.
//!
//! ## Concurrency invariants (model-checked)
//!
//! The cache tier's cross-thread publishes are exercised under a loom-style
//! schedule-exploring model checker (the workspace `loom` shim; CI job
//! `model-check`, suite `tests/cache_model.rs`). The invariants the suite
//! proves over every bounded interleaving:
//!
//! * **First write wins on scores** — when two threads
//!   [`resolve_batch`](cache::resolve_batch) the same program at once, both
//!   may score it (nothing is reserved before scoring), but the shard ends
//!   with one entry, equal to the first publisher's value, and a published
//!   score is never overwritten. The scores are bit-identical by the
//!   batched-scoring contract, so a duplicate costs one scoring and changes
//!   nothing; it is rare (at most 0.08% of the programs looked up on the
//!   `edit_islands` e2ebench workload, none on the learned-fitness ones at
//!   K = 2; see [`mod@cache`]).
//! * **First-write-wins convergence on encodings** — racing
//!   [`TraceEncodingCache::publish_many`] calls on one key converge on a
//!   single canonical `Arc` (both publishers are handed the stored buffer),
//!   so downstream batches share memory and bytes are identical whichever
//!   thread won.
//!
//! Under `--cfg loom` the `Mutex` behind the striped caches comes from the
//! model-checker shim (see [`mod@cache`] and the crate-private `sync`
//! module); normal builds use the `std::sync` type with identical behavior,
//! so the production binary is unchanged.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod dataset;
mod edit;
pub mod encoding;
mod learned;
pub mod metrics;
mod model;
mod oracle;
pub mod persist;
mod probability;
mod sync;
pub mod trainer;
mod traits;

pub use cache::{FitnessCache, SpecScores};
pub use edit::EditDistanceFitness;
pub use encoding::{
    CandidateEncoding, EncodedStep, EncodingConfig, SpecEncoding, SpecEncodingCache,
    SpecEncodingMap, TraceEncodingCache,
};
pub use learned::{LearnedFitness, LearnedProbabilityModel, ProbabilityFitness};
pub use model::{FitnessNet, FitnessNetBatchCache, FitnessNetConfig};
pub use oracle::OracleFitness;
pub use persist::{DurableOptions, FlushStats, LoadReport};
pub use probability::ProbabilityMap;
pub use trainer::{
    EpochStats, FitnessModelKind, TrainedFitnessModel, TrainerConfig, TrainingReport,
};
pub use traits::{ClosenessMetric, FitnessFunction};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EditDistanceFitness>();
        assert_send_sync::<OracleFitness>();
        assert_send_sync::<ProbabilityMap>();
        assert_send_sync::<FitnessNet>();
        assert_send_sync::<LearnedFitness>();
        assert_send_sync::<ProbabilityFitness>();
        assert_send_sync::<Box<dyn FitnessFunction>>();
    }
}
