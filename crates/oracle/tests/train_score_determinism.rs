//! Train-then-score determinism of the batched SIMD training path.
//!
//! The trainer now drives whole minibatches through the batched backward
//! kernels (`FitnessNet::forward_batch_train` / `backward_batch`). These
//! tests pin the end-to-end consequence: a checkpoint trained on the batched
//! path is byte-identical to one trained on the scalar per-sample reference
//! loop, and a full GA synthesis scored with that checkpoint produces a
//! byte-identical serialized [`GaOutcome`] across worker-pool sizes
//! (`NETSYN_POOL_THREADS ∈ {1, 8}`). The pool size is fixed at first use per
//! process, so the matrix re-runs this test binary as a subprocess per cell,
//! following the pattern of netsyn-ga's `warm_cache_determinism.rs`.
//!
//! CI runs this file under both `NETSYN_SIMD` modes, extending the guarantee
//! to the vectorized and scalar kernel families alike.

use netsyn_dsl::{Function, IntPredicate, IoSpec, MapOp, Program, Value};
use netsyn_fitness::dataset::{generate_dataset, BalanceMetric, DatasetConfig};
use netsyn_fitness::trainer::{
    train_fitness_model, FitnessModelKind, TrainedFitnessModel, TrainerConfig,
};
use netsyn_fitness::{FitnessCache, FitnessNetConfig, LearnedFitness};
use netsyn_ga::{GaConfig, GaOutcome, GeneticEngine, NeighborhoodStrategy, SearchBudget};
use netsyn_oracle::train_fitness_model_reference;
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
        ],
    )
}

fn trainer_config() -> TrainerConfig {
    let mut config = TrainerConfig::small();
    config.net = FitnessNetConfig {
        value_embed_dim: 4,
        encoder_hidden_dim: 6,
        function_embed_dim: 4,
        trace_hidden_dim: 6,
        example_hidden_dim: 8,
        head_hidden_dim: 8,
        output_dim: 1,
    };
    config.epochs = 2;
    config.batch_size = 8;
    config
}

/// Trains a CF model on the batched minibatch path.
fn train_batched() -> TrainedFitnessModel {
    let mut r = rng(23);
    let mut dataset_config = DatasetConfig::for_length(3);
    dataset_config.num_target_programs = 6;
    dataset_config.examples_per_program = 2;
    let samples =
        generate_dataset(&dataset_config, BalanceMetric::CommonFunctions, &mut r).unwrap();
    train_fitness_model(
        FitnessModelKind::CommonFunctions,
        &samples,
        3,
        &trainer_config(),
        &mut r,
    )
}

/// Trains the identical model on the scalar per-sample reference loop.
fn train_reference() -> TrainedFitnessModel {
    let mut r = rng(23);
    let mut dataset_config = DatasetConfig::for_length(3);
    dataset_config.num_target_programs = 6;
    dataset_config.examples_per_program = 2;
    let samples =
        generate_dataset(&dataset_config, BalanceMetric::CommonFunctions, &mut r).unwrap();
    train_fitness_model_reference(
        FitnessModelKind::CommonFunctions,
        &samples,
        3,
        &trainer_config(),
        &mut r,
    )
}

fn synthesize(model: TrainedFitnessModel) -> GaOutcome {
    let mut config = GaConfig::small(3);
    config.max_generations = 8;
    config.population_size = 16;
    config.saturation_window = 2;
    config.neighborhood = NeighborhoodStrategy::Dfs;
    let fitness = LearnedFitness::new(model);
    let mut budget = SearchBudget::new(3_000);
    GeneticEngine::new(config).synthesize_with_cache(
        &spec(),
        &fitness,
        &mut budget,
        &mut rng(5),
        &FitnessCache::new(),
    )
}

/// Marker prefix the matrix parent greps out of the child's stdout.
const OUTCOME_MARKER: &str = "TRAIN_SCORE_OUTCOME_BYTES:";

/// Subprocess entry point: under `NETSYN_TRAIN_SCORE_CHILD=1` (set only by
/// the parent matrix below) this trains a checkpoint on the batched path,
/// certifies it byte-identical to the reference-trained one *under this
/// process's pool/kernel environment*, scores a full synthesis with it, and
/// prints the serialized outcome. In a normal test run (env unset) it is a
/// no-op.
#[test]
fn train_score_child_emits_outcome() {
    if std::env::var("NETSYN_TRAIN_SCORE_CHILD").is_err() {
        return;
    }
    let batched = train_batched();
    let reference = train_reference();
    assert_eq!(
        serde_json::to_string(&batched).expect("model serializes"),
        serde_json::to_string(&reference).expect("model serializes"),
        "batched-trained checkpoint must be byte-identical to the reference"
    );
    let outcome = synthesize(batched);
    println!(
        "{OUTCOME_MARKER}{}",
        serde_json::to_string(&outcome).expect("outcome serializes")
    );
}

/// The train-then-score matrix: a checkpoint trained on the batched SIMD
/// path yields a byte-identical serialized [`GaOutcome`] for
/// `NETSYN_POOL_THREADS ∈ {1, 8}`.
#[test]
fn batched_trained_checkpoint_scores_identically_across_pool_sizes() {
    if std::env::var("NETSYN_SKIP_DETERMINISM_MATRIX").is_ok() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut outcomes: Vec<(String, String)> = Vec::new();
    for threads in ["1", "8"] {
        let output = std::process::Command::new(&exe)
            .args([
                "--exact",
                "train_score_child_emits_outcome",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("NETSYN_TRAIN_SCORE_CHILD", "1")
            .env("NETSYN_POOL_THREADS", threads)
            .output()
            .expect("spawn train/score child");
        assert!(
            output.status.success(),
            "train/score child (threads={threads}) failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).expect("child stdout is utf-8");
        // The marker may share its line with libtest's "test name ..." prefix
        // (printed without a newline under --nocapture), so split on the
        // marker rather than expecting it at line start.
        let bytes = stdout
            .lines()
            .find_map(|line| {
                line.find(OUTCOME_MARKER)
                    .map(|at| line[at + OUTCOME_MARKER.len()..].to_string())
            })
            .unwrap_or_else(|| panic!("child (threads={threads}) printed no outcome:\n{stdout}"));
        outcomes.push((format!("threads={threads}"), bytes));
    }
    let (ref baseline_cell, ref baseline) = outcomes[0];
    for (cell, bytes) in &outcomes[1..] {
        assert_eq!(
            bytes, baseline,
            "serialized GaOutcome from a batched-trained checkpoint must be \
             byte-identical across pool sizes ({cell} differs from {baseline_cell})"
        );
    }
}
