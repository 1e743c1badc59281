//! Benchmarks of the batched SIMD training path against the scalar
//! per-sample reference loop (`BENCH_train.json` records these).
//!
//! Both sides run the *same* trainer — identical dataset, shuffles, loss and
//! optimizer trajectory, byte-identical resulting checkpoints (pinned by
//! `batched_trainer_matches_reference_byte_for_byte`) — and differ only in
//! the kernels under each minibatch: `train_fitness_model` drives whole
//! chunks through `FitnessNet::forward_batch_train` / `backward_batch`
//! (time-major gather-free LSTM batching, batched outer-product weight
//! gradients), while `netsyn_oracle::train_fitness_model_reference` forwards
//! and backpropagates one sample at a time. The validation split is disabled so
//! the measurement isolates the training sweep itself.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsyn_fitness::dataset::{generate_dataset, BalanceMetric, DatasetConfig, FitnessSample};
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_oracle::train_fitness_model_reference;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const PROGRAM_LENGTH: usize = 5;

fn dataset() -> Vec<FitnessSample> {
    let mut rng = ChaCha8Rng::seed_from_u64(31);
    let mut config = DatasetConfig::for_length(PROGRAM_LENGTH);
    config.num_target_programs = 6;
    config.examples_per_program = 2;
    generate_dataset(&config, BalanceMetric::CommonFunctions, &mut rng)
        .expect("dataset generation succeeds")
}

fn trainer_config() -> TrainerConfig {
    let mut config = TrainerConfig::small();
    config.epochs = 1;
    config.batch_size = 16;
    // Isolate the training sweep: no held-out split, so neither side spends
    // time in the (per-sample, inference-path) validation scorer.
    config.validation_fraction = 0.0;
    config
}

fn bench_train_epoch(c: &mut Criterion) {
    let samples = dataset();
    let config = trainer_config();
    let mut group = c.benchmark_group("train_epoch");
    group.sample_size(10);
    group.bench_function("batched_simd", |bench| {
        bench.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            black_box(train_fitness_model(
                FitnessModelKind::CommonFunctions,
                black_box(&samples),
                PROGRAM_LENGTH,
                &config,
                &mut rng,
            ))
        });
    });
    group.bench_function("scalar_reference", |bench| {
        bench.iter(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            black_box(train_fitness_model_reference(
                FitnessModelKind::CommonFunctions,
                black_box(&samples),
                PROGRAM_LENGTH,
                &config,
                &mut rng,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_train_epoch);
criterion_main!(benches);
