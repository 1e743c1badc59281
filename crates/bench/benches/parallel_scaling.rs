//! Multi-core scaling of the population-scoring hot path under the
//! work-stealing pool (`BENCH_parallel_scaling.json` records these per
//! `NETSYN_POOL_THREADS` value against the `BENCH_encode_cache.json`
//! 1-thread record).
//!
//! The pool size is fixed at first use per process, so each thread count is
//! measured by a separate run:
//!
//! ```text
//! NETSYN_POOL_THREADS=1 cargo bench -p netsyn-bench --bench parallel_scaling
//! NETSYN_POOL_THREADS=4 cargo bench -p netsyn-bench --bench parallel_scaling
//! ```
//!
//! Two workloads:
//!
//! * `score_batch_cold` — the long-standing headline record (a trained
//!   NN-CF fitness scores a 128-candidate population of random length-5
//!   programs against a 5-example spec in one batched call, fresh trace
//!   shard per call). Parallelism here is *inside* the batched kernels
//!   (matmul rows, LSTM gate sweeps), whose chunks the pool now steals.
//! * `concurrent_runs_4x` — four concurrent synthesis attempts of the same
//!   task (the evaluation harness's task×run fan-out) score four disjoint
//!   64-candidate populations through one shared `SpecScores` shard via
//!   `resolve_batch`, each attempt nesting into the batched kernels. This
//!   exercises exactly the nesting the old shim ran inline.
//!
//! Scores are bit-identical whatever the pool size (asserted against a
//! 1-thread-equivalent sequential pass at startup), so the thread-count
//! determinism matrix in `crates/ga/tests/warm_cache_determinism.rs` is the
//! correctness side of this benchmark.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsyn_dsl::{Generator, GeneratorConfig};
use netsyn_dsl::{IoSpec, Program};
use netsyn_fitness::cache::{resolve_batch, SpecScores};
use netsyn_fitness::dataset::{generate_dataset, BalanceMetric, DatasetConfig};
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_fitness::{FitnessFunction, LearnedFitness, TraceEncodingCache};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

const POPULATION: usize = 128;
const CONCURRENT_RUNS: usize = 4;

struct Workload {
    fitness: LearnedFitness,
    spec: IoSpec,
    population: Vec<Program>,
    /// Disjoint per-"run" sub-populations for the concurrent workload.
    run_populations: Vec<Vec<Program>>,
}

fn workload() -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let mut dataset_config = DatasetConfig::for_length(5);
    dataset_config.num_target_programs = 4;
    dataset_config.examples_per_program = 2;
    let samples = generate_dataset(&dataset_config, BalanceMetric::CommonFunctions, &mut rng)
        .expect("dataset generation succeeds");
    let mut trainer_config = TrainerConfig::small();
    trainer_config.epochs = 1;
    let model = train_fitness_model(
        FitnessModelKind::CommonFunctions,
        &samples,
        5,
        &trainer_config,
        &mut rng,
    );
    let fitness = LearnedFitness::new(model);
    let generator = Generator::new(GeneratorConfig::for_length(5));
    let target = generator
        .program(&mut rng)
        .expect("program generation succeeds");
    let spec = generator.spec_for(&target, 5, &mut rng);
    let population: Vec<Program> = (0..POPULATION)
        .map(|_| generator.random_program(&mut rng))
        .collect();
    let run_populations: Vec<Vec<Program>> = (0..CONCURRENT_RUNS)
        .map(|_| {
            (0..POPULATION / 2)
                .map(|_| generator.random_program(&mut rng))
                .collect()
        })
        .collect();
    Workload {
        fitness,
        spec,
        population,
        run_populations,
    }
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let w = workload();
    let threads = rayon::current_num_threads();

    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);

    // The headline workload: one batched 128-candidate scoring call, cold
    // trace shard (identical to encode_cache's `score_batch_cold_128`, so
    // the 1-thread number is directly comparable to that record).
    group.bench_function(
        format!("score_batch_cold_{POPULATION}_t{threads}"),
        |bench| {
            bench.iter(|| {
                black_box(w.fitness.score_batch_cached(
                    black_box(&w.population),
                    &w.spec,
                    &TraceEncodingCache::new(),
                ))
            });
        },
    );

    // The harness-shaped workload: K concurrent runs of one task share a
    // SpecScores shard; each run resolves its own population, scoring the
    // misses with a nested batched call. With work stealing the outer
    // fan-out and the inner kernels both parallelize; at 1 thread
    // everything runs inline — same results either way.
    group.bench_function(
        format!("concurrent_runs_{CONCURRENT_RUNS}x_t{threads}"),
        |bench| {
            bench.iter(|| {
                let shard = SpecScores::default();
                let traces = TraceEncodingCache::new();
                let totals: Vec<f64> = w
                    .run_populations
                    .par_iter()
                    .map(|population| {
                        let scores = resolve_batch(&shard, population, |batch| {
                            w.fitness.score_batch_cached(batch, &w.spec, &traces)
                        });
                        scores.iter().sum()
                    })
                    .collect();
                black_box(totals)
            });
        },
    );

    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
