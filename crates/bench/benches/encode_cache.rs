//! Benchmarks of the cross-batch trace-value encoding cache under the batched
//! scoring hot path (`BENCH_encode_cache.json` records these against the
//! `BENCH_simd.json` cold record).
//!
//! The workload matches the long-standing headline record (nn_kernels'
//! `batched_vs_single/score_batch_128`): a trained NN-CF fitness model
//! scores a 128-candidate population of random length-5 programs against a
//! 5-example specification in one batched call. Three cache states are
//! measured:
//!
//! * `cold` — a fresh [`TraceEncodingCache`] per call: every distinct trace
//!   value runs through the step encoder, as before this cache existed;
//! * `warm_generation` — the shard has seen *previous generations* of the
//!   same search (each measured call scores a never-before-seen offspring
//!   population bred from the previous one by point mutation, exactly the
//!   GA's recurrence structure);
//! * `warm_steady` — the shard has seen this very population (the
//!   cross-run upper bound: only the non-step-encoder stages remain).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsyn_dsl::{Function, Generator, GeneratorConfig, Program};
use netsyn_fitness::dataset::{generate_dataset, BalanceMetric, DatasetConfig};
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_fitness::{FitnessFunction, LearnedFitness, TraceEncodingCache};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const POPULATION: usize = 128;
/// Pre-generated offspring generations. Sized for hosts far faster than the
/// recorded one (the criterion shim calibrates its batch to ~5 ms, so more
/// iterations run on faster hosts); the benchmark *panics* if the pool is
/// ever exhausted rather than silently re-scoring already-cached
/// generations, which would inflate the warm-generation number into the
/// warm-steady one.
const GENERATIONS: usize = 2048;

fn bench_encode_cache(c: &mut Criterion) {
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

    // A chain of offspring generations: each is the previous population
    // with one point mutation per candidate — the same recurrence structure
    // the GA's breeding produces, so consecutive generations share most of
    // their trace values.
    let mut offspring: Vec<Vec<Program>> = Vec::with_capacity(GENERATIONS);
    let mut parent = population.clone();
    for _ in 0..GENERATIONS {
        let next: Vec<Program> = parent
            .iter()
            .map(|program| {
                let position = rng.gen_range(0..program.len());
                let replacement = Function::ALL[rng.gen_range(0..Function::COUNT)];
                program.with_replaced(position, replacement)
            })
            .collect();
        offspring.push(next.clone());
        parent = next;
    }

    let mut group = c.benchmark_group("encode_cache");
    group.sample_size(10);

    // Cold: a fresh shard per call — the pre-cache behavior, for the
    // apples-to-apples comparison with the BENCH_simd.json record.
    group.bench_function(format!("score_batch_cold_{POPULATION}"), |bench| {
        bench.iter(|| {
            black_box(fitness.score_batch_cached(
                black_box(&population),
                &spec,
                &TraceEncodingCache::new(),
            ))
        });
    });

    // Warm generation: the shard starts warmed by the base population, and
    // every call scores the *next* never-before-seen offspring generation
    // (the pool exhausting mid-measurement would silently turn this into
    // the warm-steady benchmark — fail loudly instead).
    let generation_shard = TraceEncodingCache::new();
    let _ = fitness.score_batch_cached(&population, &spec, &generation_shard);
    let mut next_generation = 0usize;
    group.bench_function(
        format!("score_batch_warm_generation_{POPULATION}"),
        |bench| {
            bench.iter(|| {
                let generation = offspring.get(next_generation).unwrap_or_else(|| {
                    panic!(
                        "offspring pool exhausted after {GENERATIONS} generations: raise \
                         GENERATIONS so every measured call scores an unseen population"
                    )
                });
                next_generation += 1;
                black_box(fitness.score_batch_cached(
                    black_box(generation),
                    &spec,
                    &generation_shard,
                ))
            });
        },
    );

    // Warm steady state: the shard has seen this exact population.
    let steady_shard = TraceEncodingCache::new();
    let _ = fitness.score_batch_cached(&population, &spec, &steady_shard);
    group.bench_function(format!("score_batch_warm_steady_{POPULATION}"), |bench| {
        bench.iter(|| {
            black_box(fitness.score_batch_cached(black_box(&population), &spec, &steady_shard))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_encode_cache);
criterion_main!(benches);
