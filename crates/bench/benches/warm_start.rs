//! Benchmarks of the durable cache tier's warm-from-disk boot
//! (`BENCH_warm_start.json` records these).
//!
//! The workload matches the long-standing headline record: a trained NN-CF
//! fitness model scores a 128-candidate population of random length-5
//! programs against a 5-example specification in one batched call. Three
//! paths are measured:
//!
//! * `cold_boot` — a fresh in-memory cache per call: every distinct trace
//!   value runs through the step encoder (the no-`NETSYN_CACHE_DIR`
//!   behavior, and the behavior after any corruption fallback);
//! * `durable_open` — just [`FitnessCache::durable`] over a directory
//!   holding this workload's persisted scores: the pure boot cost of
//!   decoding and verifying the score log;
//! * `warm_boot` — open the durable cache from disk *and* look the
//!   population up in the loaded score shard with
//!   [`SpecScores::get_many`](netsyn_fitness::SpecScores::get_many): the
//!   path the engine takes on a restart, where every candidate hits and the
//!   network never runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsyn_dsl::{Generator, GeneratorConfig, Program};
use netsyn_fitness::dataset::{generate_dataset, BalanceMetric, DatasetConfig};
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_fitness::{FitnessCache, FitnessFunction, LearnedFitness, TraceEncodingCache};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const POPULATION: usize = 128;

fn bench_warm_start(c: &mut Criterion) {
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

    // Persist this workload's scores once, so the warm-boot benchmarks
    // restart from a realistic directory.
    let dir = std::env::temp_dir().join(format!("netsyn_warm_start_bench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let cache = FitnessCache::durable(&dir).expect("open durable cache");
        let traces = cache.trace_shard(&fitness.cache_key());
        let memo = cache.shard(&fitness.cache_key(), &spec);
        let scores = fitness.score_batch_cached(&population, &spec, &traces);
        for (program, score) in population.iter().zip(&scores) {
            memo.insert(program.clone(), *score);
        }
        cache.flush().expect("flush");
    }

    let mut group = c.benchmark_group("warm_start");
    group.sample_size(10);

    // Cold boot: fresh in-memory shard, full step-encoder sweep.
    group.bench_function(format!("cold_boot_score_{POPULATION}"), |bench| {
        bench.iter(|| {
            black_box(fitness.score_batch_cached(
                black_box(&population),
                &spec,
                &TraceEncodingCache::new(),
            ))
        });
    });

    // Boot cost alone: decode + CRC-verify the score log into memory.
    group.bench_function("durable_open", |bench| {
        bench.iter(|| black_box(FitnessCache::durable(&dir).expect("reopen")));
    });

    // Warm boot: open from disk and look the population up — the restart
    // path end to end.
    group.bench_function(format!("warm_boot_score_{POPULATION}"), |bench| {
        bench.iter(|| {
            let cache = FitnessCache::durable(&dir).expect("reopen");
            let scores = cache
                .shard(&fitness.cache_key(), &spec)
                .get_many(black_box(&population));
            assert!(
                scores.iter().all(Option::is_some),
                "a warm boot must serve every score from disk"
            );
            black_box(scores)
        });
    });

    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, bench_warm_start);
criterion_main!(benches);
