//! Micro-benchmarks of the restricted local neighborhood search (Algorithm 1):
//! BFS and DFS flavors over the top genes of a population.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsyn_dsl::{DomainId, Generator, GeneratorConfig};
use netsyn_fitness::{ClosenessMetric, OracleFitness, SpecScores, TraceEncodingCache};
use netsyn_ga::{neighborhood, NeighborhoodStrategy, SearchBudget};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_neighborhood(c: &mut Criterion) {
    let mut group = c.benchmark_group("neighborhood_search");
    group.sample_size(10);
    let generator = Generator::new(GeneratorConfig::for_length(5));
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let target = generator.program(&mut rng).unwrap();
    let spec = generator.spec_for(&target, 5, &mut rng);
    let oracle = OracleFitness::new(target, ClosenessMetric::CommonFunctions);
    // Five genes far from the target: the whole neighborhood is explored.
    let genes: Vec<_> = (0..5).map(|_| generator.random_program(&mut rng)).collect();

    for (label, strategy) in [
        ("bfs_top5_len5", NeighborhoodStrategy::Bfs),
        ("dfs_top5_len5", NeighborhoodStrategy::Dfs),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                // Fresh memo/encoding shards per iteration: this benchmark
                // measures the cold search (the warm path is covered by the
                // encode_cache benches).
                let mut budget = SearchBudget::new(1_000_000);
                black_box(neighborhood::search(
                    black_box(&genes),
                    &spec,
                    strategy,
                    DomainId::List,
                    &oracle,
                    &mut budget,
                    &SpecScores::default(),
                    &TraceEncodingCache::new(),
                    None,
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_neighborhood);
criterion_main!(benches);
