//! Micro-benchmarks of the island-sharded GA driver and the portfolio race.
//!
//! `k1_oracle_synthesis_len3` is the K=1 parity check against the
//! pre-refactor `ga_engine/oracle_synthesis_len3` record (same workload,
//! same seeds): a single island drives the caller's RNG and budget directly,
//! so the refactor must cost nothing there. `k2`/`k4` measure the sharded
//! driver (islands evolve on separate pool workers between migration
//! points; with fewer cores than islands they time-slice).
//! `portfolio_race_len3` runs the full three-strategy race (GA islands, DFS
//! neighborhood, guided beam) on the same problem in lockstep rounds: each
//! round steps every live strategy once, one pool task each, and the race
//! ends in the first round a strategy solves. Its outcome is the same at
//! every pool size, so only the time differs between
//! `NETSYN_POOL_THREADS=1` and `=2`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use netsyn_core::prelude::{SynthesisProblem, Synthesizer};
use netsyn_core::{FitnessChoice, NetSyn, NetSynConfig, PortfolioSynthesizer};
use netsyn_dsl::{Generator, GeneratorConfig, IoSpec};
use netsyn_fitness::{ClosenessMetric, OracleFitness};
use netsyn_ga::{GaConfig, GeneticEngine, SearchBudget};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn sample_spec(length: usize, seed: u64) -> (netsyn_dsl::Program, IoSpec) {
    let generator = Generator::new(GeneratorConfig::for_length(length));
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let target = generator.program(&mut rng).unwrap();
    let spec = generator.spec_for(&target, 5, &mut rng);
    (target, spec)
}

fn bench_islands(c: &mut Criterion) {
    let mut group = c.benchmark_group("island_portfolio");
    group.sample_size(10);

    // Same workload and seeds as ga_engine/oracle_synthesis_len3: the K=1
    // parity point of the island refactor.
    for islands in [1usize, 2, 4] {
        group.bench_function(format!("k{islands}_oracle_synthesis_len3"), |b| {
            let (target, spec) = sample_spec(3, 12);
            let mut config = GaConfig::small(3);
            config.islands = islands;
            let engine = GeneticEngine::new(config);
            let oracle = OracleFitness::new(target, ClosenessMetric::CommonFunctions);
            b.iter(|| {
                let mut budget = SearchBudget::new(200_000);
                let mut rng = ChaCha8Rng::seed_from_u64(5);
                black_box(engine.synthesize(&spec, &oracle, &mut budget, &mut rng))
            });
        });
    }

    // The full heterogeneous race on the same problem: GA islands, a DFS
    // neighborhood walk and a guided beam in lockstep rounds over one
    // budget.
    group.bench_function("portfolio_race_len3", |b| {
        let (target, spec) = sample_spec(3, 12);
        let config = NetSynConfig::small(FitnessChoice::OracleCommonFunctions, 3);
        let netsyn = NetSyn::new(config, None).with_oracle_target(target);
        let portfolio = PortfolioSynthesizer::new(netsyn);
        let problem = SynthesisProblem::new(spec, 3);
        b.iter(|| {
            let mut budget = SearchBudget::new(200_000);
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            black_box(portfolio.synthesize(&problem, &mut budget, &mut rng))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_islands);
criterion_main!(benches);
