//! Warm-vs-cold determinism of the reuse layers, in memory and on disk.
//!
//! The encoding/inference caches added under the batched hot path — the
//! cross-generation [`TraceEncodingCache`], the neighborhood search's use of
//! the [`SpecScores`] memo, and the cached weight transposes inside
//! `netsyn_nn` — are all pure memoization of bit-identical computations, so
//! a warm cache must never change a search trajectory. These tests pin that
//! down end to end with a real learned fitness driving the full engine
//! (generation loop + DFS neighborhood search): the [`GaOutcome`] of a warm
//! repeat run is bit-identical to the cold run, down to the serialized
//! bytes of the experiment output.
//!
//! CI runs this file under both `NETSYN_SIMD` modes, so the guarantee holds
//! on the vectorized and the scalar kernels alike.
//!
//! The thread-count determinism matrix extends the contract to the
//! work-stealing pool: the serialized `GaOutcome` must be byte-identical
//! for `NETSYN_POOL_THREADS ∈ {1, 2, 8}` × `NETSYN_SIMD ∈ {0, 1}`. The
//! pool size is fixed at first use per process, so the matrix re-runs this
//! test binary as a subprocess per cell (see
//! `ga_outcome_bytes_identical_across_thread_counts_and_simd_modes`).
//!
//! The restart matrix does the same across a process restart: a cold
//! process flushes its scores to a durable cache directory, and a warm
//! process reopens it. Only scores are persisted, so the warm process
//! starts with a loaded score shard and an empty trace shard; every score
//! of the identical search hits, so it never runs the network (see
//! `ga_outcome_bytes_identical_across_process_restarts`).

use netsyn_dsl::{Function, IntPredicate, IoSpec, MapOp, Program, Value};
use netsyn_fitness::dataset::{generate_dataset, BalanceMetric, DatasetConfig};
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_fitness::{FitnessCache, FitnessFunction, FitnessNetConfig, LearnedFitness};
use netsyn_ga::{GaConfig, GaOutcome, GeneticEngine, NeighborhoodStrategy, SearchBudget};
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

fn trained_fitness() -> LearnedFitness {
    let mut r = rng(11);
    let mut dataset_config = DatasetConfig::for_length(3);
    dataset_config.num_target_programs = 6;
    dataset_config.examples_per_program = 2;
    let samples =
        generate_dataset(&dataset_config, BalanceMetric::CommonFunctions, &mut r).unwrap();
    let mut trainer_config = TrainerConfig::small();
    trainer_config.net = FitnessNetConfig {
        value_embed_dim: 4,
        encoder_hidden_dim: 6,
        function_embed_dim: 4,
        trace_hidden_dim: 6,
        example_hidden_dim: 8,
        head_hidden_dim: 8,
        output_dim: 1,
    };
    trainer_config.epochs = 1;
    let model = train_fitness_model(
        FitnessModelKind::CommonFunctions,
        &samples,
        3,
        &trainer_config,
        &mut r,
    );
    LearnedFitness::new(model)
}

/// A small engine with the DFS neighborhood search enabled and a tight
/// saturation window, so warm runs exercise the neighborhood's memo-aware
/// scoring path as well as the generation loop.
fn engine() -> GeneticEngine {
    let mut config = GaConfig::small(3);
    config.max_generations = 8;
    config.population_size = 16;
    config.saturation_window = 2;
    config.neighborhood = NeighborhoodStrategy::Dfs;
    GeneticEngine::new(config)
}

fn run(fitness: &LearnedFitness, cache: &FitnessCache, seed: u64) -> GaOutcome {
    let mut budget = SearchBudget::new(3_000);
    engine().synthesize_with_cache(&spec(), fitness, &mut budget, &mut rng(seed), cache)
}

#[test]
fn warm_run_is_bit_identical_to_cold_including_serialized_bytes() {
    let fitness = trained_fitness();
    let shared = FitnessCache::new();

    // Cold: everything — scores, trace-value encodings — computed fresh.
    let cold = run(&fitness, &shared, 5);
    let traces = shared.trace_shard(&fitness.cache_key());
    let cold_encodes = traces.encode_count();
    assert!(
        cold_encodes > 0,
        "the cold run must have encoded trace values through the shard"
    );

    // Warm: same task, same seed, shared cache. Solution, histories and
    // candidates_evaluated must be bit-identical (GaOutcome derives
    // PartialEq over all of them), and the serialized experiment output
    // must match byte for byte.
    let warm = run(&fitness, &shared, 5);
    assert_eq!(warm, cold, "a warm cache must not change the trajectory");
    assert_eq!(
        serde_json::to_string(&warm).unwrap(),
        serde_json::to_string(&cold).unwrap(),
        "experiment output must be byte-identical"
    );
    assert_eq!(
        traces.encode_count(),
        cold_encodes,
        "an identical warm run re-encodes no trace value"
    );

    // A fresh, private cache reproduces the same outcome: warm caches only
    // skip work, they never inject state.
    let private = run(&fitness, &FitnessCache::new(), 5);
    assert_eq!(private, cold);
}

#[test]
fn warm_trace_shard_reduces_encoding_work_across_different_runs() {
    let fitness = trained_fitness();

    // Two *different* runs of the same task against a shared cache: the
    // second run rediscovers many trace values, so it encodes fewer than a
    // cold run of the same seed does.
    let shared = FitnessCache::new();
    let _ = run(&fitness, &shared, 5);
    let traces = shared.trace_shard(&fitness.cache_key());
    let after_first = traces.encode_count();
    let _ = run(&fitness, &shared, 6);
    let second_encodes = traces.encode_count() - after_first;

    let cold = FitnessCache::new();
    let cold_outcome = run(&fitness, &cold, 6);
    let cold_encodes = cold.trace_shard(&fitness.cache_key()).encode_count();
    assert!(
        second_encodes < cold_encodes,
        "a warm trace shard must reuse recurring values across runs: \
         {second_encodes} fresh encodes vs {cold_encodes} cold"
    );

    // And sharing the shard still leaves the different-seed trajectory
    // untouched.
    let shared_again = FitnessCache::new();
    let _ = run(&fitness, &shared_again, 5);
    let warm_outcome = run(&fitness, &shared_again, 6);
    assert_eq!(warm_outcome, cold_outcome);
}

/// Marker prefix the matrix parent greps out of the child's stdout.
const OUTCOME_MARKER: &str = "GA_OUTCOME_BYTES:";

/// Subprocess entry point of the thread-count matrix: under
/// `NETSYN_DETERMINISM_CHILD=1` (set only by the parent test below) this
/// runs a cold synthesis plus a warm repeat on a shared cache — so the
/// lookup/score/publish path, the striped trace shard and the DFS
/// neighborhood memo are all exercised under whatever pool the environment
/// configured — and prints the serialized cold outcome. In a normal test
/// run (env unset) it is a no-op.
#[test]
fn determinism_matrix_child_emits_outcome() {
    if std::env::var("NETSYN_DETERMINISM_CHILD").is_err() {
        return;
    }
    let fitness = trained_fitness();
    let shared = FitnessCache::new();
    let cold = run(&fitness, &shared, 5);
    let warm = run(&fitness, &shared, 5);
    assert_eq!(warm, cold, "warm repeat must match under this pool size");
    println!(
        "{OUTCOME_MARKER}{}",
        serde_json::to_string(&cold).expect("outcome serializes")
    );
}

/// The satellite determinism matrix: byte-identical serialized [`GaOutcome`]
/// for `NETSYN_POOL_THREADS=1,2,8` × `NETSYN_SIMD=0,1`.
///
/// Thread-count independence holds because every parallel reduction lands
/// scores by candidate index and every kernel keeps a fixed per-element op
/// order; SIMD-mode independence holds by the PR-3 bitwise-libm contract.
/// Each cell runs in a subprocess because the pool size and kernel family
/// are fixed at first use per process.
#[test]
fn ga_outcome_bytes_identical_across_thread_counts_and_simd_modes() {
    // The matrix pins NETSYN_POOL_THREADS and NETSYN_SIMD explicitly in
    // every child, so its coverage is identical whatever the parent's
    // environment; CI sets this variable in its re-run-the-suite-under-
    // forced-env steps so the six subprocesses execute once per CI pass,
    // not once per step.
    if std::env::var("NETSYN_SKIP_DETERMINISM_MATRIX").is_ok() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut outcomes: Vec<(String, String)> = Vec::new();
    for threads in ["1", "2", "8"] {
        for simd in ["0", "1"] {
            let output = std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "determinism_matrix_child_emits_outcome",
                    "--nocapture",
                    "--test-threads=1",
                ])
                .env("NETSYN_DETERMINISM_CHILD", "1")
                .env("NETSYN_POOL_THREADS", threads)
                .env("NETSYN_SIMD", simd)
                .output()
                .expect("spawn matrix child");
            assert!(
                output.status.success(),
                "matrix child (threads={threads}, simd={simd}) failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            let stdout = String::from_utf8(output.stdout).expect("child stdout is utf-8");
            // The marker may share its line with libtest's "test name ..."
            // prefix (printed without a newline under --nocapture), so split
            // on the marker rather than expecting it at line start.
            let bytes = stdout
                .lines()
                .find_map(|line| {
                    line.find(OUTCOME_MARKER)
                        .map(|at| line[at + OUTCOME_MARKER.len()..].to_string())
                })
                .unwrap_or_else(|| {
                    panic!("child (threads={threads}, simd={simd}) printed no outcome:\n{stdout}")
                });
            outcomes.push((format!("threads={threads} simd={simd}"), bytes));
        }
    }
    let (ref baseline_cell, ref baseline) = outcomes[0];
    for (cell, bytes) in &outcomes[1..] {
        assert_eq!(
            bytes, baseline,
            "serialized GaOutcome must be byte-identical across the pool/kernel \
             matrix ({cell} differs from {baseline_cell})"
        );
    }
}

/// Serialized pre-refactor `GaOutcome` of the matrix workload, captured from
/// the panmictic engine as of PR 8 (NETSYN_POOL_THREADS=1, verified
/// byte-identical under both SIMD modes at capture time).
const GOLDEN_K1: &str = include_str!("golden/ga_outcome_k1.json");

/// The K=1 island engine must reproduce the pre-refactor engine exactly:
/// the serialized outcome of the matrix workload is pinned byte-for-byte to
/// the golden fixture captured before the island refactor. Any change to
/// the K=1 draw order, budget accounting, history recording or neighborhood
/// hand-off shows up here as a byte diff.
#[test]
fn k1_outcome_matches_the_pre_refactor_golden_bytes() {
    if std::env::var("NETSYN_ISLANDS").is_ok() {
        // The island matrix re-runs this binary with K>1; the golden pin
        // only applies to the default single-island engine.
        return;
    }
    let fitness = trained_fitness();
    let outcome = run(&fitness, &FitnessCache::new(), 5);
    assert_eq!(
        serde_json::to_string(&outcome).expect("outcome serializes"),
        GOLDEN_K1.trim_end(),
        "K=1 must stay byte-identical to the pre-refactor golden outcome"
    );
}

/// The island determinism matrix: serialized [`GaOutcome`] byte-identical
/// across `NETSYN_POOL_THREADS ∈ {1, 8}` × `NETSYN_SIMD ∈ {0, 1}` for every
/// island count `K ∈ {1, 2, 4}`, with the K=1 cells additionally pinned to
/// the pre-refactor golden bytes.
///
/// K-independence is *not* expected (different K means different RNG
/// streams and budget slices by design); what the island layer guarantees
/// is that for a fixed K, the outcome is a pure function of
/// `(config, spec, fitness, seed)` — islands evolve on their own RNG
/// streams and budget slices, and every merge (migration, solution pick,
/// history fold) is index-ordered. Each cell runs in a subprocess because
/// the pool size and kernel family are fixed at first use per process.
#[test]
fn ga_outcome_bytes_identical_across_island_pool_simd_matrix() {
    if std::env::var("NETSYN_SKIP_ISLAND_MATRIX").is_ok() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for islands in ["1", "2", "4"] {
        let mut outcomes: Vec<(String, String)> = Vec::new();
        for threads in ["1", "8"] {
            for simd in ["0", "1"] {
                let output = std::process::Command::new(&exe)
                    .args([
                        "--exact",
                        "determinism_matrix_child_emits_outcome",
                        "--nocapture",
                        "--test-threads=1",
                    ])
                    .env("NETSYN_DETERMINISM_CHILD", "1")
                    .env("NETSYN_ISLANDS", islands)
                    .env("NETSYN_POOL_THREADS", threads)
                    .env("NETSYN_SIMD", simd)
                    .output()
                    .expect("spawn island matrix child");
                assert!(
                    output.status.success(),
                    "island matrix child (islands={islands}, threads={threads}, \
                     simd={simd}) failed:\n{}",
                    String::from_utf8_lossy(&output.stderr)
                );
                let stdout = String::from_utf8(output.stdout).expect("child stdout is utf-8");
                let bytes = stdout
                    .lines()
                    .find_map(|line| {
                        line.find(OUTCOME_MARKER)
                            .map(|at| line[at + OUTCOME_MARKER.len()..].to_string())
                    })
                    .unwrap_or_else(|| {
                        panic!(
                            "child (islands={islands}, threads={threads}, simd={simd}) \
                             printed no outcome:\n{stdout}"
                        )
                    });
                outcomes.push((format!("threads={threads} simd={simd}"), bytes));
            }
        }
        let (ref baseline_cell, ref baseline) = outcomes[0];
        for (cell, bytes) in &outcomes[1..] {
            assert_eq!(
                bytes, baseline,
                "serialized GaOutcome must be byte-identical across the pool/kernel \
                 matrix at K={islands} ({cell} differs from {baseline_cell})"
            );
        }
        if islands == "1" {
            assert_eq!(
                baseline,
                GOLDEN_K1.trim_end(),
                "the K=1 matrix baseline must equal the pre-refactor golden bytes"
            );
        }
    }
}

/// Subprocess entry point of the restart matrix: under
/// `NETSYN_RESTART_CHILD=cold|warm` (set only by the parent test below) this
/// opens the **durable** cache named by `NETSYN_CACHE_DIR`, runs the same
/// synthesis as the determinism matrix, and prints the serialized outcome.
///
/// The `cold` phase asserts it starts from empty shards and flushes its
/// scores to disk on the way out. The `warm` phase — a fresh process, i.e.
/// a real restart — asserts the score shard came back from disk and the
/// trace shard starts empty (encodings live in memory only), and that the
/// identical run encodes nothing: every score hits, so the network never
/// runs. In a normal test run (env unset) it is a no-op.
#[test]
fn restart_matrix_child_emits_outcome() {
    let Ok(phase) = std::env::var("NETSYN_RESTART_CHILD") else {
        return;
    };
    let dir = std::env::var_os("NETSYN_CACHE_DIR").expect("parent sets NETSYN_CACHE_DIR");
    let fitness = trained_fitness();
    let cache = FitnessCache::durable(&dir).expect("open durable cache");
    let memo = cache.shard(&fitness.cache_key(), &spec());
    let traces = cache.trace_shard(&fitness.cache_key());
    match phase.as_str() {
        "cold" => {
            assert!(memo.is_empty(), "cold phase must start from an empty shard");
            assert!(traces.is_empty(), "cold phase must start with no encodings");
        }
        "warm" => {
            assert!(
                !memo.is_empty(),
                "warm phase must load scores persisted by the cold process"
            );
            assert!(
                traces.is_empty(),
                "trace encodings are not persisted, so the warm trace shard starts empty"
            );
        }
        other => panic!("unknown restart phase {other:?}"),
    }
    let outcome = run(&fitness, &cache, 5);
    if phase == "warm" {
        assert_eq!(
            traces.encode_count(),
            0,
            "a warm-from-disk run hits every score, so it encodes no trace value"
        );
    }
    let stats = cache.flush().expect("durable cache flushes");
    if phase == "cold" {
        assert!(
            stats.score_entries > 0,
            "cold phase must persist the scores it computed"
        );
    }
    println!(
        "{OUTCOME_MARKER}{}",
        serde_json::to_string(&outcome).expect("outcome serializes")
    );
}

/// Runs one restart-matrix child process and returns the serialized outcome
/// it printed.
fn restart_child(exe: &std::path::Path, dir: &std::path::Path, phase: &str, simd: &str) -> String {
    let output = std::process::Command::new(exe)
        .args([
            "--exact",
            "restart_matrix_child_emits_outcome",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("NETSYN_RESTART_CHILD", phase)
        .env("NETSYN_CACHE_DIR", dir)
        .env("NETSYN_SIMD", simd)
        .output()
        .expect("spawn restart child");
    assert!(
        output.status.success(),
        "restart child (phase={phase}, simd={simd}) failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("child stdout is utf-8");
    stdout
        .lines()
        .find_map(|line| {
            line.find(OUTCOME_MARKER)
                .map(|at| line[at + OUTCOME_MARKER.len()..].to_string())
        })
        .unwrap_or_else(|| {
            panic!("child (phase={phase}, simd={simd}) printed no outcome:\n{stdout}")
        })
}

/// The durable-tier restart matrix: run → flush to disk → **restart the
/// process** → warm-start from disk, under `NETSYN_SIMD=0,1`. All four
/// serialized [`GaOutcome`]s (cold and warm, each SIMD mode) must be
/// byte-identical: a warm-from-disk cache only skips work — scores
/// round-trip through the score log as raw bit patterns, so the restarted
/// search trajectory cannot drift.
#[test]
fn ga_outcome_bytes_identical_across_process_restarts() {
    if std::env::var("NETSYN_SKIP_RESTART_MATRIX").is_ok() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut outcomes: Vec<(String, String)> = Vec::new();
    for simd in ["0", "1"] {
        let dir = std::env::temp_dir().join(format!(
            "netsyn_restart_matrix_{}_simd{simd}",
            std::process::id()
        ));
        // Stale directory from a crashed earlier run: start clean so the
        // cold-phase emptiness assertion holds.
        let _ = std::fs::remove_dir_all(&dir);
        for phase in ["cold", "warm"] {
            let bytes = restart_child(&exe, &dir, phase, simd);
            outcomes.push((format!("phase={phase} simd={simd}"), bytes));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let (ref baseline_cell, ref baseline) = outcomes[0];
    for (cell, bytes) in &outcomes[1..] {
        assert_eq!(
            bytes, baseline,
            "serialized GaOutcome must be byte-identical across process restarts \
             and kernel families ({cell} differs from {baseline_cell})"
        );
    }
}
