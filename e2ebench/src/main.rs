//! End-to-end benchmark of `netsyn_core::evaluate_method`, the harness the
//! paper's Tables 3/4 are measured with.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <cf_cold|cf_warm|edit_islands> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the fig4 default suite (length 5, 5 tasks per kind,
//! 2 runs per task) with the pool pinned to 2 threads and one caller thread;
//! `--seed` seeds the GA searches run over it. Set-up trains the model
//! bundle in memory with the fig4 small configuration and seed, then the
//! harness is called repeatedly for `--seconds`. Every call of one search
//! must reproduce the same digest of `(task, run, success, candidates,
//! generations)`, and every returned solution must satisfy its spec;
//! otherwise the benchmark exits non-zero without printing a result. With
//! `--trace 1` a separate traced call follows, which must reproduce the
//! digest too, and the per-layer split is reported instead of the
//! end-to-end metrics. The last stdout line is always the JSON result.

mod trace;

use netsyn_baselines::{SynthesisProblem, SynthesisResult, Synthesizer};
use netsyn_bench::HarnessConfig;
use netsyn_core::{
    evaluate_method, BundleTrainingConfig, FitnessChoice, MethodEvaluation, MethodSpec,
    ModelBundle, NetSyn, NetSynConfig, RunRecord, TestSuite,
};
use netsyn_dsl::SynthesisTask;
use netsyn_fitness::persist::{CACHE_DIR_ENV, FLUSH_EVERY_ENV};
use netsyn_fitness::FitnessCache;
use netsyn_ga::{MutationMode, SearchBudget};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trace::{Layer, TracedNetSyn, Tracer};

/// Pool size every run pins (`NETSYN_POOL_THREADS`).
const POOL_THREADS: usize = 2;
/// Seed of the in-memory model bundle: the fig4 default, so the bundle is
/// the one `netsyn_bench::load_bundle(5, false, 2021)` would train.
const BUNDLE_SEED: u64 = 2021;
/// Seed of the fig4 default suite. The suite stays fixed because over ten
/// tasks the work of a call depends far more on which tasks the suite holds
/// than on the code under test; `--seed` varies the searches instead.
const SUITE_SEED: u64 = 2021;
/// Set-up is repeated this often and its median reported.
const SETUP_REPEATS: usize = 3;
/// Fewest timed harness calls per run, however short `--seconds` is.
const MIN_CALLS: usize = 5;
/// Distinct searches `cf_warm` populates in set-up and cycles through.
const WARM_SEARCHES: usize = 2;
/// Islands of the `edit_islands` workload.
const EDIT_ISLANDS: usize = 4;
/// Scratch space for cache directories, under the working directory.
const WORK_DIR: &str = ".e2ebench-work";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// `NetSyn_CF`, paper defaults, fresh durable cache directory per call.
    CfCold,
    /// `NetSyn_CF` over a durable cache restored from a populated snapshot.
    CfWarm,
    /// `Edit` with 4 islands and in-memory caches.
    EditIslands,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::CfCold, Workload::CfWarm, Workload::EditIslands];

    fn name(self) -> &'static str {
        match self {
            Workload::CfCold => "cf_cold",
            Workload::CfWarm => "cf_warm",
            Workload::EditIslands => "edit_islands",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn uses_model(self) -> bool {
        self != Workload::EditIslands
    }
}

/// Suite, budget and training sizes.
#[derive(Debug, Clone)]
struct Scale {
    program_length: usize,
    tasks_per_kind: usize,
    runs_per_task: usize,
    cf_cap: usize,
    edit_cap: usize,
    bundle: BundleTrainingConfig,
}

impl Scale {
    /// The fig4 default suite and `netsyn_bench::load_bundle`'s small
    /// training configuration.
    fn fig4() -> Scale {
        let program_length = 5;
        let mut bundle = BundleTrainingConfig::small(program_length);
        bundle.dataset.num_target_programs = 60;
        bundle.trainer.epochs = 2;
        Scale {
            program_length,
            tasks_per_kind: 5,
            runs_per_task: 2,
            cf_cap: 4_000,
            edit_cap: 100_000,
            bundle,
        }
    }

    fn budget_cap(&self, workload: Workload) -> usize {
        match workload {
            Workload::CfCold | Workload::CfWarm => self.cf_cap,
            Workload::EditIslands => self.edit_cap,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the JSON result.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one benchmark invocation measured.
#[derive(Debug)]
struct Outcome {
    attempted: usize,
    metrics: Vec<Metric>,
}

/// The digest of `(task, run, success, candidates, generations)` over all
/// records in `(task, run)` order: FNV-1a over little-endian words.
fn digest(records: &[RunRecord]) -> u64 {
    let mut sorted: Vec<&RunRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.task_index, r.run_index));
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for r in sorted {
        let words = [
            r.task_index as u64,
            r.run_index as u64,
            u64::from(r.success),
            r.candidates_evaluated as u64,
            r.generations.map_or(u64::MAX, |g| g as u64),
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn check_digest(what: &str, records: &[RunRecord], expected: u64) -> Result<(), String> {
    let got = digest(records);
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: digest {got:016x} differs from the reference {expected:016x}"
        ))
    }
}

/// Wraps the measured synthesizer and checks every solution it returns
/// against the spec (one interpreter run per example, once per attempt).
struct Checked {
    inner: NetSyn,
    rejected: Arc<AtomicUsize>,
}

impl Synthesizer for Checked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn synthesize(
        &self,
        problem: &SynthesisProblem,
        budget: &mut SearchBudget,
        rng: &mut dyn RngCore,
    ) -> SynthesisResult {
        self.synthesize_cached(problem, budget, rng, &FitnessCache::new())
    }

    fn synthesize_cached(
        &self,
        problem: &SynthesisProblem,
        budget: &mut SearchBudget,
        rng: &mut dyn RngCore,
        cache: &FitnessCache,
    ) -> SynthesisResult {
        let result = self.inner.synthesize_cached(problem, budget, rng, cache);
        if let Some(solution) = &result.solution {
            if !problem.spec.is_satisfied_by(solution) {
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }
}

/// The NetSyn configuration of a workload, as `netsyn_bench::build_methods`
/// builds it, plus `GaConfig.islands` for `edit_islands`.
fn netsyn_config(workload: Workload, program_length: usize) -> NetSynConfig {
    match workload {
        Workload::CfCold | Workload::CfWarm => {
            NetSynConfig::paper_defaults(FitnessChoice::NeuralCommonFunctions, program_length)
        }
        Workload::EditIslands => {
            let mut config =
                NetSynConfig::paper_defaults(FitnessChoice::EditDistance, program_length);
            config.ga.mutation_mode = MutationMode::UniformRandom;
            config.ga.islands = EDIT_ISLANDS;
            config
        }
    }
}

/// A cache directory one cf_cold call filled, and that call's digest.
struct Snapshot {
    dir: PathBuf,
    digest: u64,
}

/// Everything set-up produces.
struct Prepared {
    suite: TestSuite,
    bundle: Arc<ModelBundle>,
    /// Populated cache directories, one per search (`cf_warm` only).
    snapshots: Vec<Snapshot>,
    setup_s: f64,
    train_s: f64,
    suite_s: f64,
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Scratch directories for one invocation, removed on drop.
struct WorkDir {
    root: PathBuf,
    next: AtomicUsize,
}

impl WorkDir {
    fn create(base: &Path) -> Result<WorkDir, String> {
        let root = base.join(format!("run-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        Ok(WorkDir {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// A new, empty directory.
    fn fresh(&self, label: &str) -> Result<PathBuf, String> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// A new directory holding a copy of `snapshot`'s files, synced so no
    /// write-back of the copy overlaps the timed call.
    fn restore(&self, snapshot: &Path) -> Result<PathBuf, String> {
        let dir = self.fresh("warm")?;
        let entries =
            std::fs::read_dir(snapshot).map_err(|e| format!("{}: {e}", snapshot.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            if entry.file_type().map_err(|e| e.to_string())?.is_file() {
                let target = dir.join(entry.file_name());
                std::fs::copy(entry.path(), &target)
                    .and_then(|_| std::fs::File::open(&target)?.sync_all())
                    .map_err(|e| format!("{}: {e}", entry.path().display()))?;
            }
        }
        Ok(dir)
    }

    fn discard(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds when no other invocation is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total size of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Points the harness at `dir` (or at no durable cache).
fn set_cache_dir(dir: Option<&Path>) {
    match dir {
        Some(dir) => std::env::set_var(CACHE_DIR_ENV, dir),
        None => std::env::remove_var(CACHE_DIR_ENV),
    }
}

/// The suite the fig4 binaries evaluate at this seed.
fn generate_suite(scale: &Scale, seed: u64) -> TestSuite {
    let config = HarnessConfig {
        lengths: vec![scale.program_length],
        tasks_per_kind: scale.tasks_per_kind,
        runs_per_task: scale.runs_per_task,
        budget_cap: scale.cf_cap,
        seed,
        full: false,
        table: false,
    };
    netsyn_bench::generate_suite(&config, scale.program_length)
}

fn train_bundle(scale: &Scale) -> Result<ModelBundle, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(BUNDLE_SEED ^ 0xB0BA);
    ModelBundle::train(&scale.bundle, &mut rng).map_err(|e| format!("bundle training: {e}"))
}

fn cf_fingerprint(bundle: &ModelBundle) -> u64 {
    bundle.cf.net.clone().weight_fingerprint()
}

/// The measured method: `NetSyn` as users run it, behind a solution check.
fn checked_method<'a>(
    workload: Workload,
    scale: &Scale,
    bundle: Option<&'a Arc<ModelBundle>>,
    rejected: &'a Arc<AtomicUsize>,
) -> MethodSpec<'a> {
    let config = netsyn_config(workload, scale.program_length);
    MethodSpec::new(config.fitness.label(), move |_task: &SynthesisTask| {
        Box::new(Checked {
            inner: NetSyn::new(config.clone(), bundle.map(Arc::clone)),
            rejected: Arc::clone(rejected),
        }) as Box<dyn Synthesizer>
    })
}

/// One timed harness call.
struct Call {
    /// Index of the search (see [`search_seed`]) the call ran.
    search: usize,
    evaluation: MethodEvaluation,
    wall_s: f64,
    peak_rss_mb: f64,
}

fn setup(workload: Workload, scale: &Scale, seed: u64, work: &WorkDir) -> Result<Prepared, String> {
    let mut setup_times = Vec::new();
    let mut train_times = Vec::new();
    let mut suite_times = Vec::new();
    let mut built: Option<(TestSuite, Arc<ModelBundle>, u64)> = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let suite = generate_suite(scale, SUITE_SEED);
        let suite_s = start.elapsed().as_secs_f64();
        let bundle = train_bundle(scale)?;
        setup_times.push(start.elapsed().as_secs_f64());
        suite_times.push(suite_s);
        train_times.push(setup_times.last().expect("just pushed") - suite_s);
        let fingerprint = cf_fingerprint(&bundle);
        // Set-up must be deterministic: same suite, same weights.
        if let Some((previous_suite, _, previous_fingerprint)) = &built {
            if previous_suite
                .tasks
                .iter()
                .map(|t| &t.spec)
                .ne(suite.tasks.iter().map(|t| &t.spec))
            {
                return Err("suite generation is not deterministic".into());
            }
            if *previous_fingerprint != fingerprint {
                return Err("bundle training is not deterministic".into());
            }
        }
        built = Some((suite, Arc::new(bundle), fingerprint));
    }
    let (suite, bundle, fingerprint) = built.expect("at least one set-up repeat");
    println!("bundle: cf weight_fingerprint {fingerprint:016x}");
    let mut setup_s = median(&setup_times);
    let mut snapshots = Vec::new();
    if workload == Workload::CfWarm {
        // One cf_cold call per search fills the snapshot its timed calls
        // restore.
        let start = Instant::now();
        let rejected = Arc::new(AtomicUsize::new(0));
        let method = checked_method(workload, scale, Some(&bundle), &rejected);
        for search in 0..WARM_SEARCHES {
            let dir = work.fresh("snapshot")?;
            set_cache_dir(Some(&dir));
            let evaluation = evaluate_method(
                &method,
                &suite,
                scale.cf_cap,
                scale.runs_per_task,
                search_seed(seed, search),
            );
            set_cache_dir(None);
            snapshots.push(Snapshot {
                dir,
                digest: digest(&evaluation.records),
            });
        }
        if rejected.load(Ordering::Relaxed) > 0 {
            return Err("populate call returned a solution that fails its spec".into());
        }
        setup_s += start.elapsed().as_secs_f64();
    }
    Ok(Prepared {
        suite,
        bundle,
        snapshots,
        setup_s,
        train_s: median(&train_times),
        suite_s: median(&suite_times),
    })
}

/// GA base seed of a run's `search`-th distinct search: `--seed` itself
/// first, then a splitmix64 stream, so nearby seeds share no search.
fn search_seed(seed: u64, search: usize) -> u64 {
    if search == 0 {
        return seed;
    }
    let mut z = seed ^ (search as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cache directory for one call, prepared outside the timed region.
fn cache_dir_for(
    workload: Workload,
    prepared: &Prepared,
    work: &WorkDir,
    search: usize,
) -> Result<Option<PathBuf>, String> {
    match workload {
        Workload::CfCold => work.fresh("cold").map(Some),
        Workload::CfWarm => work.restore(&prepared.snapshots[search].dir).map(Some),
        Workload::EditIslands => Ok(None),
    }
}

fn run(args: Args, scale: &Scale, base: &Path) -> Result<Outcome, String> {
    let workload = args.workload;
    let work = WorkDir::create(base)?;
    let prepared = setup(workload, scale, args.seed, &work)?;
    let cap = scale.budget_cap(workload);
    let rejected = Arc::new(AtomicUsize::new(0));
    let bundle = workload.uses_model().then_some(&prepared.bundle);
    let method = checked_method(workload, scale, bundle, &rejected);
    let call = |search: usize| -> Result<Call, String> {
        let dir = cache_dir_for(workload, &prepared, &work, search)?;
        set_cache_dir(dir.as_deref());
        reset_peak_rss();
        let start = Instant::now();
        let evaluation = evaluate_method(
            &method,
            &prepared.suite,
            cap,
            scale.runs_per_task,
            search_seed(args.seed, search),
        );
        let wall_s = start.elapsed().as_secs_f64();
        let peak_rss_mb = peak_rss_mb();
        set_cache_dir(None);
        if let Some(dir) = &dir {
            WorkDir::discard(dir);
        }
        Ok(Call {
            search,
            evaluation,
            wall_s,
            peak_rss_mb,
        })
    };

    // Cold and edit calls each run a fresh search, and the first search is
    // repeated at the end; warm calls cycle through the populated searches.
    let mut calls: Vec<Call> = Vec::new();
    let measure_start = Instant::now();
    while calls.len() < MIN_CALLS || measure_start.elapsed().as_secs_f64() < args.seconds {
        let search = match workload {
            Workload::CfWarm => calls.len() % WARM_SEARCHES,
            Workload::CfCold | Workload::EditIslands => calls.len(),
        };
        calls.push(call(search)?);
    }
    if workload != Workload::CfWarm {
        calls.push(call(0)?);
    }
    if rejected.load(Ordering::Relaxed) > 0 {
        return Err("a returned solution does not satisfy its spec".into());
    }
    // Every call of one search must reproduce the same records, and a warm
    // call the cold call that populated its snapshot.
    let mut digests: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, c) in calls.iter().enumerate() {
        let expected = *digests.entry(c.search).or_insert_with(|| {
            prepared
                .snapshots
                .get(c.search)
                .map_or_else(|| digest(&c.evaluation.records), |s| s.digest)
        });
        check_digest(&format!("call {i}"), &c.evaluation.records, expected)?;
    }
    let first = &calls[0].evaluation;
    println!(
        "digest: first search {:016x}; {} searches of {} attempts checked over {} timed calls",
        digests[&0],
        digests.len(),
        first.records.len(),
        calls.len()
    );
    let walls: Vec<String> = calls.iter().map(|c| format!("{:.3}", c.wall_s)).collect();
    println!("call wall_s: {}", walls.join(" "));
    let (tasks_solved, unsolved_share) = solve_summary(first);
    println!(
        "first search: {tasks_solved} of {} tasks solved; unsolved share {unsolved_share:.3}",
        prepared.suite.tasks.len(),
    );
    let attempted = calls.iter().map(|c| c.evaluation.records.len()).sum();
    let wall_s = median(&calls.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let attempt_times: Vec<f64> = calls
        .iter()
        .flat_map(|c| c.evaluation.records.iter().map(|r| r.wall_time_secs))
        .collect();
    let attempt_p50_s = median(&attempt_times);
    println!(
        "attempt wall_s: median {attempt_p50_s:.4} over {} attempts",
        attempt_times.len()
    );
    let metrics = if args.trace {
        let untraced = Untraced {
            digest: digests[&0],
            wall_s,
            attempt_p50_s,
        };
        traced_metrics(workload, scale, args.seed, &prepared, &work, &untraced)?
    } else {
        end_to_end_metrics(&prepared, &calls, wall_s)
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} measured {}", m.name, m.value));
    }
    Ok(Outcome { attempted, metrics })
}

fn end_to_end_metrics(prepared: &Prepared, calls: &[Call], wall_s: f64) -> Vec<Metric> {
    let per_call = |f: &dyn Fn(&Call) -> f64| median(&calls.iter().map(f).collect::<Vec<_>>());
    vec![
        metric("setup_s", prepared.setup_s, "s"),
        metric("wall_s", wall_s, "s"),
        metric(
            "cands_per_s",
            per_call(&|c| candidates(&c.evaluation) as f64 / c.wall_s),
            "1/s",
        ),
        metric("peak_rss_mb", per_call(&|c| c.peak_rss_mb), "MB"),
    ]
}

fn candidates(evaluation: &MethodEvaluation) -> usize {
    evaluation
        .records
        .iter()
        .map(|r| r.candidates_evaluated)
        .sum()
}

/// `(tasks solved in at least one run, failed attempts / attempts)`.
fn solve_summary(evaluation: &MethodEvaluation) -> (usize, f64) {
    let solved = evaluation
        .per_task_synthesized()
        .iter()
        .filter(|&&s| s)
        .count();
    let unsolved = evaluation.records.iter().filter(|r| !r.success).count();
    (
        solved,
        unsolved as f64 / evaluation.records.len().max(1) as f64,
    )
}

/// What the untraced calls of search 0 and of the whole run measured.
struct Untraced {
    /// Digest of search 0, which the traced call repeats.
    digest: u64,
    /// Median wall time of a call.
    wall_s: f64,
    /// Median attempt wall time over every attempt of every call.
    attempt_p50_s: f64,
}

/// The separate traced call and the per-layer split it yields.
fn traced_metrics(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    prepared: &Prepared,
    work: &WorkDir,
    untraced: &Untraced,
) -> Result<Vec<Metric>, String> {
    let reference = untraced.digest;
    let cap = scale.budget_cap(workload);
    let config = netsyn_config(workload, scale.program_length);
    let tracer = Arc::new(Tracer::new());
    let suite = &prepared.suite;
    let method = MethodSpec::new(config.fitness.label(), |task: &SynthesisTask| {
        let index = suite
            .tasks
            .iter()
            .position(|t| std::ptr::eq(t, task))
            .expect("the harness passes tasks of the suite");
        Box::new(TracedNetSyn::new(
            config.clone(),
            workload.uses_model().then(|| Arc::clone(&prepared.bundle)),
            index,
            Arc::clone(&tracer),
        )) as Box<dyn Synthesizer>
    });

    let dir = cache_dir_for(workload, prepared, work, 0)?;
    let loaded_entries = match (&dir, workload) {
        (Some(dir), Workload::CfWarm) => {
            // Open a throwaway copy: the load report of the restored state.
            let copy = work.restore(dir)?;
            let cache = FitnessCache::durable(&copy).map_err(|e| e.to_string())?;
            let loaded = cache
                .load_report()
                .map_or(0, |r| r.score_entries + r.trace_entries);
            drop(cache);
            WorkDir::discard(&copy);
            loaded
        }
        _ => 0,
    };
    let bytes_before = dir.as_deref().map_or(0, dir_bytes);
    set_cache_dir(dir.as_deref());
    let start = Instant::now();
    let evaluation = {
        let _span = tracer.enter(Layer::Harness, None);
        evaluate_method(&method, suite, cap, scale.runs_per_task, seed)
    };
    let traced_wall_s = start.elapsed().as_secs_f64();
    set_cache_dir(None);
    let bytes_written = dir
        .as_deref()
        .map_or(0, dir_bytes)
        .saturating_sub(bytes_before);
    if let Some(dir) = &dir {
        WorkDir::discard(dir);
    }
    drop(method);

    check_digest("traced call", &evaluation.records, reference)?;
    let attempts = tracer.attempts();
    if attempts.len() != evaluation.records.len() {
        return Err("traced call missed attempts".into());
    }
    if attempts.iter().any(|a| !a.verified) {
        return Err("traced call returned a solution that fails its spec".into());
    }
    let run_of = match_runs(&attempts, &evaluation.records)?;
    println!("traced call reproduces digest {reference:016x}; every solution verified");

    let spans = tracer.spans();
    let spans_path = work
        .root
        .with_file_name(format!("spans-{}-seed{seed}.tsv", workload.name()));
    write_spans(&spans_path, &spans, &attempts, &run_of)?;
    println!("spans: {} written to {}", spans.len(), spans_path.display());
    let self_of = |layer: Layer| -> f64 {
        spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold(0.0, |sum, s| sum + s.self_s)
    };
    let harness = spans
        .iter()
        .find(|s| s.layer == Layer::Harness)
        .ok_or("harness span missing")?;
    let attempt_spans = || spans.iter().filter(|s| s.layer == Layer::Attempt);
    let first_start = attempt_spans()
        .map(|s| s.start_s)
        .fold(f64::INFINITY, f64::min);
    let last_end = attempt_spans()
        .map(|s| s.end_s)
        .fold(f64::NEG_INFINITY, f64::max);
    let open_s = (first_start - harness.start_s).max(0.0);
    let final_flush_s = (harness.end_s - last_end).max(0.0);

    // Busy time summed over threads: each span's self time, plus the
    // harness's own work before the first and after the last attempt.
    let layers = [
        ("ga", self_of(Layer::Ga)),
        ("nn", self_of(Layer::Nn)),
        ("encoding", self_of(Layer::Encoding)),
        ("edit", self_of(Layer::Edit)),
        ("fp_map", self_of(Layer::FpMap)),
        ("fitness", self_of(Layer::Fitness)),
        ("attempt", self_of(Layer::Attempt)),
        ("persist", open_s + final_flush_s),
    ];
    let busy: f64 = layers.iter().map(|(_, s)| s).sum();
    println!("layer            self_s     share   (busy {busy:.3} s summed over threads)");
    for (name, self_s) in &layers {
        println!("{name:<14} {self_s:>9.4} {:>8.1}%", 100.0 * self_s / busy);
    }
    let share = |i: usize| layers[i].1 / busy;

    let c = &tracer.counters;
    let count = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed) as f64;
    let lookups = candidates(&evaluation);
    let (tasks_solved, unsolved_share) = solve_summary(&evaluation);
    let misses = count(&c.fitness_rows);
    let nn_calls = count(&c.nn_calls);
    let nn_rows = count(&c.nn_rows);
    let (trace_entries, trace_encodes) = tracer.trace_shard_totals();
    let generations: usize = attempts.iter().map(|a| a.generations).sum();
    let by_neighborhood = attempts.iter().filter(|a| a.by_neighborhood).count();
    let overhead = traced_wall_s / untraced.wall_s;
    println!(
        "tracing overhead: traced wall {traced_wall_s:.3} s / untraced median {:.3} s = {overhead:.3}",
        untraced.wall_s
    );
    Ok(vec![
        metric("nn.busy_s", self_of(Layer::Nn), "s"),
        metric("nn.calls", nn_calls, "count"),
        metric("nn.rows", nn_rows, "count"),
        metric(
            "nn.rows_per_call",
            if nn_calls > 0.0 {
                nn_rows / nn_calls
            } else {
                0.0
            },
            "count",
        ),
        metric("fp_map.busy_s", self_of(Layer::FpMap), "s"),
        metric("fp_map.calls", count(&c.fp_map_calls), "count"),
        metric("encoding.busy_s", self_of(Layer::Encoding), "s"),
        metric("encoding.candidates", count(&c.encoded_candidates), "count"),
        metric("encoding.steps", count(&c.encoded_steps), "count"),
        metric("trace_cache.entries", trace_entries as f64, "count"),
        metric("trace_cache.encodes", trace_encodes as f64, "count"),
        metric("score_cache.lookups", lookups as f64, "count"),
        metric("score_cache.misses", misses, "count"),
        metric(
            "score_cache.hit_ratio",
            if lookups > 0 {
                1.0 - misses / lookups as f64
            } else {
                0.0
            },
            "ratio",
        ),
        metric("edit.busy_s", self_of(Layer::Edit), "s"),
        metric("edit.candidates", count(&c.edit_candidates), "count"),
        metric("ga.self_s", self_of(Layer::Ga), "s"),
        metric("ga.generations", generations as f64, "count"),
        metric("ga.solved_by_neighborhood", by_neighborhood as f64, "count"),
        metric("persist.open_s", open_s, "s"),
        metric("persist.final_flush_s", final_flush_s, "s"),
        metric("persist.loaded_entries", loaded_entries as f64, "count"),
        metric("persist.bytes_written", bytes_written as f64, "bytes"),
        metric("harness.attempt_p50_s", untraced.attempt_p50_s, "s"),
        metric("harness.tasks_solved", tasks_solved as f64, "count"),
        metric("harness.unsolved_share", unsolved_share, "ratio"),
        metric("setup.train_s", prepared.train_s, "s"),
        metric("setup.suite_s", prepared.suite_s, "s"),
        metric("share.ga", share(0), "ratio"),
        metric("share.nn", share(1), "ratio"),
        metric("share.encoding", share(2), "ratio"),
        metric("share.edit", share(3), "ratio"),
        metric("share.fp_map", share(4), "ratio"),
        metric("share.fitness", share(5), "ratio"),
        metric("share.attempt", share(6), "ratio"),
        metric("share.persist", share(7), "ratio"),
        metric("trace.overhead", overhead, "ratio"),
    ])
}

/// The run index of every traced attempt. Each attempt must match a record
/// of its task; runs of one task are told apart by their outcome, and runs
/// with identical outcomes are interchangeable.
fn match_runs(
    attempts: &[trace::AttemptMeta],
    records: &[RunRecord],
) -> Result<Vec<usize>, String> {
    let mut unmatched: Vec<&RunRecord> = records.iter().collect();
    attempts
        .iter()
        .map(|a| {
            let position = unmatched.iter().position(|r| {
                r.task_index == a.task
                    && r.success == a.success
                    && r.candidates_evaluated == a.candidates
                    && r.generations == Some(a.generations)
            });
            position
                .map(|p| unmatched.swap_remove(p).run_index)
                .ok_or_else(|| format!("traced attempt of task {} matches no record", a.task))
        })
        .collect()
}

/// Writes every span, one per line, identified by its attempt's
/// `(task, run)`; the harness span has neither.
fn write_spans(
    path: &Path,
    spans: &[trace::Span],
    attempts: &[trace::AttemptMeta],
    run_of: &[usize],
) -> Result<(), String> {
    let mut out = String::from("layer\ttask\trun\tstart_s\tend_s\tself_s\n");
    for span in spans {
        let (task, run) = span.attempt.map_or((String::new(), String::new()), |a| {
            (attempts[a].task.to_string(), run_of[a].to_string())
        });
        let _ = writeln!(
            out,
            "{}\t{task}\t{run}\t{:.6}\t{:.6}\t{:.6}",
            span.layer.name(),
            span.start_s,
            span.end_s,
            span.self_s
        );
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Resets the kernel's peak-RSS mark for this process (`VmHWM`).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the last reset, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" pool_threads={} simd={:?} commit={}",
        rayon::current_num_threads(),
        netsyn_nn::simd::simd_mode(),
        git_commit()
    )
}

fn result_json(outcome: &Outcome) -> String {
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
        outcome.attempted
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    json
}

/// Pins the pool and clears every variable that would change what runs.
fn pin_environment() {
    std::env::set_var("NETSYN_POOL_THREADS", POOL_THREADS.to_string());
    for var in [
        "NETSYN_ISLANDS",
        FLUSH_EVERY_ENV,
        CACHE_DIR_ENV,
        "NETSYN_SIMD",
    ] {
        std::env::remove_var(var);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("e2ebench: {err}");
            eprintln!(
                "usage: e2ebench --workload <cf_cold|cf_warm|edit_islands> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    pin_environment();
    println!("{}", host_record());
    println!(
        "workload: {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    match run(args, &Scale::fig4(), Path::new(WORK_DIR)) {
        Ok(outcome) => {
            for m in &outcome.metrics {
                println!("metric {} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(&outcome));
        }
        Err(err) => {
            eprintln!("e2ebench: FAILED: {err}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    /// Length-2 suite, tiny bundle, small caps: seconds per workload.
    fn tiny() -> Scale {
        Scale {
            program_length: 2,
            tasks_per_kind: 2,
            runs_per_task: 2,
            cf_cap: 300,
            edit_cap: 3_000,
            bundle: BundleTrainingConfig::tiny(2),
        }
    }

    #[derive(Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct DeclaredWorkload {
        name: String,
    }

    #[derive(Deserialize)]
    struct Benchmark {
        workloads: Vec<DeclaredWorkload>,
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    fn declared() -> Benchmark {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn assert_prints_exactly(outcome: &Outcome, declared: &[Declared], what: &str) {
        let json = result_json(outcome);
        assert_eq!(outcome.metrics.len(), declared.len(), "{what}: {json}");
        for d in declared {
            let needle = format!("\"{}\": {{\"value\": ", d.name);
            let found = outcome.metrics.iter().find(|m| m.name == d.name);
            let m = found.unwrap_or_else(|| panic!("{what}: {} missing from {json}", d.name));
            assert_eq!(m.unit, d.unit, "{what}: unit of {}", d.name);
            assert!(m.value.is_finite(), "{what}: {} = {}", d.name, m.value);
            assert!(json.contains(&needle), "{what}: {needle} not in {json}");
        }
    }

    #[test]
    fn every_workload_prints_every_metric_with_its_unit() {
        pin_environment();
        let benchmark = declared();
        let names: Vec<&str> = benchmark
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        let base = std::env::temp_dir().join(format!("e2ebench-selftest-{}", std::process::id()));
        for workload in Workload::ALL {
            for trace in [false, true] {
                let args = Args {
                    workload,
                    seed: 3,
                    seconds: 0.01,
                    trace,
                };
                let outcome = run(args, &tiny(), &base)
                    .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                let per_call = 4 * tiny().runs_per_task;
                assert_eq!(outcome.attempted % per_call, 0);
                assert!(outcome.attempted >= MIN_CALLS * per_call);
                let declared = if trace {
                    &benchmark.per_layer
                } else {
                    &benchmark.end_to_end
                };
                assert_prints_exactly(&outcome, declared, workload.name());
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    fn record(task: usize, run: usize, success: bool, candidates: usize) -> RunRecord {
        RunRecord {
            task_index: task,
            run_index: run,
            success,
            candidates_evaluated: candidates,
            wall_time_secs: 0.5,
            generations: Some(candidates / 100),
        }
    }

    #[test]
    fn a_perturbed_record_trips_the_digest_check() {
        let records = vec![
            record(0, 0, true, 1_200),
            record(0, 1, false, 4_000),
            record(1, 0, false, 4_000),
            record(1, 1, true, 800),
        ];
        let reference = digest(&records);
        // Order and wall time are not part of the digest.
        let mut reordered = records.clone();
        reordered.reverse();
        reordered[0].wall_time_secs = 9.0;
        assert!(check_digest("reordered", &reordered, reference).is_ok());
        let perturbations: [fn(&mut RunRecord); 5] = [
            |r| r.success = !r.success,
            |r| r.candidates_evaluated += 1,
            |r| r.generations = r.generations.map(|g| g + 1),
            |r| r.generations = None,
            |r| r.run_index += 2,
        ];
        for (i, perturb) in perturbations.iter().enumerate() {
            let mut bad = records.clone();
            perturb(&mut bad[2]);
            assert!(
                check_digest("perturbed", &bad, reference).is_err(),
                "perturbation {i} kept the digest"
            );
        }
    }

    #[test]
    fn bad_command_lines_are_refused() {
        let parse = |line: &str| {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            parse_args(&argv)
        };
        assert!(parse("--workload cf_cold --seed 1 --seconds 10 --trace 0").is_ok());
        for bad in [
            "--workload cf_hot --seed 1 --seconds 10 --trace 0",
            "--workload cf_cold --seed -1 --seconds 10 --trace 0",
            "--workload cf_cold --seed 1 --seconds 0 --trace 0",
            "--workload cf_cold --seed 1 --seconds 10 --trace 2",
            "--workload cf_cold --seed 1 --seconds 10",
            "--workload cf_cold --seed 1 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
