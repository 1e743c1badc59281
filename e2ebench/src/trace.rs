//! The traced run: an in-memory span recorder plus a synthesizer and two
//! fitness wrappers that time calls into each layer's public functions.
//!
//! Nothing here reaches inside the library crates. [`TracedNetSyn`] rebuilds
//! what `netsyn_core::NetSyn` does per attempt (engine, FP mutation map,
//! fitness) from public APIs, and [`TracedLearned`] re-expresses
//! `LearnedFitness::score_batch_cached` as its two public halves,
//! `encode_candidates` and `FitnessNet::predict_batch_with`, so the traced
//! run reproduces the untraced records exactly (the digest check proves it).
//!
//! Time is attributed per thread to the innermost open span: a span's self
//! time is the part of its interval during which it was the top of its
//! thread's span stack. A pool thread that steals another attempt's job
//! while waiting inside a span pushes that job's spans on top, so stolen
//! work is charged to the layer that did it, not to the waiting span.

use netsyn_baselines::{SynthesisProblem, SynthesisResult, Synthesizer};
use netsyn_core::{FitnessChoice, ModelBundle, NetSynConfig};
use netsyn_dsl::{IoSpec, Program};
use netsyn_fitness::encoding::{encode_candidates, SpecEncodingCache, TraceEncodingCache};
use netsyn_fitness::{
    EditDistanceFitness, FitnessCache, FitnessFunction, LearnedFitness, LearnedProbabilityModel,
    ProbabilityMap,
};
use netsyn_ga::{GeneticEngine, MutationMode, SearchBudget};
use rand::RngCore;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The layers a span can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `evaluate_method` as a whole (durable open, fan-out, final flush).
    Harness,
    /// One `(task, run)` attempt: engine and fitness construction.
    Attempt,
    /// `GeneticEngine::synthesize_with_cache` minus its fitness children:
    /// islands, operators, neighborhood search, score-cache lookups.
    Ga,
    /// `FitnessFunction::score_batch_cached` glue (spec encoding, readout).
    Fitness,
    /// `encode_candidates`, including the interpreter trace runs.
    Encoding,
    /// `FitnessNet::predict_batch_with`.
    Nn,
    /// `LearnedProbabilityModel::probability_map`.
    FpMap,
    /// `EditDistanceFitness` scoring, including the interpreter.
    Edit,
}

impl Layer {
    /// Span name as printed in the report.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Attempt => "attempt",
            Layer::Ga => "ga.synthesize",
            Layer::Fitness => "fitness.score_batch",
            Layer::Encoding => "encoding",
            Layer::Nn => "nn",
            Layer::FpMap => "fp_map",
            Layer::Edit => "edit",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer of the span.
    pub layer: Layer,
    /// Attempt sequence number (see [`AttemptMeta`]); `None` for the harness.
    pub attempt: Option<usize>,
    /// Start, seconds since the tracer's origin.
    pub start_s: f64,
    /// End, seconds since the tracer's origin.
    pub end_s: f64,
    /// Time this span was the innermost open span of its thread.
    pub self_s: f64,
}

/// What one traced attempt produced.
#[derive(Debug, Clone)]
pub struct AttemptMeta {
    /// Index of the task in the suite.
    pub task: usize,
    /// Whether a solution was found.
    pub success: bool,
    /// Candidates the attempt evaluated.
    pub candidates: usize,
    /// GA generations.
    pub generations: usize,
    /// Whether the neighborhood search found the solution.
    pub by_neighborhood: bool,
    /// `false` when a returned solution does not satisfy the spec.
    pub verified: bool,
}

/// Counters recorded at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counters {
    /// `predict_batch_with` calls.
    pub nn_calls: AtomicU64,
    /// Candidate rows through the network.
    pub nn_rows: AtomicU64,
    /// Candidates encoded.
    pub encoded_candidates: AtomicU64,
    /// Encoded trace steps.
    pub encoded_steps: AtomicU64,
    /// Candidates scored by the edit-distance fitness.
    pub edit_candidates: AtomicU64,
    /// `probability_map` calls.
    pub fp_map_calls: AtomicU64,
    /// Candidates that reached a fitness function (score-cache misses).
    pub fitness_rows: AtomicU64,
}

fn add(counter: &AtomicU64, n: usize) {
    counter.fetch_add(n as u64, Ordering::Relaxed);
}

/// Collects spans, counters and attempt outcomes for one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    attempts: Mutex<Vec<AttemptMeta>>,
    /// Trace-encoding shards seen, keyed by address: `(entries, encodes)`.
    trace_shards: Mutex<BTreeMap<usize, (usize, usize)>>,
    /// The counters.
    pub counters: Counters,
}

struct OpenSpan {
    layer: Layer,
    attempt: Option<usize>,
    start: Instant,
    resumed: Instant,
    self_time: Duration,
}

thread_local! {
    static STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    depth: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = Instant::now();
        let open = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(stack.len(), self.depth, "spans close in LIFO order");
            let mut open = stack.pop().expect("an open span per guard");
            open.self_time += now - open.resumed;
            if let Some(parent) = stack.last_mut() {
                parent.resumed = now;
            }
            open
        });
        let span = Span {
            layer: open.layer,
            attempt: open.attempt,
            start_s: (open.start - self.tracer.origin).as_secs_f64(),
            end_s: (now - self.tracer.origin).as_secs_f64(),
            self_s: open.self_time.as_secs_f64(),
        };
        lock(&self.tracer.spans).push(span);
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // Every update is a single push or insert, so the data stays valid even
    // if a panicking thread held the lock.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            attempts: Mutex::new(Vec::new()),
            trace_shards: Mutex::new(BTreeMap::new()),
            counters: Counters::default(),
        }
    }

    /// Opens a span on the calling thread.
    pub fn enter(&self, layer: Layer, attempt: Option<usize>) -> SpanGuard<'_> {
        let now = Instant::now();
        let depth = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(parent) = stack.last_mut() {
                parent.self_time += now - parent.resumed;
            }
            stack.push(OpenSpan {
                layer,
                attempt,
                start: now,
                resumed: now,
                self_time: Duration::ZERO,
            });
            stack.len()
        });
        SpanGuard {
            tracer: self,
            depth,
        }
    }

    fn begin_attempt(&self, task: usize) -> usize {
        let mut attempts = lock(&self.attempts);
        attempts.push(AttemptMeta {
            task,
            success: false,
            candidates: 0,
            generations: 0,
            by_neighborhood: false,
            verified: true,
        });
        attempts.len() - 1
    }

    fn finish_attempt(&self, id: usize, meta: AttemptMeta) {
        lock(&self.attempts)[id] = meta;
    }

    fn note_trace_shard(&self, shard: &TraceEncodingCache) {
        let key = std::ptr::from_ref(shard) as usize;
        let now = (shard.len(), shard.encode_count());
        let mut shards = lock(&self.trace_shards);
        let entry = shards.entry(key).or_insert(now);
        *entry = (entry.0.max(now.0), entry.1.max(now.1));
    }

    /// Every finished span.
    pub fn spans(&self) -> Vec<Span> {
        lock(&self.spans).clone()
    }

    /// Every attempt, indexed by sequence number.
    pub fn attempts(&self) -> Vec<AttemptMeta> {
        lock(&self.attempts).clone()
    }

    /// Summed `(entries, encodes)` over every trace-encoding shard seen.
    pub fn trace_shard_totals(&self) -> (usize, usize) {
        lock(&self.trace_shards)
            .values()
            .fold((0, 0), |acc, &(e, n)| (acc.0 + e, acc.1 + n))
    }
}

/// `NetSyn` for the CF and edit-distance choices, with a span around each
/// layer it calls into. Built per task by the traced run's `MethodSpec`.
pub struct TracedNetSyn {
    config: NetSynConfig,
    bundle: Option<Arc<ModelBundle>>,
    task: usize,
    tracer: Arc<Tracer>,
}

impl TracedNetSyn {
    /// A traced synthesizer for the task at index `task` of the suite.
    ///
    /// # Panics
    ///
    /// Panics on a fitness choice other than learned CF or edit distance,
    /// or on learned CF without a bundle.
    pub fn new(
        config: NetSynConfig,
        bundle: Option<Arc<ModelBundle>>,
        task: usize,
        tracer: Arc<Tracer>,
    ) -> Self {
        assert!(
            matches!(
                config.fitness,
                FitnessChoice::NeuralCommonFunctions | FitnessChoice::EditDistance
            ),
            "the traced run covers NetSyn_CF and Edit only"
        );
        assert!(
            config.fitness == FitnessChoice::EditDistance || bundle.is_some(),
            "NetSyn_CF needs a model bundle"
        );
        TracedNetSyn {
            config,
            bundle,
            task,
            tracer,
        }
    }

    /// Mirrors `NetSyn::build_fitness` for the two supported choices.
    fn build_fitness(&self, spec: &IoSpec, attempt: usize) -> Box<dyn FitnessFunction> {
        let Some(bundle) = self
            .bundle
            .as_ref()
            .filter(|_| self.config.fitness == FitnessChoice::NeuralCommonFunctions)
        else {
            return Box::new(TracedEdit {
                tracer: Arc::clone(&self.tracer),
                attempt,
            });
        };
        let mut fitness = LearnedFitness::new(bundle.cf.clone());
        if self.config.ga.mutation_mode == MutationMode::ProbabilityGuided {
            let map: ProbabilityMap = {
                let _span = self.tracer.enter(Layer::FpMap, Some(attempt));
                LearnedProbabilityModel::new(bundle.fp.clone()).probability_map(spec)
            };
            add(&self.tracer.counters.fp_map_calls, 1);
            fitness = fitness.with_mutation_map(map);
        }
        Box::new(TracedLearned {
            inner: fitness,
            spec_cache: SpecEncodingCache::new(),
            tracer: Arc::clone(&self.tracer),
            attempt,
        })
    }
}

impl Synthesizer for TracedNetSyn {
    fn name(&self) -> &str {
        self.config.fitness.label()
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
        let attempt = self.tracer.begin_attempt(self.task);
        let _span = self.tracer.enter(Layer::Attempt, Some(attempt));
        let mut ga_config = self.config.ga.clone();
        ga_config.program_length = problem.target_length;
        ga_config.domain = problem.domain;
        let engine = GeneticEngine::new(ga_config);
        let fitness = self.build_fitness(&problem.spec, attempt);
        let outcome = {
            let _span = self.tracer.enter(Layer::Ga, Some(attempt));
            engine.synthesize_with_cache(&problem.spec, fitness.as_ref(), budget, rng, cache)
        };
        let verified = outcome
            .solution
            .as_ref()
            .is_none_or(|solution| problem.spec.is_satisfied_by(solution));
        self.tracer.finish_attempt(
            attempt,
            AttemptMeta {
                task: self.task,
                success: outcome.solution.is_some(),
                candidates: outcome.candidates_evaluated,
                generations: outcome.generations,
                by_neighborhood: outcome.found_by_neighborhood,
                verified,
            },
        );
        SynthesisResult {
            solution: outcome.solution,
            candidates_evaluated: outcome.candidates_evaluated,
            generations: Some(outcome.generations),
        }
    }
}

/// `LearnedFitness` with its batched path split into the encoding and NN
/// layers. Everything but `score_batch_cached` delegates to the wrapped
/// fitness, so names, cache keys and the mutation map are unchanged.
struct TracedLearned {
    inner: LearnedFitness,
    spec_cache: SpecEncodingCache,
    tracer: Arc<Tracer>,
    attempt: usize,
}

/// The expected class value under the softmax of `logits`, the readout
/// `LearnedFitness` applies to every logit row.
fn expected_class_value(logits: &[f32]) -> f64 {
    netsyn_nn::activation::softmax(logits)
        .iter()
        .enumerate()
        .map(|(class, &p)| class as f64 * f64::from(p))
        .sum()
}

impl FitnessFunction for TracedLearned {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn score(&self, candidate: &Program, spec: &IoSpec) -> f64 {
        self.inner.score(candidate, spec)
    }

    fn score_batch(&self, candidates: &[Program], spec: &IoSpec) -> Vec<f64> {
        self.inner.score_batch(candidates, spec)
    }

    fn score_batch_cached(
        &self,
        candidates: &[Program],
        spec: &IoSpec,
        traces: &TraceEncodingCache,
    ) -> Vec<f64> {
        let attempt = Some(self.attempt);
        let counters = &self.tracer.counters;
        let _span = self.tracer.enter(Layer::Fitness, attempt);
        add(&counters.fitness_rows, candidates.len());
        let net = &self.inner.model().net;
        let spec_encoding = self.spec_cache.get_or_encode(net.encoding(), spec);
        let encoded = {
            let _span = self.tracer.enter(Layer::Encoding, attempt);
            encode_candidates(net.encoding(), spec, candidates)
        };
        add(&counters.encoded_candidates, encoded.len());
        add(
            &counters.encoded_steps,
            encoded.iter().map(|c| c.step_count()).sum(),
        );
        let rows = {
            let _span = self.tracer.enter(Layer::Nn, attempt);
            net.predict_batch_with(&spec_encoding, &encoded, traces)
        };
        add(&counters.nn_calls, 1);
        add(&counters.nn_rows, candidates.len());
        self.tracer.note_trace_shard(traces);
        match rows {
            Ok(rows) => rows.iter().map(|l| expected_class_value(l)).collect(),
            // Same fallback as LearnedFitness: per-candidate error isolation.
            Err(_) => candidates
                .iter()
                .map(|candidate| self.inner.score(candidate, spec))
                .collect(),
        }
    }

    fn cache_key(&self) -> String {
        self.inner.cache_key()
    }

    fn max_score(&self) -> f64 {
        self.inner.max_score()
    }

    fn probability_map(&self, spec: &IoSpec) -> Option<ProbabilityMap> {
        self.inner.probability_map(spec)
    }
}

/// `EditDistanceFitness` with a span around each batch.
struct TracedEdit {
    tracer: Arc<Tracer>,
    attempt: usize,
}

impl FitnessFunction for TracedEdit {
    fn name(&self) -> &str {
        EditDistanceFitness.name()
    }

    fn score(&self, candidate: &Program, spec: &IoSpec) -> f64 {
        EditDistanceFitness.score(candidate, spec)
    }

    fn score_batch_cached(
        &self,
        candidates: &[Program],
        spec: &IoSpec,
        traces: &TraceEncodingCache,
    ) -> Vec<f64> {
        let attempt = Some(self.attempt);
        let _span = self.tracer.enter(Layer::Fitness, attempt);
        add(&self.tracer.counters.fitness_rows, candidates.len());
        add(&self.tracer.counters.edit_candidates, candidates.len());
        let _span = self.tracer.enter(Layer::Edit, attempt);
        EditDistanceFitness.score_batch_cached(candidates, spec, traces)
    }

    fn cache_key(&self) -> String {
        EditDistanceFitness.cache_key()
    }

    fn max_score(&self) -> f64 {
        EditDistanceFitness.max_score()
    }
}
