//! Feature encoding: turning specifications, candidate programs and
//! execution traces into the token sequences consumed by the neural fitness
//! model.
//!
//! Integers are clamped to a symmetric range and shifted into a dense token
//! vocabulary; a separator token marks the boundary between a program input
//! and its output. Strings encode as their UTF-8 bytes and word lists as the
//! words' bytes joined by the separator token, so every domain's values land
//! in the same dense vocabulary. DSL operators are encoded by their
//! *domain-local* token index ([`netsyn_dsl::DomainId::token_index`]), exactly
//! one token per statement — the encoding travels with the trained model via
//! [`EncodingConfig::domain`], and for the list domain the indices coincide
//! with the historical `Function::index()` numbering, so existing list-domain
//! checkpoints and caches are unaffected.
//!
//! ## Zero-copy split
//!
//! The encoding of a model input is split along what varies in the GA loop:
//!
//! * [`SpecEncoding`] — the specification's IO-example token sequences.
//!   Built **once per synthesis** by [`encode_spec`] and shared zero-copy
//!   (the sequences live behind an `Arc`) across every candidate scored
//!   against that specification.
//! * [`CandidateEncoding`] — the per-candidate execution traces only, built
//!   by [`encode_candidate`] / [`encode_candidates`].
//!
//! `FitnessNet::predict_batch_with` consumes the two parts separately, so the
//! spec tokens are never cloned into per-candidate samples (and never need
//! to be re-deduplicated out of them).

use crate::sync::lock_recovering;
use crate::sync::Mutex;
use netsyn_dsl::{DomainId, IoExample, IoSpec, Program, TraceArena, Value};
use netsyn_nn::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Configuration of the token encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodingConfig {
    /// The operator domain whose vocabulary sizes the function-token table.
    /// Statement tokens are domain-local indices into this vocabulary.
    pub domain: DomainId,
    /// Integers are clamped to `[-max_abs_value, max_abs_value]`.
    pub max_abs_value: i64,
    /// Lists are truncated to at most this many tokens.
    pub max_list_tokens: usize,
}

impl EncodingConfig {
    /// Default configuration: the list domain, values in `[-128, 128]`,
    /// lists up to 16 tokens.
    #[must_use]
    pub fn new() -> Self {
        EncodingConfig {
            domain: DomainId::List,
            max_abs_value: 128,
            max_list_tokens: 16,
        }
    }

    /// The default configuration retargeted at another operator domain.
    #[must_use]
    pub fn for_domain(domain: DomainId) -> Self {
        EncodingConfig {
            domain,
            ..EncodingConfig::new()
        }
    }

    /// Size of the function-token vocabulary (one token per operator of the
    /// configured domain).
    #[must_use]
    pub fn function_vocab_size(&self) -> usize {
        self.domain.vocab_len()
    }

    /// Size of the value-token vocabulary (all clamped integers plus the
    /// separator token).
    #[must_use]
    pub fn value_vocab_size(&self) -> usize {
        (2 * self.max_abs_value + 2) as usize
    }

    /// The separator token id.
    #[must_use]
    pub fn separator_token(&self) -> usize {
        (2 * self.max_abs_value + 1) as usize
    }

    /// Encodes a single integer as a token id.
    #[must_use]
    pub fn encode_int(&self, v: i64) -> usize {
        let clamped = v.clamp(-self.max_abs_value, self.max_abs_value);
        (clamped + self.max_abs_value) as usize
    }

    /// Encodes a DSL value as a token sequence (lists are truncated).
    #[must_use]
    pub fn encode_value(&self, value: &Value) -> Vec<usize> {
        let mut tokens = Vec::new();
        self.encode_value_into(value, &mut tokens);
        tokens
    }

    /// Appends the token encoding of `value` to `tokens` without the
    /// intermediate `Vec<i64>` that `Value::to_tokens` would allocate.
    fn encode_value_into(&self, value: &Value, tokens: &mut Vec<usize>) {
        match value {
            Value::Int(v) => {
                // An integer is a one-token sequence; it is still subject to
                // the truncation limit, like every value.
                if self.max_list_tokens > 0 {
                    tokens.push(self.encode_int(*v));
                }
            }
            Value::List(vs) => tokens.extend(
                vs.iter()
                    .take(self.max_list_tokens)
                    .map(|&v| self.encode_int(v)),
            ),
            Value::Str(s) => tokens.extend(
                s.bytes()
                    .take(self.max_list_tokens)
                    .map(|b| self.encode_int(i64::from(b))),
            ),
            Value::StrList(words) => {
                // Words' bytes joined by the separator token, under the same
                // total truncation budget as lists.
                let limit = tokens.len() + self.max_list_tokens;
                for (i, word) in words.iter().enumerate() {
                    if i > 0 && tokens.len() < limit {
                        tokens.push(self.separator_token());
                    }
                    for b in word.bytes() {
                        if tokens.len() >= limit {
                            return;
                        }
                        tokens.push(self.encode_int(i64::from(b)));
                    }
                    if tokens.len() >= limit {
                        return;
                    }
                }
            }
        }
    }

    /// Encodes an input-output example as `input tokens, SEP, output tokens`.
    #[must_use]
    pub fn encode_example(&self, example: &IoExample) -> Vec<usize> {
        let mut tokens = Vec::new();
        for input in &example.inputs {
            self.encode_value_into(input, &mut tokens);
            tokens.push(self.separator_token());
        }
        self.encode_value_into(&example.output, &mut tokens);
        tokens
    }
}

impl Default for EncodingConfig {
    fn default() -> Self {
        EncodingConfig::new()
    }
}

/// One encoded trace step: the statement's function token and the tokens of
/// the value it produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedStep {
    /// Domain-local token index of the statement's operator
    /// (`0..domain.vocab_len()`; equal to `Function::index()` in the list
    /// domain).
    pub function: usize,
    /// Tokens of the statement's output value.
    pub value_tokens: Vec<usize>,
}

/// The specification half of a model input: one `input, SEP, output` token
/// sequence per IO example, encoded once per synthesis and shared zero-copy
/// (cloning a `SpecEncoding` bumps an `Arc`, it does not copy tokens).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecEncoding {
    io_tokens: Arc<[Vec<usize>]>,
}

impl SpecEncoding {
    /// Number of encoded IO examples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.io_tokens.len()
    }

    /// Whether the specification had no examples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.io_tokens.is_empty()
    }

    /// The encoded token sequences, one per IO example.
    #[must_use]
    pub fn io_tokens(&self) -> &[Vec<usize>] {
        &self.io_tokens
    }
}

/// The candidate half of a model input: the candidate's encoded execution
/// trace on each specification example, and nothing else.
///
/// `traces[i]` pairs with the `i`-th sequence of the [`SpecEncoding`] the
/// candidate was encoded against. An entirely trace-less value (the FP head
/// scores the specification alone; empty programs cannot run) is represented
/// by [`CandidateEncoding::spec_only`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CandidateEncoding {
    traces: Vec<Vec<EncodedStep>>,
}

impl CandidateEncoding {
    /// The encoding of "no candidate": every example trace is empty. Used by
    /// the FP head, which consumes the specification encoding alone.
    #[must_use]
    pub const fn spec_only() -> Self {
        CandidateEncoding { traces: Vec::new() }
    }

    /// The per-example traces (empty for a spec-only encoding).
    #[must_use]
    pub fn traces(&self) -> &[Vec<EncodedStep>] {
        &self.traces
    }

    /// The candidate's trace on example `index`; the empty slice when the
    /// candidate could not run or the encoding is spec-only.
    #[must_use]
    pub fn trace(&self, index: usize) -> &[EncodedStep] {
        self.traces.get(index).map_or(&[], Vec::as_slice)
    }

    /// Total number of encoded steps across all examples.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.traces.iter().map(Vec::len).sum()
    }
}

/// Encodes a specification's IO examples once, for sharing across every
/// candidate scored against it.
#[must_use]
pub fn encode_spec(config: &EncodingConfig, spec: &IoSpec) -> SpecEncoding {
    let io_tokens: Vec<Vec<usize>> = spec
        .iter()
        .map(|example| config.encode_example(example))
        .collect();
    SpecEncoding {
        io_tokens: io_tokens.into(),
    }
}

/// Encodes one candidate's execution traces against a specification, as
/// consumed by the CF and LCS fitness networks together with the matching
/// [`SpecEncoding`].
///
/// The candidate is run on every example's inputs to obtain the traces; if it
/// cannot run (empty program) the trace is left empty.
#[must_use]
pub fn encode_candidate(
    config: &EncodingConfig,
    spec: &IoSpec,
    candidate: &Program,
) -> CandidateEncoding {
    encode_candidate_with(config, spec, candidate, &mut TraceArena::new())
}

/// Encodes many candidates against the same specification, sharing one
/// interpreter [`TraceArena`] across all trace runs.
///
/// Produces, for each candidate, exactly what [`encode_candidate`] produces.
#[must_use]
pub fn encode_candidates(
    config: &EncodingConfig,
    spec: &IoSpec,
    candidates: &[Program],
) -> Vec<CandidateEncoding> {
    let mut arena = TraceArena::new();
    candidates
        .iter()
        .map(|candidate| encode_candidate_with(config, spec, candidate, &mut arena))
        .collect()
}

fn encode_candidate_with(
    config: &EncodingConfig,
    spec: &IoSpec,
    candidate: &Program,
    arena: &mut TraceArena,
) -> CandidateEncoding {
    let traces = spec
        .iter()
        .map(|example| {
            candidate
                .run_with(&example.inputs, arena)
                .map(|execution| {
                    candidate
                        .functions()
                        .iter()
                        .zip(execution.steps.iter())
                        .map(|(func, value)| EncodedStep {
                            function: config
                                .domain
                                .token_index(*func)
                                .expect("candidate operators belong to the encoding's domain"),
                            value_tokens: config.encode_value(value),
                        })
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();
    CandidateEncoding { traces }
}

/// A one-slot, thread-safe memo of the most recent [`encode_spec`] result.
///
/// Learned fitness functions hold one of these so that the specification of
/// a synthesis run is encoded exactly once, no matter how many generations
/// call `score_batch` with it (the GA presents the same `IoSpec` for the
/// whole run). The counter makes the guarantee testable.
///
/// Cloning produces an *empty* cache and comparison ignores the cache: the
/// memo is pure derived state.
#[derive(Debug, Default)]
pub struct SpecEncodingCache {
    slot: Mutex<Option<(IoSpec, SpecEncoding)>>,
    encodes: AtomicUsize,
}

impl SpecEncodingCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        SpecEncodingCache::default()
    }

    /// Returns the cached encoding when `spec` matches the cached
    /// specification, encoding (and caching) it otherwise.
    ///
    /// The cache holds one entry, keyed by the full `IoSpec`; callers must
    /// use a fixed `config` per cache (learned fitness functions do — the
    /// config belongs to the trained model).
    pub fn get_or_encode(&self, config: &EncodingConfig, spec: &IoSpec) -> SpecEncoding {
        let mut slot = lock_recovering(&self.slot);
        if let Some((cached_spec, encoding)) = slot.as_ref() {
            if cached_spec == spec {
                return encoding.clone();
            }
        }
        let encoding = encode_spec(config, spec);
        self.encodes.fetch_add(1, Ordering::Relaxed);
        *slot = Some((spec.clone(), encoding.clone()));
        encoding
    }

    /// How many times a specification was actually encoded (cache misses).
    #[must_use]
    pub fn encode_count(&self) -> usize {
        self.encodes.load(Ordering::Relaxed)
    }
}

impl Clone for SpecEncodingCache {
    fn clone(&self) -> Self {
        SpecEncodingCache::default()
    }
}

impl PartialEq for SpecEncodingCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// A long-lived, shareable memo of trace-*value* encodings: the step
/// encoder's final hidden state for each distinct trace-value token
/// sequence.
///
/// The step encoder is a deterministic, batch-independent function of a
/// value's token sequence (the trie-batched LSTM is bit-identical to
/// per-sequence calls), so a hidden state computed in one `score_batch`
/// call can be served to every later call that sees the same value — across
/// generations of one GA run, and across the K repeated runs of a task when
/// a shard of the shared [`crate::FitnessCache`] is threaded through
/// [`crate::FitnessFunction::score_batch_cached`]. Serving a hit is
/// bit-identical to recomputing, so a warm cache never changes a search
/// trajectory.
///
/// A cache must only ever be consulted by **one** model: entries depend on
/// the step-encoder weights ([`crate::FitnessCache::trace_shard`] keys
/// shards by `FitnessFunction::cache_key` for exactly this reason, and a
/// trainer updating weights must start a fresh cache). Like
/// [`SpecEncodingCache`], the memo is pure derived state: `Clone` starts
/// cold and `PartialEq` ignores it.
///
/// ## Concurrency
///
/// Entries are spread over independently locked stripes keyed by the token
/// sequence's hash, so concurrent batched scoring calls (the evaluation
/// harness's task×run fan-out on the work-stealing pool) contend only when
/// they touch the same stripe at the same instant — never for the duration
/// of a whole batch, and never while the step encoder runs. Publishing is
/// first-write-wins: the first hidden state stored for a token sequence is
/// the one every later batch reads (all writers would store bit-identical
/// values; keeping one makes the shared `Arc` handles stable), so racing
/// encoders waste at most one redundant forward, they never disagree.
#[derive(Debug)]
pub struct TraceEncodingCache {
    stripes: Vec<Mutex<TraceStripe>>,
    encodes: AtomicUsize,
}

/// Number of independently locked stripes (a power of two, so the stripe
/// index is a mask of the key hash).
const TRACE_STRIPES: usize = 16;

/// One stripe's storage: trace-value token sequence → step-encoder final
/// hidden state (shared zero-copy with every batch that reads it).
type TraceStripe = FxHashMap<Box<[usize]>, Arc<[f32]>>;

impl Default for TraceEncodingCache {
    fn default() -> Self {
        TraceEncodingCache {
            stripes: (0..TRACE_STRIPES)
                .map(|_| Mutex::new(TraceStripe::default()))
                .collect(),
            encodes: AtomicUsize::new(0),
        }
    }
}

impl TraceEncodingCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        TraceEncodingCache::default()
    }

    fn stripe_of(tokens: &[usize]) -> usize {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        tokens.hash(&mut hasher);
        (hasher.finish() as usize) & (TRACE_STRIPES - 1)
    }

    /// Number of distinct trace-value token sequences cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| lock_recovering(stripe).len())
            .sum()
    }

    /// Whether no encodings are cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many trace values were actually run through the step encoder
    /// (cache misses) — the testable reuse guarantee.
    #[must_use]
    pub fn encode_count(&self) -> usize {
        self.encodes.load(Ordering::Relaxed)
    }

    /// Cached hidden states for a whole batch of token sequences, taking
    /// each stripe lock at most once. Slot `i` of the result corresponds to
    /// `keys[i]`.
    ///
    /// Public so the loom model suite can drive the striped first-write-wins
    /// protocol directly; production callers go through the batch encoder.
    pub fn get_many(&self, keys: &[&[usize]]) -> Vec<Option<Arc<[f32]>>> {
        let mut out = vec![None; keys.len()];
        let mut by_stripe: Vec<Vec<usize>> = vec![Vec::new(); TRACE_STRIPES];
        for (index, key) in keys.iter().enumerate() {
            by_stripe[Self::stripe_of(key)].push(index);
        }
        for (stripe, indices) in self.stripes.iter().zip(by_stripe) {
            if indices.is_empty() {
                continue;
            }
            let stripe = lock_recovering(stripe);
            for index in indices {
                out[index] = stripe.get(keys[index]).map(Arc::clone);
            }
        }
        out
    }

    /// Publishes freshly computed hidden states, first-write-wins, taking
    /// each stripe lock at most once. Returns the *canonical* hidden state
    /// per key — the stored one if another thread published first — in
    /// input order, so callers always consume the shared buffer.
    ///
    /// Public so the loom model suite can drive the striped first-write-wins
    /// protocol directly; production callers go through the batch encoder.
    pub fn publish_many(&self, entries: Vec<(&[usize], Arc<[f32]>)>) -> Vec<Arc<[f32]>> {
        let mut out: Vec<Option<Arc<[f32]>>> = vec![None; entries.len()];
        let mut by_stripe: Vec<Vec<usize>> = vec![Vec::new(); TRACE_STRIPES];
        for (index, (key, _)) in entries.iter().enumerate() {
            by_stripe[Self::stripe_of(key)].push(index);
        }
        for (stripe, indices) in self.stripes.iter().zip(by_stripe) {
            if indices.is_empty() {
                continue;
            }
            let mut stripe = lock_recovering(stripe);
            for index in indices {
                let (key, hidden) = &entries[index];
                let canonical = stripe
                    .entry((*key).into())
                    .or_insert_with(|| Arc::clone(hidden));
                out[index] = Some(Arc::clone(canonical));
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every entry published"))
            .collect()
    }

    /// Records `n` step-encoder runs (cache misses).
    pub(crate) fn record_encodes(&self, n: usize) {
        self.encodes.fetch_add(n, Ordering::Relaxed);
    }
}

impl Clone for TraceEncodingCache {
    fn clone(&self) -> Self {
        TraceEncodingCache::default()
    }
}

impl PartialEq for TraceEncodingCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// A many-slot spec-encoding memo keyed by the full [`IoSpec`], with the
/// same counting guarantee as the one-slot [`SpecEncodingCache`].
///
/// The trainer's epoch loops sweep *interleaved* samples from many
/// specifications (the train/validation split shuffles them), so the
/// one-slot memo would thrash; this map encodes each distinct specification
/// exactly once per training run instead of once per sample per epoch.
#[derive(Debug, Default)]
pub struct SpecEncodingMap {
    slots: Mutex<HashMap<IoSpec, SpecEncoding>>,
    encodes: AtomicUsize,
}

impl SpecEncodingMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        SpecEncodingMap::default()
    }

    /// Returns the cached encoding of `spec`, encoding (and caching) it on
    /// first sight. Callers must use a fixed `config` per map (the trainer
    /// does — the config belongs to the training run).
    pub fn get_or_encode(&self, config: &EncodingConfig, spec: &IoSpec) -> SpecEncoding {
        let mut slots = lock_recovering(&self.slots);
        if let Some(encoding) = slots.get(spec) {
            return encoding.clone();
        }
        let encoding = encode_spec(config, spec);
        self.encodes.fetch_add(1, Ordering::Relaxed);
        slots.insert(spec.clone(), encoding.clone());
        encoding
    }

    /// How many distinct specifications were actually encoded (misses).
    #[must_use]
    pub fn encode_count(&self) -> usize {
        self.encodes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_dsl::{Function, IntPredicate, MapOp};

    fn config() -> EncodingConfig {
        EncodingConfig::new()
    }

    fn target() -> Program {
        Program::new(vec![
            Function::Filter(IntPredicate::Positive),
            Function::Map(MapOp::Mul2),
            Function::Sort,
            Function::Reverse,
        ])
    }

    fn spec() -> IoSpec {
        IoSpec::from_program(
            &target(),
            &[
                vec![Value::List(vec![-2, 10, 3, -4, 5, 2])],
                vec![Value::List(vec![1, 2, 3])],
            ],
        )
    }

    #[test]
    fn int_encoding_clamps_and_shifts() {
        let c = config();
        assert_eq!(c.encode_int(0), 128);
        assert_eq!(c.encode_int(-128), 0);
        assert_eq!(c.encode_int(128), 256);
        assert_eq!(c.encode_int(1_000_000), 256);
        assert_eq!(c.encode_int(-1_000_000), 0);
        assert_eq!(c.separator_token(), 257);
        assert_eq!(c.value_vocab_size(), 258);
        // Every encoded token fits the vocabulary.
        for v in [-200, -128, -1, 0, 1, 127, 128, 200] {
            assert!(c.encode_int(v) < c.value_vocab_size());
        }
    }

    #[test]
    fn value_encoding_truncates_long_lists() {
        let mut c = config();
        c.max_list_tokens = 4;
        let long = Value::List((0..20).collect());
        assert_eq!(c.encode_value(&long).len(), 4);
        assert_eq!(c.encode_value(&Value::Int(5)), vec![133]);
    }

    #[test]
    fn example_encoding_contains_separator() {
        let c = config();
        let example = IoExample::new(vec![Value::List(vec![1, 2])], Value::Int(3));
        let tokens = c.encode_example(&example);
        assert_eq!(tokens, vec![129, 130, c.separator_token(), 131]);
    }

    #[test]
    fn encode_candidate_produces_one_step_per_statement() {
        let c = config();
        let spec_encoding = encode_spec(&c, &spec());
        let candidate = encode_candidate(&c, &spec(), &target());
        assert_eq!(spec_encoding.len(), 2);
        assert!(!spec_encoding.is_empty());
        assert_eq!(candidate.traces().len(), 2);
        assert_eq!(candidate.step_count(), 8);
        for example in 0..spec_encoding.len() {
            assert_eq!(candidate.trace(example).len(), 4);
            assert!(candidate
                .trace(example)
                .iter()
                .all(|s| s.function < c.function_vocab_size()));
            assert!(!spec_encoding.io_tokens()[example].is_empty());
        }
        // The first step of the first example is FILTER(>0) and its trace
        // value is the filtered list [10, 3, 5, 2].
        let first = &candidate.trace(0)[0];
        assert_eq!(
            first.function,
            Function::Filter(IntPredicate::Positive).index()
        );
        assert_eq!(first.value_tokens, vec![138, 131, 133, 130]);
    }

    #[test]
    fn encode_candidates_matches_per_candidate_encoding() {
        let c = config();
        let candidates = [
            target(),
            Program::new(vec![Function::Head]),
            Program::default(),
        ];
        let batch = encode_candidates(&c, &spec(), &candidates);
        assert_eq!(batch.len(), candidates.len());
        for (candidate, encoding) in candidates.iter().zip(batch.iter()) {
            assert_eq!(encoding, &encode_candidate(&c, &spec(), candidate));
        }
        assert!(encode_candidates(&c, &spec(), &[]).is_empty());
    }

    #[test]
    fn spec_encoding_clones_share_storage() {
        let c = config();
        let encoding = encode_spec(&c, &spec());
        let clone = encoding.clone();
        assert_eq!(encoding, clone);
        // Zero-copy: both handles point at the same token storage.
        assert!(std::ptr::eq(
            encoding.io_tokens().as_ptr(),
            clone.io_tokens().as_ptr()
        ));
    }

    #[test]
    fn spec_only_candidate_has_no_steps() {
        let spec_only = CandidateEncoding::spec_only();
        assert!(spec_only.traces().is_empty());
        assert_eq!(spec_only.step_count(), 0);
        assert!(spec_only.trace(0).is_empty());
        assert!(spec_only.trace(7).is_empty());
    }

    #[test]
    fn empty_candidate_yields_empty_traces() {
        let c = config();
        let encoding = encode_candidate(&c, &spec(), &Program::default());
        assert!(encoding.traces().iter().all(Vec::is_empty));
        assert_eq!(encoding.step_count(), 0);
    }

    #[test]
    fn spec_cache_encodes_each_spec_once() {
        let c = config();
        let cache = SpecEncodingCache::new();
        assert_eq!(cache.encode_count(), 0);
        let first = cache.get_or_encode(&c, &spec());
        let second = cache.get_or_encode(&c, &spec());
        assert_eq!(first, second);
        assert_eq!(cache.encode_count(), 1);
        // A different spec misses; returning to the first misses again (the
        // cache holds one slot — the GA uses one spec per synthesis).
        let other = IoSpec::from_program(&target(), &[vec![Value::List(vec![7, 7])]]);
        let _ = cache.get_or_encode(&c, &other);
        assert_eq!(cache.encode_count(), 2);
        assert_eq!(cache.get_or_encode(&c, &spec()), first);
        assert_eq!(cache.encode_count(), 3);
        // Clones start cold; equality ignores the cache.
        let clone = cache.clone();
        assert_eq!(clone.encode_count(), 0);
        assert_eq!(clone, cache);
    }

    #[test]
    fn trace_cache_counts_misses_and_serves_hits() {
        let cache = TraceEncodingCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.encode_count(), 0);
        let tokens: Vec<usize> = vec![1, 2, 3];
        let hidden: Arc<[f32]> = vec![0.5, -0.5].into();
        assert_eq!(cache.get_many(&[&tokens[..]]), vec![None]);
        let stored = cache.publish_many(vec![(&tokens[..], Arc::clone(&hidden))]);
        assert!(Arc::ptr_eq(&stored[0], &hidden));
        cache.record_encodes(1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.encode_count(), 1);
        // A hit returns the very same buffer.
        let hit = cache.get_many(&[&[1usize, 2, 3][..]]);
        assert!(Arc::ptr_eq(hit[0].as_ref().expect("cached"), &hidden));
        // Publishing again is first-write-wins: the original buffer is the
        // canonical one handed back to the racing publisher.
        let racer: Arc<[f32]> = vec![0.5, -0.5].into();
        let canonical = cache.publish_many(vec![(&tokens[..], racer)]);
        assert!(Arc::ptr_eq(&canonical[0], &hidden));
        assert_eq!(cache.len(), 1);
        // Clones start cold; equality ignores the state.
        let clone = cache.clone();
        assert!(clone.is_empty());
        assert_eq!(clone.encode_count(), 0);
        assert_eq!(clone, cache);
    }

    /// Poison-recovery regression for the trace cache: encodings are
    /// first-write-wins immutable, so a panicked worker must not take the
    /// stripe down with it.
    #[test]
    fn panicked_worker_does_not_poison_the_trace_cache() {
        let cache = TraceEncodingCache::new();
        let tokens: Vec<usize> = vec![4, 5, 6];
        let hidden: Arc<[f32]> = vec![1.0, 2.0].into();
        let _ = cache.publish_many(vec![(&tokens[..], Arc::clone(&hidden))]);

        let stripe = &cache.stripes[TraceEncodingCache::stripe_of(&tokens)];
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let _guard = stripe.lock().unwrap();
                panic!("worker dies while holding the trace stripe lock");
            });
            assert!(worker.join().is_err());
        });
        assert!(stripe.is_poisoned());

        // Reads, writes and counts all recover the guard and proceed.
        let hit = cache.get_many(&[&tokens[..]]);
        assert!(Arc::ptr_eq(hit[0].as_ref().expect("still cached"), &hidden));
        let fresh: Vec<usize> = vec![7, 8];
        let _ = cache.publish_many(vec![(&fresh[..], vec![3.0f32].into())]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn spec_map_encodes_each_distinct_spec_once() {
        let c = config();
        let map = SpecEncodingMap::new();
        let other = IoSpec::from_program(&target(), &[vec![Value::List(vec![7, 7])]]);
        let first = map.get_or_encode(&c, &spec());
        // Interleaved lookups (the trainer's shuffled epoch order) stay hits.
        for _ in 0..5 {
            assert_eq!(map.get_or_encode(&c, &spec()), first);
            let _ = map.get_or_encode(&c, &other);
        }
        assert_eq!(map.encode_count(), 2);
        assert_eq!(map.get_or_encode(&c, &spec()), encode_spec(&c, &spec()));
    }

    #[test]
    fn all_function_indices_fit_the_function_vocab() {
        let list = EncodingConfig::new();
        assert_eq!(list.domain, DomainId::List);
        assert_eq!(list.function_vocab_size(), 41);
        for f in Function::ALL {
            assert_eq!(DomainId::List.token_index(f), Some(f.index()));
        }
        let string = EncodingConfig::for_domain(DomainId::Str);
        assert_eq!(string.function_vocab_size(), 18);
        for (i, f) in DomainId::Str.vocab().iter().enumerate() {
            assert_eq!(DomainId::Str.token_index(*f), Some(i));
        }
    }

    #[test]
    fn string_values_encode_as_bytes_with_word_separators() {
        let c = config();
        // "ab" → byte tokens shifted by max_abs_value.
        let ab = c.encode_value(&Value::Str("ab".to_string()));
        assert_eq!(ab, vec![c.encode_int(97), c.encode_int(98)]);
        assert!(ab.iter().all(|&t| t < c.value_vocab_size()));
        // Word lists join with the separator token.
        let words = c.encode_value(&Value::StrList(vec!["ab".into(), "c".into()]));
        assert_eq!(
            words,
            vec![
                c.encode_int(97),
                c.encode_int(98),
                c.separator_token(),
                c.encode_int(99)
            ]
        );
        // Truncation budget applies across the whole word list.
        let mut tight = c;
        tight.max_list_tokens = 3;
        let truncated = tight.encode_value(&Value::StrList(vec!["ab".into(), "cd".into()]));
        assert_eq!(truncated.len(), 3);
        let long_str = tight.encode_value(&Value::Str("abcdefgh".to_string()));
        assert_eq!(long_str.len(), 3);
    }

    #[test]
    fn string_domain_candidates_encode_with_domain_local_tokens() {
        let c = EncodingConfig::for_domain(DomainId::Str);
        let target = Program::new(vec![Function::StrUpper, Function::StrReverse]);
        let spec = IoSpec::from_program(&target, &[vec![Value::Str("hello world".into())]]);
        let candidate = encode_candidate(&c, &spec, &target);
        assert_eq!(candidate.traces().len(), 1);
        let steps = candidate.trace(0);
        assert_eq!(steps.len(), 2);
        assert_eq!(
            steps[0].function,
            DomainId::Str.token_index(Function::StrUpper).unwrap()
        );
        assert!(steps.iter().all(|s| s.function < c.function_vocab_size()));
        assert!(steps.iter().all(|s| !s.value_tokens.is_empty()));
    }
}
