//! Cross-generation, cross-run fitness score caching.
//!
//! A fitness score is a pure function of `(fitness, candidate, spec)` — and
//! the batched scoring contract guarantees it is *bit-identical* however it
//! is computed — so scores can be reused not just across generations of one
//! GA run (the engine's old per-`synthesize` memo) but across **repeated
//! runs of the same task**: the evaluation harness re-runs every task
//! `K` times, and GA restarts on a fixed specification rediscover many of
//! the same candidate programs.
//!
//! [`FitnessCache`] is the shared handle: it maps a `(fitness cache key, spec)`
//! key to a [`SpecScores`] shard holding `Program → f64` entries. The GA
//! engine checks the shard before scoring and inserts after scoring; because
//! cached values equal recomputed values bit-for-bit, a warm cache never
//! changes a search trajectory — it only skips network passes. The same
//! handle carries the per-model trace-value encoding shards
//! ([`FitnessCache::trace_shard`], keyed by fitness key alone — encodings
//! are spec-independent), which the engine threads into every batched
//! scoring call via
//! [`FitnessFunction::score_batch_cached`](crate::FitnessFunction::score_batch_cached).
//!
//! ## Concurrency
//!
//! The whole cache is `Sync` and shared by a real multi-thread pool (the
//! workspace's rayon shim does work stealing, so the evaluation harness's
//! task×run fan-out runs repetitions of one task concurrently, all sharing
//! one shard):
//!
//! * **Striped maps** — a [`SpecScores`] shard spreads its entries over
//!   [`STRIPE_COUNT`] independently locked `FxHashMap<Program, f64>`
//!   stripes keyed by the program's hash, so concurrent lookups and
//!   publishes of different programs rarely contend. Batch operations
//!   ([`SpecScores::get_many`], [`SpecScores::publish_many`]) group
//!   programs by stripe and take each stripe lock once. No lock is ever
//!   held while scoring.
//! * **First write wins** — [`resolve_batch`] looks a batch up, scores the
//!   misses with one `score_batch` call and publishes them; a published
//!   score is never overwritten. Two threads that miss the same program at
//!   the same moment both score it. Their scores are bit-identical by the
//!   batched-scoring contract, so which write wins changes nothing. Such
//!   duplicates are rare. Counting the missed programs that another thread
//!   was already scoring at the time (e2ebench, seed 2021, 10 s per run)
//!   found 1,270 of 1,599,014 on `edit_islands` (0.08%), none on `cf_cold`
//!   or `cf_warm`, 47 of 1,803,301 on `cf_cold` with K = 10 runs per task
//!   on an 8-thread pool, and 2 of 5,105,259 at K = 10 on a 2-thread pool.
//! * **Panic safety** — nothing is reserved before scoring, so a scoring
//!   call that panics leaves the shard exactly as it was, and a stripe lock
//!   poisoned by a panic is recovered (see the crate-private `sync` module).

use crate::encoding::TraceEncodingCache;
use crate::persist::{DurableOptions, DurableStore, FlushStats, LoadReport, ScoreSnapshot};
use crate::sync::{lock_recovering, read_recovering, write_recovering, Mutex};
use netsyn_dsl::{IoSpec, Program};
use netsyn_nn::{FxHashMap, FxHasher};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

/// Number of independently locked stripes in a [`SpecScores`] shard.
/// A power of two so the stripe index is a mask of the hash.
pub const STRIPE_COUNT: usize = 16;

/// One stripe's scores, plus — on shards of a durable cache — the dirty
/// list: the scores first published since the durable tier last drained
/// it. Each key is pushed at most once, when it is first published;
/// in-memory caches keep no list and pay nothing.
#[derive(Debug)]
struct Stripe {
    map: FxHashMap<Program, f64>,
    dirty: Option<Vec<(Program, f64)>>,
}

impl Stripe {
    /// First write wins: stores `score` unless `program` already has one,
    /// and queues each stored entry on the dirty list, if kept.
    fn publish(&mut self, program: &Program, score: f64) {
        if self.map.contains_key(program) {
            return;
        }
        self.map.insert(program.clone(), score);
        if let Some(dirty) = &mut self.dirty {
            dirty.push((program.clone(), score));
        }
    }
}

/// Scores cached for one `(fitness, spec)` pair, striped for concurrent
/// access (see the module docs).
#[derive(Debug)]
pub struct SpecScores {
    stripes: Vec<Mutex<Stripe>>,
}

impl Default for SpecScores {
    fn default() -> Self {
        SpecScores::with_dirty_lists(false)
    }
}

impl SpecScores {
    /// An empty shard; with `recording`, its stripes keep dirty lists for
    /// the durable tier to drain.
    pub(crate) fn with_dirty_lists(recording: bool) -> Self {
        let stripe = || {
            Mutex::new(Stripe {
                map: FxHashMap::default(),
                dirty: recording.then(Vec::new),
            })
        };
        SpecScores {
            stripes: (0..STRIPE_COUNT).map(|_| stripe()).collect(),
        }
    }
}

/// The stripe holding `program`: bits 32.. of its Fx hash. The stripe's map
/// indexes buckets by the low bits and tags them by the top seven bits of the
/// same hash, so taking either for the stripe would leave the map a constant
/// to hash on.
fn stripe_index(program: &Program) -> usize {
    let mut hasher = FxHasher::default();
    program.hash(&mut hasher);
    (hasher.finish() >> 32) as usize & (STRIPE_COUNT - 1)
}

impl SpecScores {
    fn stripe(&self, program: &Program) -> &Mutex<Stripe> {
        &self.stripes[stripe_index(program)]
    }

    /// The cached score of `candidate`, if published.
    #[must_use]
    pub fn get(&self, candidate: &Program) -> Option<f64> {
        lock_recovering(self.stripe(candidate))
            .map
            .get(candidate)
            .copied()
    }

    /// Caches one score (first write wins: a published score is never
    /// overwritten).
    pub fn insert(&self, candidate: Program, score: f64) {
        lock_recovering(self.stripe(&candidate)).publish(&candidate, score);
    }

    /// Caches scores read back from disk: first write wins, and nothing
    /// goes on the dirty list, so they are never appended again.
    pub(crate) fn insert_loaded(&self, entries: Vec<(Program, f64)>) {
        for (program, score) in entries {
            lock_recovering(self.stripe(&program))
                .map
                .entry(program)
                .or_insert(score);
        }
    }

    /// Published scores for a whole batch, taking each stripe lock once.
    #[must_use]
    pub fn get_many(&self, programs: &[Program]) -> Vec<Option<f64>> {
        let mut out = vec![None; programs.len()];
        self.for_each_stripe(programs, |stripe, index| {
            out[index] = stripe.map.get(&programs[index]).copied();
        });
        out
    }

    /// Publishes one score per program, first write wins, taking each
    /// stripe lock once.
    ///
    /// # Panics
    ///
    /// Panics if `scores` is not exactly one value per program.
    pub fn publish_many(&self, programs: &[Program], scores: &[f64]) {
        assert_eq!(
            programs.len(),
            scores.len(),
            "publish_many requires one score per program"
        );
        self.for_each_stripe(programs, |stripe, index| {
            stripe.publish(&programs[index], scores[index]);
        });
    }

    /// Number of published scores.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| lock_recovering(stripe).map.len())
            .sum()
    }

    /// Whether no scores are published.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every published `(program, score)` entry, in a deterministic order
    /// (sorted by the program's function ids) — the full image the durable
    /// tier compacts to. Clears the dirty lists under the same stripe
    /// locks, so every entry lands either in this export or in a later
    /// [`SpecScores::drain_dirty`], never both.
    pub(crate) fn export(&self) -> Vec<(Program, f64)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let mut stripe = lock_recovering(stripe);
            if let Some(dirty) = &mut stripe.dirty {
                dirty.clear();
            }
            out.extend(
                stripe
                    .map
                    .iter()
                    .map(|(program, &score)| (program.clone(), score)),
            );
        }
        out.sort_by_cached_key(|(program, _)| program.ids());
        out
    }

    /// Takes the entries first published since the last drain, in
    /// [`SpecScores::export`] order — the delta a durable flush appends.
    /// Always empty on shards that keep no dirty list.
    pub(crate) fn drain_dirty(&self) -> Vec<(Program, f64)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            if let Some(dirty) = &mut lock_recovering(stripe).dirty {
                out.append(dirty);
            }
        }
        out.sort_by_cached_key(|(program, _)| program.ids());
        out
    }

    /// Runs `body` once per program index, grouped so each stripe's lock is
    /// acquired at most once for the whole batch.
    fn for_each_stripe(&self, programs: &[Program], mut body: impl FnMut(&mut Stripe, usize)) {
        let mut by_stripe: Vec<Vec<usize>> = vec![Vec::new(); STRIPE_COUNT];
        for (index, program) in programs.iter().enumerate() {
            by_stripe[stripe_index(program)].push(index);
        }
        for (stripe, indices) in self.stripes.iter().zip(by_stripe) {
            if indices.is_empty() {
                continue;
            }
            let mut stripe = lock_recovering(stripe);
            for index in indices {
                body(&mut stripe, index);
            }
        }
    }
}

/// Resolves a whole batch against `scores` — the shared engine of the GA's
/// `evaluate_population` and the DFS neighborhood's `rank_neighbors`:
/// published scores are served as hits, every miss is scored by **one**
/// `score_batch` call, and the fresh scores are published first write wins.
/// Scores land by input index, so the result is independent of scheduling.
///
/// A program another thread is scoring at the same moment is scored here
/// too (see the module docs); both values are bit-identical, so the result
/// is the same whichever publish lands first.
///
/// `score_batch` must return one value per input program, in input order,
/// bit-identical to per-program scoring (the workspace-wide contract).
///
/// # Panics
///
/// Panics, before publishing anything, if `score_batch` returns a different
/// number of scores than it was given programs.
pub fn resolve_batch(
    scores: &SpecScores,
    programs: &[Program],
    score_batch: impl Fn(&[Program]) -> Vec<f64>,
) -> Vec<f64> {
    let mut resolved = scores.get_many(programs);
    let misses: Vec<usize> = (0..programs.len())
        .filter(|&index| resolved[index].is_none())
        .collect();
    if !misses.is_empty() {
        let batch: Vec<Program> = misses.iter().map(|&i| programs[i].clone()).collect();
        let fresh = score_batch(&batch);
        assert_eq!(
            fresh.len(),
            batch.len(),
            "score_batch must return one score per program"
        );
        scores.publish_many(&batch, &fresh);
        for (&index, &value) in misses.iter().zip(&fresh) {
            resolved[index] = Some(value);
        }
    }
    resolved
        .into_iter()
        .map(|value| value.expect("every program resolved"))
        .collect()
}

/// A shared, spec-keyed cache of fitness scores, living across `synthesize`
/// calls (see the module docs).
///
/// Shards are stored as a two-level map keyed by fitness key, then spec,
/// behind a read-write lock: the hot path (`shard` on an existing entry,
/// hit once per `synthesize`) takes only the read lock and allocates
/// nothing; the write lock is taken — and the key `String` / `IoSpec`
/// cloned — only when a new shard is inserted.
#[derive(Debug, Default)]
pub struct FitnessCache {
    shards: RwLock<HashMap<String, HashMap<IoSpec, Arc<SpecScores>>>>,
    /// Trace-value encoding shards, keyed by fitness key alone: a trace
    /// value's encoding depends on the model's weights but *not* on the
    /// specification, so one shard serves every spec scored by the same
    /// fitness function. They live in memory only; the durable tier
    /// persists scores.
    traces: RwLock<HashMap<String, Arc<TraceEncodingCache>>>,
    /// The durable tier, present only on caches opened with
    /// [`FitnessCache::durable`]. Plain in-memory caches pay nothing.
    store: OnceLock<Arc<DurableStore>>,
    /// Whether new score shards keep dirty lists for the durable tier to
    /// drain (set on durable caches only).
    recording: bool,
}

impl FitnessCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        FitnessCache::default()
    }

    /// Opens a **durable** cache over `dir`: every surviving score in the
    /// directory's record log is loaded (warm start), and
    /// [`FitnessCache::flush`] / [`FitnessCache::maybe_periodic_flush`] /
    /// drop append new scores back. Recovery is graceful — damaged
    /// suffixes are dropped, unreadable files are quarantined (renamed,
    /// never deleted), and on any doubt the affected shard starts cold;
    /// see [`crate::persist`] for the full contract.
    ///
    /// # Errors
    ///
    /// Only directory creation can fail; file-level problems degrade to a
    /// cold cache instead of erroring.
    pub fn durable(dir: impl AsRef<Path>) -> std::io::Result<FitnessCache> {
        Self::durable_with(dir, DurableOptions::default())
    }

    /// [`FitnessCache::durable`] with explicit [`DurableOptions`] (flush
    /// interval, fault injection for tests).
    ///
    /// # Errors
    ///
    /// Only directory creation can fail.
    pub fn durable_with(
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> std::io::Result<FitnessCache> {
        let mut cache = FitnessCache::new();
        cache.recording = true;
        let store = DurableStore::open(dir.as_ref(), options, &cache)?;
        let _ = cache.store.set(store);
        Ok(cache)
    }

    /// The directory backing this cache, when durable.
    #[must_use]
    pub fn cache_dir(&self) -> Option<&Path> {
        self.store.get().map(|store| store.dir())
    }

    /// What loading the cache directory found (quarantines, dropped
    /// suffixes, entry counts); `None` for in-memory caches.
    #[must_use]
    pub fn load_report(&self) -> Option<&LoadReport> {
        self.store.get().map(|store| store.report())
    }

    /// Synchronously flush every score published since the last flush to
    /// disk (append + fsync). Returns what was appended; `None` for in-memory
    /// caches. I/O failure degrades the store to memory-only with a
    /// warning — it never panics and never corrupts the log.
    pub fn flush(&self) -> Option<FlushStats> {
        let store = self.store.get()?;
        store.join_flusher();
        Some(store.flush_snapshots(&self.snapshots()))
    }

    /// Ticks the periodic-flush clock (the GA engine calls this once per
    /// generation); every `flush_every` ticks the new entries are flushed
    /// on a background thread. A no-op for in-memory caches — callers
    /// never need to know whether durability is on.
    pub fn maybe_periodic_flush(&self) {
        let Some(store) = self.store.get() else {
            return;
        };
        if store.tick() {
            store.flush_async(self.snapshots());
        }
    }

    /// Rewrites the backing log from the full in-memory scores (atomic
    /// replace), dropping any accumulated append-only redundancy and
    /// clearing a broken-store condition. `None` for in-memory caches.
    pub fn compact(&self) -> Option<std::io::Result<()>> {
        let store = self.store.get()?;
        store.join_flusher();
        Some(store.compact(&self.snapshots()))
    }

    /// Cheap `Arc` snapshots of every score shard, for the durable tier.
    fn snapshots(&self) -> ScoreSnapshot {
        let mut scores: ScoreSnapshot = Vec::new();
        for (key, specs) in read_recovering(&self.shards).iter() {
            for (spec, shard) in specs.iter() {
                scores.push((key.clone(), spec.clone(), Arc::clone(shard)));
            }
        }
        // Deterministic flush order, so identical runs write identical
        // bytes (IoSpec has no Ord; its derived Debug form shows every
        // example and is injective, which is all an order key needs).
        scores.sort_by_cached_key(|(key, spec, _)| (key.clone(), format!("{spec:?}")));
        scores
    }

    /// The score shard for one `(fitness, spec)` pair, created on first use.
    ///
    /// `fitness_key` must come from
    /// [`FitnessFunction::cache_key`](crate::FitnessFunction::cache_key):
    /// two functions that can score the same `(candidate, spec)` pair
    /// differently must present different keys (the oracle folds its hidden
    /// target into the key for exactly this reason — distinct targets can
    /// induce identical specs).
    #[must_use]
    pub fn shard(&self, fitness_key: &str, spec: &IoSpec) -> Arc<SpecScores> {
        {
            let shards = read_recovering(&self.shards);
            if let Some(shard) = shards.get(fitness_key).and_then(|specs| specs.get(spec)) {
                return Arc::clone(shard);
            }
        }
        let mut shards = write_recovering(&self.shards);
        // Double-check: another thread may have inserted between the locks.
        if let Some(shard) = shards.get(fitness_key).and_then(|specs| specs.get(spec)) {
            return Arc::clone(shard);
        }
        let shard = Arc::new(SpecScores::with_dirty_lists(self.recording));
        shards
            .entry(fitness_key.to_string())
            .or_default()
            .insert(spec.clone(), Arc::clone(&shard));
        shard
    }

    /// The trace-value encoding shard for one fitness function, created on
    /// first use.
    ///
    /// `fitness_key` must come from
    /// [`FitnessFunction::cache_key`](crate::FitnessFunction::cache_key) for
    /// the same reason as [`FitnessCache::shard`]: cached encodings are a
    /// function of the model's step-encoder weights, which the key
    /// identifies. Unlike score shards the trace shard is *not* keyed by
    /// spec — trace-value encodings are specification-independent, so
    /// different tasks scored by one model share their recurring values.
    #[must_use]
    pub fn trace_shard(&self, fitness_key: &str) -> Arc<TraceEncodingCache> {
        {
            let traces = read_recovering(&self.traces);
            if let Some(shard) = traces.get(fitness_key) {
                return Arc::clone(shard);
            }
        }
        let mut traces = write_recovering(&self.traces);
        if let Some(shard) = traces.get(fitness_key) {
            return Arc::clone(shard);
        }
        let shard = Arc::new(TraceEncodingCache::new());
        traces.insert(fitness_key.to_string(), Arc::clone(&shard));
        shard
    }

    /// Number of `(fitness, spec)` shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        read_recovering(&self.shards)
            .values()
            .map(HashMap::len)
            .sum()
    }
}

impl Drop for FitnessCache {
    /// Durable caches flush on drop — panic-safe: a failure to flush (or a
    /// panic unwinding through cache users) never escalates, it only costs
    /// the unflushed delta.
    fn drop(&mut self) {
        if self.store.get().is_none() {
            return;
        }
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = self.flush();
        }));
        if let Some(store) = self.store.get() {
            store.join_flusher();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_dsl::Function;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn spec(seed: i64) -> IoSpec {
        IoSpec::from_program(
            &Program::new(vec![Function::Sort]),
            &[vec![netsyn_dsl::Value::List(vec![seed, 2, 1])]],
        )
    }

    #[test]
    fn shards_are_keyed_by_name_and_spec() {
        let cache = FitnessCache::new();
        let a = cache.shard("nn-CF", &spec(1));
        let b = cache.shard("nn-CF", &spec(1));
        let c = cache.shard("nn-LCS", &spec(1));
        let d = cache.shard("nn-CF", &spec(2));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.shard_count(), 3);
    }

    #[test]
    fn oracle_keys_distinguish_targets_with_identical_specs() {
        use crate::{ClosenessMetric, FitnessFunction, OracleFitness};
        // Both targets are the identity on lists, so they induce the same
        // specification — but they assign different CF scores. Their cache
        // keys must differ or a shared cache would alias them.
        let two = Program::new(vec![Function::Reverse, Function::Reverse]);
        let four = Program::new(vec![Function::Reverse; 4]);
        let inputs = vec![vec![netsyn_dsl::Value::List(vec![3, 1, 2])]];
        let spec_two = IoSpec::from_program(&two, &inputs);
        let spec_four = IoSpec::from_program(&four, &inputs);
        assert_eq!(spec_two, spec_four);
        let a = OracleFitness::new(two, ClosenessMetric::CommonFunctions);
        let b = OracleFitness::new(four, ClosenessMetric::CommonFunctions);
        assert_eq!(a.name(), b.name());
        assert_ne!(a.cache_key(), b.cache_key());
        let cache = FitnessCache::new();
        assert!(!Arc::ptr_eq(
            &cache.shard(&a.cache_key(), &spec_two),
            &cache.shard(&b.cache_key(), &spec_four)
        ));
    }

    #[test]
    fn programs_spread_evenly_over_the_stripes() {
        // Every length-3 list program with ids 1..=16 per position: 4096
        // programs, 256 per stripe on average.
        let mut per_stripe = [0usize; STRIPE_COUNT];
        for a in 1..=16 {
            for b in 1..=16 {
                for c in 1..=16 {
                    let program = Program::from_ids(&[a, b, c]).expect("valid ids");
                    per_stripe[stripe_index(&program)] += 1;
                }
            }
        }
        let mean = 4096 / STRIPE_COUNT;
        for count in per_stripe {
            assert!(
                count > mean / 2 && count < mean * 3 / 2,
                "uneven stripes: {per_stripe:?}"
            );
        }
    }

    #[test]
    fn shard_hits_do_not_grow_the_cache() {
        let cache = FitnessCache::new();
        let first = cache.shard("nn-CF", &spec(1));
        assert_eq!(cache.shard_count(), 1);
        // Repeated lookups of the same (key, spec) pair are pure hits: the
        // same shard comes back and no new entries (and thus no cloned
        // keys/specs) are created at either map level.
        for _ in 0..100 {
            let hit = cache.shard("nn-CF", &spec(1));
            assert!(Arc::ptr_eq(&first, &hit));
        }
        assert_eq!(cache.shard_count(), 1);
        // A new spec under the same fitness key adds exactly one shard.
        let _ = cache.shard("nn-CF", &spec(2));
        assert_eq!(cache.shard_count(), 2);
    }

    #[test]
    fn trace_shards_are_keyed_by_fitness_alone() {
        let cache = FitnessCache::new();
        let a = cache.trace_shard("nn-CF");
        let b = cache.trace_shard("nn-CF");
        let c = cache.trace_shard("nn-LCS");
        assert!(Arc::ptr_eq(&a, &b), "one shard per fitness key");
        assert!(!Arc::ptr_eq(&a, &c), "models must not share encodings");
        assert!(a.is_empty());
        // Trace shards live beside — not inside — the spec-keyed score
        // shards.
        assert_eq!(cache.shard_count(), 0);
    }

    #[test]
    fn scores_round_trip_through_a_shard() {
        let cache = FitnessCache::new();
        let shard = cache.shard("edit-distance", &spec(3));
        let program = Program::new(vec![Function::Head]);
        assert!(shard.is_empty());
        assert_eq!(shard.get(&program), None);
        shard.insert(program.clone(), 0.25);
        assert_eq!(shard.get(&program), Some(0.25));
        assert_eq!(shard.len(), 1);
        // The same shard is visible through a re-acquired handle.
        assert_eq!(
            cache.shard("edit-distance", &spec(3)).get(&program),
            Some(0.25)
        );
        shard.insert(Program::new(vec![Function::Sum]), 1.5);
        assert_eq!(shard.len(), 2);
    }

    #[test]
    fn in_memory_shards_keep_no_dirty_entries() {
        let cache = FitnessCache::new();
        let shard = cache.shard("nn-CF", &spec(1));
        for (i, &f) in Function::ALL.iter().enumerate() {
            for &g in &Function::ALL[..8] {
                shard.insert(Program::new(vec![f, g]), i as f64);
            }
            shard.publish_many(&[Program::new(vec![f, f, f])], &[0.5]);
        }
        assert!(shard.len() > 100);
        for stripe in &shard.stripes {
            assert!(lock_recovering(stripe).dirty.is_none());
        }
        assert!(shard.drain_dirty().is_empty());
    }

    #[test]
    fn durable_shards_queue_each_first_publish_once() {
        let scores = SpecScores::with_dirty_lists(true);
        let programs: Vec<Program> = Function::ALL[..6]
            .iter()
            .map(|&f| Program::new(vec![f]))
            .collect();
        scores.insert_loaded(vec![(programs[0].clone(), 9.0)]);
        scores.insert(programs[0].clone(), 1.0);
        scores.insert(programs[1].clone(), 1.0);
        scores.insert(programs[1].clone(), 2.0);
        scores.publish_many(&programs[2..5], &[3.0, 4.0, 5.0]);
        scores.publish_many(&programs[1..3], &[6.0, 7.0]);
        let mut want: Vec<(Program, f64)> = vec![
            (programs[1].clone(), 1.0),
            (programs[2].clone(), 3.0),
            (programs[3].clone(), 4.0),
            (programs[4].clone(), 5.0),
        ];
        want.sort_by_cached_key(|(program, _)| program.ids());
        assert_eq!(scores.drain_dirty(), want);
        assert!(scores.drain_dirty().is_empty(), "a drain empties the lists");
        scores.insert(programs[5].clone(), 8.0);
        assert_eq!(scores.export().len(), 6);
        assert!(
            scores.drain_dirty().is_empty(),
            "an export clears the lists"
        );
    }

    #[test]
    fn published_scores_are_first_write_wins() {
        let scores = SpecScores::default();
        let program = Program::new(vec![Function::Sort]);
        scores.insert(program.clone(), 1.0);
        scores.insert(program.clone(), 2.0);
        assert_eq!(scores.get(&program), Some(1.0));
        scores.publish_many(std::slice::from_ref(&program), &[3.0]);
        assert_eq!(scores.get(&program), Some(1.0));
    }

    /// Regression test for lock-poisoning fragility: a worker panicking
    /// while holding a stripe lock used to poison the `Mutex` and abort
    /// every later user of the shard. Published scores are first-write-wins
    /// immutable, so recovering the guard is safe — and now mandatory.
    #[test]
    fn panicked_worker_does_not_poison_the_shard_for_later_users() {
        let scores = SpecScores::default();
        let sorted = Program::new(vec![Function::Sort]);
        let head = Program::new(vec![Function::Head]);
        scores.insert(sorted.clone(), 0.75);

        // Poison the stripe that holds `sorted`: panic while holding its
        // lock, the way a dying scoring worker would.
        let stripe = scores.stripe(&sorted);
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let _guard = stripe.lock().unwrap();
                panic!("worker dies while holding the stripe lock");
            });
            assert!(worker.join().is_err());
        });
        assert!(stripe.is_poisoned());

        // Every operation on the shard still works: reads see the
        // already-published score, and writes and resolution proceed.
        assert_eq!(scores.get(&sorted), Some(0.75));
        assert_eq!(scores.len(), 1);
        scores.insert(sorted.clone(), 9.0);
        assert_eq!(scores.get(&sorted), Some(0.75), "still first-write-wins");
        let two = |batch: &[Program]| vec![2.0; batch.len()];
        assert_eq!(
            resolve_batch(&scores, std::slice::from_ref(&head), two),
            vec![2.0]
        );
        assert_eq!(
            scores.get_many(&[sorted, head]),
            vec![Some(0.75), Some(2.0)]
        );
    }

    /// The same recovery guarantee for the [`FitnessCache`] shard maps:
    /// poisoning the top-level `RwLock` must not abort later lookups.
    #[test]
    fn panicked_worker_does_not_poison_the_cache_maps() {
        let cache = FitnessCache::new();
        let shard = cache.shard("nn-CF", &spec(1));
        shard.insert(Program::new(vec![Function::Sort]), 0.5);
        let _ = cache.trace_shard("nn-CF");

        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let _shards = cache.shards.write().unwrap();
                let _traces = cache.traces.write().unwrap();
                panic!("worker dies while holding both cache locks");
            });
            assert!(worker.join().is_err());
        });
        assert!(cache.shards.is_poisoned());
        assert!(cache.traces.is_poisoned());

        // Existing shards are still served (same Arc), and new shards can
        // still be created through the recovered write lock.
        assert!(Arc::ptr_eq(&shard, &cache.shard("nn-CF", &spec(1))));
        assert_eq!(
            cache
                .shard("nn-CF", &spec(1))
                .get(&Program::new(vec![Function::Sort])),
            Some(0.5)
        );
        let _ = cache.shard("nn-CF", &spec(2));
        assert_eq!(cache.shard_count(), 2);
        let _ = cache.trace_shard("nn-LCS");
    }

    #[test]
    fn a_short_score_batch_panics_before_publishing() {
        let scores = SpecScores::with_dirty_lists(true);
        let programs = vec![
            Program::new(vec![Function::Head]),
            Program::new(vec![Function::Last]),
        ];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resolve_batch(&scores, &programs, |batch| vec![1.0; batch.len() - 1])
        }));
        let payload = result.expect_err("a short batch must panic");
        let message = payload
            .downcast_ref::<String>()
            .expect("assert_eq! panics with a String");
        assert!(
            message.contains("score_batch must return one score per program"),
            "unexpected panic: {message}"
        );
        assert!(scores.is_empty(), "nothing may be published");
        assert!(scores.drain_dirty().is_empty());
    }

    /// Eight threads resolve overlapping batches on one durable shard. Two
    /// threads may score the same program at once; the scorer is a pure
    /// function of the program, as the batched-scoring contract demands, so
    /// every caller must see one value per program, and each program must
    /// be stored and queued for the durable tier exactly once.
    #[test]
    fn racing_resolves_agree_and_queue_each_program_once() {
        const THREADS: usize = 8;
        let programs: Vec<Program> = Function::ALL
            .iter()
            .flat_map(|&a| {
                Function::ALL[..4]
                    .iter()
                    .map(move |&b| Program::new(vec![a, b]))
            })
            .collect();
        let fake_score = |program: &Program| {
            program
                .ids()
                .iter()
                .fold(1.0, |acc, &id| acc * 0.5 + id as f64)
        };
        let scores = SpecScores::with_dirty_lists(true);
        let scored = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (programs, scores, scored) = (&programs, &scores, &scored);
                scope.spawn(move || {
                    // Each thread walks the programs from a different
                    // offset, in batches of 5 that overlap the others'.
                    let order: Vec<Program> = (0..programs.len())
                        .map(|i| programs[(i + thread * 7) % programs.len()].clone())
                        .collect();
                    for batch in order.chunks(5) {
                        let resolved = resolve_batch(scores, batch, |misses| {
                            scored.fetch_add(misses.len(), Ordering::SeqCst);
                            misses.iter().map(fake_score).collect()
                        });
                        for (program, value) in batch.iter().zip(resolved) {
                            assert_eq!(value.to_bits(), fake_score(program).to_bits());
                        }
                    }
                });
            }
        });
        assert!(scored.load(Ordering::SeqCst) >= programs.len());
        assert_eq!(scores.len(), programs.len());
        let dirty = scores.drain_dirty();
        assert_eq!(dirty.len(), programs.len(), "each program queued once");
        let mut queued: Vec<Vec<u8>> = dirty.iter().map(|(program, _)| program.ids()).collect();
        queued.dedup();
        assert_eq!(queued.len(), programs.len());
        for (program, value) in dirty {
            assert_eq!(scores.get(&program), Some(value));
        }
    }
}
