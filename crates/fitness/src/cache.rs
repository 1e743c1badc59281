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
//! The whole cache is `Sync` and designed for a real multi-thread pool (the
//! workspace's rayon shim does work stealing, so the evaluation harness's
//! task×run fan-out genuinely runs repetitions of one task concurrently,
//! all sharing one shard):
//!
//! * **Striped locking** — a [`SpecScores`] shard spreads its entries over
//!   [`STRIPE_COUNT`] independently locked stripes keyed by the program's
//!   hash, so concurrent lookups/inserts of different programs rarely
//!   contend. Batch operations ([`SpecScores::claim_many`],
//!   [`SpecScores::publish_many`]) group programs by stripe and take each
//!   stripe lock once. No lock is ever held while scoring.
//! * **In-flight claims** — scoring the same program twice from two threads
//!   is wasted network inference (and makes memo-hit counters
//!   nondeterministic), so a shard tracks *in-flight* programs: a thread
//!   that intends to score first [`claims`](SpecScores::claim_many) the
//!   program. Exactly one thread wins the claim and scores; the others see
//!   [`Claim::Pending`] and [`wait`](SpecScores::wait) for the published
//!   value instead of recomputing it — with one deliberate exception: a
//!   thread that itself holds claims never blocks (see [`resolve_score`])
//!   and recomputes the bit-identical value instead, so the exactly-once
//!   property is "always, except the rare stolen-job-on-a-claimant's-stack
//!   collision", never a hard invariant. Publishing is
//!   **first-write-wins**: a score, once cached, is never overwritten (all
//!   writers would write the bit-identical value anyway).
//! * **Panic safety** — a claimant that dies before publishing would leave
//!   waiters hanging; [`ClaimGuard`] abandons unpublished claims on drop,
//!   waking waiters, who then re-claim and score the program themselves
//!   (see [`resolve_score`]).

use crate::encoding::TraceEncodingCache;
use crate::persist::{DurableOptions, DurableStore, FlushStats, LoadReport, ScoreSnapshot};
use crate::sync::{lock_recovering, read_recovering, wait_recovering, write_recovering};
use crate::sync::{Condvar, Mutex};
use netsyn_dsl::{IoSpec, Program};
use netsyn_nn::{FxHashMap, FxHasher};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::{Arc, OnceLock, RwLock};

/// Number of independently locked stripes in a [`SpecScores`] shard.
/// A power of two so the stripe index is a mask of the hash.
pub const STRIPE_COUNT: usize = 16;

/// One cached entry: a published score, or a marker that some thread is
/// currently computing it.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Done(f64),
    InFlight,
}

#[derive(Debug)]
struct Stripe {
    slots: Mutex<Slots>,
    /// Signalled whenever a score is published into — or an in-flight claim
    /// is abandoned from — this stripe.
    published: Condvar,
}

/// One stripe's entries, plus — on shards of a durable cache — the dirty
/// list: the scores first published since the durable tier last drained
/// it. Each key is pushed at most once, when its slot first turns
/// [`Slot::Done`]; in-memory caches keep no list and pay nothing.
#[derive(Debug)]
struct Slots {
    map: FxHashMap<Program, Slot>,
    dirty: Option<Vec<(Program, f64)>>,
}

impl Slots {
    fn mark_dirty(&mut self, program: &Program, score: f64) {
        if let Some(dirty) = &mut self.dirty {
            dirty.push((program.clone(), score));
        }
    }
}

/// The result of claiming a program for scoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Claim {
    /// The score is already cached.
    Hit(f64),
    /// The caller now owns the claim: it must score the program and
    /// [`publish`](SpecScores::publish) (or abandon) it.
    Claimed,
    /// Another thread holds the claim; [`SpecScores::wait`] for the value.
    Pending,
}

/// Scores cached for one `(fitness, spec)` pair, striped for concurrent
/// access (see the module docs).
#[derive(Debug)]
pub struct SpecScores {
    stripes: Vec<Stripe>,
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
        let stripe = || Stripe {
            slots: Mutex::new(Slots {
                map: FxHashMap::default(),
                dirty: recording.then(Vec::new),
            }),
            published: Condvar::default(),
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
    fn stripe(&self, program: &Program) -> &Stripe {
        &self.stripes[stripe_index(program)]
    }

    /// The cached score of `candidate`, if published.
    #[must_use]
    pub fn get(&self, candidate: &Program) -> Option<f64> {
        match lock_recovering(&self.stripe(candidate).slots)
            .map
            .get(candidate)
        {
            Some(Slot::Done(score)) => Some(*score),
            _ => None,
        }
    }

    /// Caches one score (first write wins; a published score is never
    /// overwritten, and any thread waiting on an in-flight claim for
    /// `candidate` is woken).
    pub fn insert(&self, candidate: Program, score: f64) {
        let stripe = self.stripe(&candidate);
        let mut slots = lock_recovering(&stripe.slots);
        let in_flight = match slots.map.get(&candidate) {
            Some(Slot::Done(_)) => return,
            Some(Slot::InFlight) => true,
            None => false,
        };
        slots.mark_dirty(&candidate, score);
        slots.map.insert(candidate, Slot::Done(score));
        if in_flight {
            stripe.published.notify_all();
        }
    }

    /// Caches scores read back from disk: first write wins, and nothing
    /// goes on the dirty list, so they are never appended again.
    pub(crate) fn insert_loaded(&self, entries: Vec<(Program, f64)>) {
        for (program, score) in entries {
            lock_recovering(&self.stripe(&program).slots)
                .map
                .entry(program)
                .or_insert(Slot::Done(score));
        }
    }

    /// Published scores for a whole batch, taking each stripe lock once.
    #[must_use]
    pub fn get_many(&self, programs: &[Program]) -> Vec<Option<f64>> {
        let mut out = vec![None; programs.len()];
        self.for_each_stripe(Notify::Nobody, programs, |slots, index| {
            if let Some(Slot::Done(score)) = slots.map.get(&programs[index]) {
                out[index] = Some(*score);
            }
        });
        out
    }

    /// Claims a whole batch for scoring, taking each stripe lock once: for
    /// each program, either its published score ([`Claim::Hit`]), ownership
    /// of the scoring work ([`Claim::Claimed`] — the caller must publish or
    /// abandon, see [`ClaimGuard`]), or [`Claim::Pending`] when another
    /// thread already owns it.
    #[must_use]
    pub fn claim_many(&self, programs: &[Program]) -> Vec<Claim> {
        let mut out = vec![Claim::Pending; programs.len()];
        self.for_each_stripe(Notify::Nobody, programs, |slots, index| {
            out[index] = match slots.map.get(&programs[index]) {
                Some(Slot::Done(score)) => Claim::Hit(*score),
                Some(Slot::InFlight) => Claim::Pending,
                None => {
                    slots.map.insert(programs[index].clone(), Slot::InFlight);
                    Claim::Claimed
                }
            };
        });
        out
    }

    /// [`SpecScores::claim_many`] for a single program.
    #[must_use]
    pub fn claim(&self, program: &Program) -> Claim {
        let mut slots = lock_recovering(&self.stripe(program).slots);
        match slots.map.get(program) {
            Some(Slot::Done(score)) => Claim::Hit(*score),
            Some(Slot::InFlight) => Claim::Pending,
            None => {
                slots.map.insert(program.clone(), Slot::InFlight);
                Claim::Claimed
            }
        }
    }

    /// Publishes one claimed score (equivalent to [`SpecScores::insert`]).
    pub fn publish(&self, program: Program, score: f64) {
        self.insert(program, score);
    }

    /// Publishes a batch of claimed scores, taking each stripe lock once
    /// and waking every thread waiting on one of them.
    ///
    /// # Panics
    ///
    /// Panics if `scores` is not exactly one value per program. This is a
    /// hard assert (not `debug_assert`): silently truncating would leave
    /// the unmatched programs `InFlight` forever with no owner, permanently
    /// hanging any thread waiting on them — a panic instead trips the
    /// caller's [`ClaimGuard`], which abandons the claims and wakes the
    /// waiters.
    pub fn publish_many(&self, programs: &[Program], scores: &[f64]) {
        assert_eq!(
            programs.len(),
            scores.len(),
            "publish_many requires one score per claimed program"
        );
        self.for_each_stripe(Notify::Waiters, programs, |slots, index| {
            // The common case is flipping this thread's own InFlight claim:
            // update the slot in place (no key clone). First write wins —
            // never replace a published score.
            let (program, score) = (&programs[index], scores[index]);
            match slots.map.get_mut(program) {
                Some(Slot::Done(_)) => return,
                Some(slot) => *slot = Slot::Done(score),
                None => {
                    slots.map.insert(program.clone(), Slot::Done(score));
                }
            }
            slots.mark_dirty(program, score);
        });
    }

    /// Drops the in-flight claims on `programs` that were never published,
    /// waking waiters so they can re-claim (used on panic, see
    /// [`ClaimGuard`]). Published entries are left untouched.
    pub fn abandon_many(&self, programs: &[Program]) {
        self.for_each_stripe(Notify::Waiters, programs, |slots, index| {
            if let Some(Slot::InFlight) = slots.map.get(&programs[index]) {
                slots.map.remove(&programs[index]);
            }
        });
    }

    /// Blocks until the in-flight claim on `program` resolves: `Some(score)`
    /// once published, or `None` if the claim was abandoned (or never
    /// existed) — the caller should then claim and score it itself.
    #[must_use]
    pub fn wait(&self, program: &Program) -> Option<f64> {
        let stripe = self.stripe(program);
        let mut slots = lock_recovering(&stripe.slots);
        loop {
            match slots.map.get(program) {
                Some(Slot::Done(score)) => return Some(*score),
                Some(Slot::InFlight) => {
                    slots = wait_recovering(&stripe.published, slots);
                }
                None => return None,
            }
        }
    }

    /// Number of *published* scores (in-flight claims are not counted).
    #[must_use]
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|stripe| {
                lock_recovering(&stripe.slots)
                    .map
                    .values()
                    .filter(|slot| matches!(slot, Slot::Done(_)))
                    .count()
            })
            .sum()
    }

    /// Whether no scores are published.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every published `(program, score)` entry, in a deterministic order
    /// (sorted by the program's function ids) — the full image the durable
    /// tier compacts to. In-flight claims are not included. Clears the
    /// dirty lists under the same stripe locks, so every entry lands either
    /// in this export or in a later [`SpecScores::drain_dirty`], never both.
    pub(crate) fn export(&self) -> Vec<(Program, f64)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let mut slots = lock_recovering(&stripe.slots);
            if let Some(dirty) = &mut slots.dirty {
                dirty.clear();
            }
            for (program, slot) in slots.map.iter() {
                if let Slot::Done(score) = slot {
                    out.push((program.clone(), *score));
                }
            }
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
            if let Some(dirty) = &mut lock_recovering(&stripe.slots).dirty {
                out.append(dirty);
            }
        }
        out.sort_by_cached_key(|(program, _)| program.ids());
        out
    }

    /// Runs `body` once per program index, grouped so each stripe's lock is
    /// acquired at most once for the whole batch; with [`Notify::Waiters`]
    /// every waiter of each touched stripe is woken afterwards
    /// (publish/abandon paths).
    fn for_each_stripe(
        &self,
        notify: Notify,
        programs: &[Program],
        mut body: impl FnMut(&mut Slots, usize),
    ) {
        let mut by_stripe: Vec<Vec<usize>> = vec![Vec::new(); STRIPE_COUNT];
        for (index, program) in programs.iter().enumerate() {
            by_stripe[stripe_index(program)].push(index);
        }
        for (stripe, indices) in self.stripes.iter().zip(by_stripe) {
            if indices.is_empty() {
                continue;
            }
            {
                let mut slots = lock_recovering(&stripe.slots);
                for index in indices {
                    body(&mut slots, index);
                }
            }
            if notify == Notify::Waiters {
                stripe.published.notify_all();
            }
        }
    }
}

/// Whether a batched stripe sweep wakes each touched stripe's waiters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Notify {
    Nobody,
    Waiters,
}

thread_local! {
    /// Number of in-flight claims the current thread holds (armed
    /// [`ClaimGuard`]s). Load-bearing for deadlock freedom: a thread that
    /// holds claims must never *block* waiting on someone else's claim —
    /// on the work-stealing pool, a claimant's scoring call enters the
    /// pool's helping loop, which can execute a stolen sibling attempt on
    /// the same stack; if that attempt blocked on a claim held by a frame
    /// below it, the claimant could never resume to publish. Blocking only
    /// when this counter is zero makes wait-for cycles impossible (every
    /// blocked waiter holds nothing, and claimants always run to
    /// completion), at the cost of an occasional duplicated — bit-identical
    /// — score in exactly the stolen-job collision case.
    static CLAIMS_HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Panic-safe ownership of a batch of in-flight claims.
///
/// Holds the programs a thread has [`Claimed`](Claim::Claimed); on
/// [`ClaimGuard::publish_scores`] the scores are published and the guard is
/// disarmed. If the guard is dropped without publishing — the scoring call
/// panicked — every still-unpublished claim is abandoned so waiting threads
/// re-claim the programs instead of hanging forever. While armed, the guard
/// marks the current thread as a claim holder (see `CLAIMS_HELD`).
#[must_use]
pub struct ClaimGuard<'a> {
    scores: &'a SpecScores,
    programs: &'a [Program],
    armed: bool,
}

impl<'a> ClaimGuard<'a> {
    /// Guards claims on `programs` (which the caller must have
    /// successfully claimed) until published or dropped.
    pub fn new(scores: &'a SpecScores, programs: &'a [Program]) -> Self {
        CLAIMS_HELD.with(|held| held.set(held.get() + 1));
        ClaimGuard {
            scores,
            programs,
            armed: true,
        }
    }

    /// Publishes one score per guarded program (in order) and disarms.
    pub fn publish_scores(mut self, values: &[f64]) {
        self.scores.publish_many(self.programs, values);
        self.armed = false;
        CLAIMS_HELD.with(|held| held.set(held.get() - 1));
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.scores.abandon_many(self.programs);
            CLAIMS_HELD.with(|held| held.set(held.get() - 1));
        }
    }
}

/// Resolves one program's score through the shard's claim protocol: serve
/// the published value, or win the claim and compute it with `score` (a
/// panic abandons the claim), or — when another thread owns the claim —
/// wait for its published value, re-claiming if the owner abandons.
///
/// At most one thread runs `score` for a given program per shard in every
/// ordinary race. The single exception is deliberate: if the *current
/// thread already holds claims* (it is a stolen pool job running on a
/// claimant's stack), blocking could dead-lock on a claim held by a lower
/// frame of this very stack, so the score is recomputed locally instead —
/// bit-identical by the batched-scoring contract, and first-write-wins
/// publication keeps one canonical entry.
pub fn resolve_score(
    scores: &SpecScores,
    program: &Program,
    score: impl Fn(&Program) -> f64,
) -> f64 {
    loop {
        match scores.claim(program) {
            Claim::Hit(value) => return value,
            Claim::Claimed => {
                let owned = std::slice::from_ref(program);
                let guard = ClaimGuard::new(scores, owned);
                let value = score(program);
                guard.publish_scores(&[value]);
                return value;
            }
            Claim::Pending => {
                if CLAIMS_HELD.with(std::cell::Cell::get) > 0 {
                    // Never block while holding claims (see CLAIMS_HELD):
                    // compute the bit-identical value ourselves and publish
                    // it first-write-wins, leaving the owner's claim alone.
                    let value = score(program);
                    scores.insert(program.clone(), value);
                    return value;
                }
                if let Some(value) = scores.wait(program) {
                    return value;
                }
                // The claimant abandoned (panicked); loop and re-claim.
            }
        }
    }
}

/// Resolves a whole batch through the claim protocol — the shared engine of
/// the GA's `evaluate_population` and the DFS neighborhood's
/// `rank_neighbors` (one implementation, so protocol fixes cannot drift):
/// programs with published scores are served as hits; the programs this
/// call wins are scored with **one** `score_batch` invocation and published
/// (a panic abandons the claims, see [`ClaimGuard`]); programs another
/// thread is scoring are awaited via [`resolve_score`]. Scores land by
/// input index, so the result is independent of scheduling.
///
/// `score_batch` must return one value per input program, in input order,
/// bit-identical to per-program scoring (the workspace-wide contract).
pub fn resolve_batch(
    scores: &SpecScores,
    programs: &[Program],
    score_batch: impl Fn(&[Program]) -> Vec<f64>,
) -> Vec<f64> {
    let mut resolved: Vec<Option<f64>> = vec![None; programs.len()];
    let claims = scores.claim_many(programs);
    let mut to_score: Vec<usize> = Vec::new();
    let mut awaited: Vec<usize> = Vec::new();
    for (index, claim) in claims.into_iter().enumerate() {
        match claim {
            Claim::Hit(value) => resolved[index] = Some(value),
            Claim::Claimed => to_score.push(index),
            Claim::Pending => awaited.push(index),
        }
    }
    if !to_score.is_empty() {
        let batch: Vec<Program> = to_score.iter().map(|&i| programs[i].clone()).collect();
        let guard = ClaimGuard::new(scores, &batch);
        let fresh = score_batch(&batch);
        debug_assert_eq!(fresh.len(), batch.len());
        for (&index, &value) in to_score.iter().zip(fresh.iter()) {
            resolved[index] = Some(value);
        }
        guard.publish_scores(&fresh);
    }
    for index in awaited {
        resolved[index] = Some(resolve_score(scores, &programs[index], |program| {
            score_batch(std::slice::from_ref(program))[0]
        }));
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
            let claimed = vec![Program::new(vec![f, f, f])];
            assert_eq!(shard.claim_many(&claimed), vec![Claim::Claimed]);
            shard.publish_many(&claimed, &[0.5]);
        }
        assert!(shard.len() > 100);
        for stripe in &shard.stripes {
            assert!(lock_recovering(&stripe.slots).dirty.is_none());
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
        let _ = scores.claim_many(&programs[2..]);
        scores.abandon_many(&programs[5..]);
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

    #[test]
    fn claim_protocol_round_trip() {
        let scores = SpecScores::default();
        let programs: Vec<Program> = vec![
            Program::new(vec![Function::Head]),
            Program::new(vec![Function::Last]),
            Program::new(vec![Function::Sum]),
        ];
        scores.insert(programs[0].clone(), 0.5);
        let claims = scores.claim_many(&programs);
        assert_eq!(claims[0], Claim::Hit(0.5));
        assert_eq!(claims[1], Claim::Claimed);
        assert_eq!(claims[2], Claim::Claimed);
        // A second claimant sees the in-flight entries as pending.
        assert_eq!(scores.claim(&programs[1]), Claim::Pending);
        // In-flight claims are not published scores.
        assert_eq!(scores.len(), 1);
        assert_eq!(scores.get_many(&programs), vec![Some(0.5), None, None]);
        scores.publish_many(&programs[1..], &[1.5, 2.5]);
        assert_eq!(scores.len(), 3);
        assert_eq!(
            scores.get_many(&programs),
            vec![Some(0.5), Some(1.5), Some(2.5)]
        );
        assert_eq!(scores.wait(&programs[2]), Some(2.5));
    }

    #[test]
    fn abandoned_claims_unblock_waiters() {
        let scores = SpecScores::default();
        let program = Program::new(vec![Function::Reverse]);
        assert_eq!(scores.claim(&program), Claim::Claimed);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| scores.wait(&program));
            // Give the waiter a moment to block, then abandon the claim.
            std::thread::sleep(std::time::Duration::from_millis(20));
            scores.abandon_many(std::slice::from_ref(&program));
            assert_eq!(waiter.join().expect("waiter survives"), None);
        });
        // The program is claimable again.
        assert_eq!(scores.claim(&program), Claim::Claimed);
    }

    #[test]
    fn dropped_claim_guard_abandons_unpublished_claims() {
        let scores = SpecScores::default();
        let programs = vec![
            Program::new(vec![Function::Head]),
            Program::new(vec![Function::Last]),
        ];
        let claims = scores.claim_many(&programs);
        assert!(claims.iter().all(|c| *c == Claim::Claimed));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = ClaimGuard::new(&scores, &programs);
            panic!("scoring failed");
        }));
        assert!(result.is_err());
        // Both claims were abandoned: they can be claimed afresh.
        assert_eq!(scores.claim(&programs[0]), Claim::Claimed);
        assert_eq!(scores.claim(&programs[1]), Claim::Claimed);
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
                let _guard = stripe.slots.lock().unwrap();
                panic!("worker dies while holding the stripe lock");
            });
            assert!(worker.join().is_err());
        });
        assert!(stripe.slots.is_poisoned());

        // Every operation on the shard still works: reads see the
        // already-published score, writes and the claim protocol proceed.
        assert_eq!(scores.get(&sorted), Some(0.75));
        assert_eq!(scores.len(), 1);
        scores.insert(sorted.clone(), 9.0);
        assert_eq!(scores.get(&sorted), Some(0.75), "still first-write-wins");
        assert_eq!(resolve_score(&scores, &head, |_| 2.0), 2.0);
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

    /// The satellite regression test: hammer one shard from N threads that
    /// all try to score the same batch of programs through the claim
    /// protocol. Every program must be scored by exactly one thread, and
    /// every thread must observe the same published values. (Exactly-once
    /// is deterministic here because these are plain threads holding no
    /// other claims while they wait — the `resolve_score` no-block
    /// recompute escape never triggers.)
    #[test]
    fn n_threads_never_score_the_same_program_twice() {
        const THREADS: usize = 8;
        let programs: Vec<Program> = Function::ALL
            .iter()
            .flat_map(|&a| {
                Function::ALL[..4]
                    .iter()
                    .map(move |&b| Program::new(vec![a, b]))
            })
            .collect();
        let scores = SpecScores::default();
        let score_calls: Vec<AtomicUsize> =
            (0..programs.len()).map(|_| AtomicUsize::new(0)).collect();
        let fake_score = |index: usize| (index as f64) * 0.25 + 1.0;
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let programs = &programs;
                let scores = &scores;
                let score_calls = &score_calls;
                scope.spawn(move || {
                    // Each thread walks the batch from a different offset so
                    // claims genuinely interleave.
                    let observed: Vec<f64> = (0..programs.len())
                        .map(|i| {
                            let index = (i + thread * 7) % programs.len();
                            resolve_score(scores, &programs[index], |_| {
                                score_calls[index].fetch_add(1, Ordering::SeqCst);
                                fake_score(index)
                            })
                        })
                        .collect();
                    for (i, value) in observed.iter().enumerate() {
                        let index = (i + thread * 7) % programs.len();
                        assert_eq!(*value, fake_score(index));
                    }
                });
            }
        });
        for (index, calls) in score_calls.iter().enumerate() {
            assert_eq!(
                calls.load(Ordering::SeqCst),
                1,
                "program {index} must be scored exactly once across {THREADS} threads"
            );
        }
        assert_eq!(scores.len(), programs.len());
    }
}
