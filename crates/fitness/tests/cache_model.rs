//! Loom model suite for the fitness caches' first-write-wins publishes:
//! the striped score shard and the striped trace-encoding cache.
//!
//! Invariant checked: **first write wins** — when two threads resolve the
//! same program at once, both may score it, but the shard ends with one
//! entry equal to the first publisher's value, and no later publish
//! changes a value a thread has already read back. The trace-encoding
//! cache's first-write-wins publish must converge on one canonical `Arc`
//! per key.
//!
//! The seeded-bug test rebuilds the publish with its load-bearing step
//! removed and asserts the checker reports the resulting failure.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p netsyn-fitness --test
//! cache_model --release`.
#![cfg(loom)]

use loom::model::Builder;
use loom::sync::Mutex;
use netsyn_dsl::{Function, Program};
use netsyn_fitness::cache::resolve_batch;
use netsyn_fitness::SpecScores;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn program() -> Program {
    Program::new(vec![Function::ALL[0], Function::ALL[1]])
}

/// Runs `f` under the model checker expecting a failure; returns the
/// panic message.
fn catches(f: impl Fn() + Send + Sync + 'static) -> String {
    let result = catch_unwind(AssertUnwindSafe(|| {
        Builder::new().check(f);
    }));
    let payload = result.expect_err("model checker should have found a failure");
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string panic payload>")
    }
}

/// Two publishers race on one key. Each publishes its own value and reads
/// the key back; the read-backs and the final value must all agree. Under
/// first write wins they all equal the first publisher's value: the first
/// publisher reads back its own value, and the second reads back the first's.
/// A store that lets a later write replace an earlier one fails in the
/// schedule where one thread reads back before the other publishes.
fn assert_first_write_wins(read_backs: [f64; 2], last: f64) {
    assert!(
        read_backs[0] == last && read_backs[1] == last,
        "first write must win: read back {read_backs:?}, final {last}"
    );
}

/// Two threads `resolve_batch` the same program. The scorers return
/// different values, which the batched-scoring contract forbids in
/// production, only so the model can tell which publish won.
#[test]
fn racing_resolves_keep_the_first_publish() {
    let report = Builder::new().check(|| {
        let scores = Arc::new(SpecScores::default());
        let resolve = |scores: &SpecScores, value: f64| {
            let candidate = [program()];
            let returned = resolve_batch(scores, &candidate, |batch| vec![value; batch.len()]);
            assert_eq!(returned.len(), 1);
            scores.get(&candidate[0]).expect("published")
        };
        let racer = {
            let scores = Arc::clone(&scores);
            loom::thread::spawn(move || resolve(&scores, 2.0))
        };
        let mine = resolve(&scores, 1.0);
        let theirs = racer.join().unwrap();
        assert_eq!(scores.len(), 1, "one entry per program");
        assert_first_write_wins([mine, theirs], scores.get(&program()).unwrap());
    });
    assert!(report.complete, "schedule space must be fully explored");
    assert!(
        report.iterations > 1,
        "the publishes must actually interleave"
    );
}

/// Seeded bug: a publish that overwrites an existing entry lets the second
/// writer win. The model checker must find the schedule where the first
/// publisher has already read its value back.
#[test]
fn finds_the_second_writer_winning_when_publish_overwrites() {
    let message = catches(|| {
        let table = Arc::new(Mutex::new(HashMap::<&'static str, f64>::new()));
        let publish = |table: &Mutex<HashMap<&'static str, f64>>, value: f64| {
            // BUG (seeded): `insert` replaces a published score instead of
            // leaving it (`entry(..).or_insert(..)`).
            table.lock().unwrap().insert("k", value);
            table.lock().unwrap()["k"]
        };
        let racer = {
            let table = Arc::clone(&table);
            loom::thread::spawn(move || publish(&table, 2.0))
        };
        let mine = publish(&table, 1.0);
        let theirs = racer.join().unwrap();
        let last = table.lock().unwrap()["k"];
        assert_first_write_wins([mine, theirs], last);
    });
    assert!(
        message.contains("first write must win"),
        "expected the first-write-wins assertion, got: {message}"
    );
}

/// Two threads race `publish_many` on the trace-encoding cache with the
/// same key: first write wins and both callers converge on the *same*
/// canonical `Arc`, so downstream batches share one buffer.
#[test]
fn trace_cache_publish_converges_on_one_canonical_arc() {
    use netsyn_fitness::TraceEncodingCache;
    let report = Builder::new().check(|| {
        let cache = Arc::new(TraceEncodingCache::default());
        let racer = {
            let cache = Arc::clone(&cache);
            loom::thread::spawn(move || {
                let key = [1usize, 2, 3];
                let fresh: Arc<[f32]> = vec![1.0f32].into();
                cache.publish_many(vec![(&key[..], fresh)]).remove(0)
            })
        };
        let key = [1usize, 2, 3];
        let fresh: Arc<[f32]> = vec![1.0f32].into();
        let mine = cache.publish_many(vec![(&key[..], fresh)]).remove(0);
        let theirs = racer.join().unwrap();
        assert!(
            Arc::ptr_eq(&mine, &theirs),
            "both publishers must converge on one canonical buffer"
        );
        let hit = cache.get_many(&[&key[..]]).remove(0).expect("published");
        assert!(Arc::ptr_eq(&hit, &mine));
    });
    assert!(report.complete, "schedule space must be fully explored");
}
