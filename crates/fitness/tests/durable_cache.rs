//! Integration tests of the durable cache tier: warm restarts, the on-disk
//! fault matrix, and the degradation contract.
//!
//! Every test follows the same shape — persist a cache, damage (or don't)
//! the directory in a specific way, reopen, and assert the two halves of
//! the contract:
//!
//! 1. **Never wrong**: every score served by the reopened cache is
//!    bit-identical to the score originally inserted. Corruption may only
//!    remove entries, never alter them.
//! 2. **Never fatal**: opening a damaged directory cannot panic or error
//!    (only directory *creation* can fail); the worst case is a cold cache
//!    plus a quarantined file left on disk for inspection.

use netsyn_dsl::{Function, IntPredicate, IoExample, IoSpec, MapOp, Program, Value};
use netsyn_fitness::dataset::{generate_dataset, BalanceMetric, DatasetConfig};
use netsyn_fitness::persist::SCORES_FILE;
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_fitness::{
    DurableOptions, FitnessCache, FitnessFunction, FitnessNetConfig, FlushStats, LearnedFitness,
};
use netsyn_persist::{crc32, decode_log, ByteReader, ByteWriter, FaultPlan, MAGIC};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};

/// A per-test scratch directory (removed at the start so a crashed earlier
/// run cannot leak state in).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netsyn_durable_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> IoSpec {
    IoSpec::new(vec![
        IoExample::new(vec![Value::List(vec![-2, 10, 3])], Value::List(vec![6, 20])),
        IoExample::new(vec![Value::Int(4), Value::Int(7)], Value::Int(11)),
    ])
}

/// A family of distinct programs to use as score keys.
fn programs(n: usize) -> Vec<Program> {
    let pool = [
        Function::Sort,
        Function::Reverse,
        Function::Sum,
        Function::Head,
        Function::Last,
        Function::Filter(IntPredicate::Positive),
        Function::Map(MapOp::Mul2),
        Function::Minimum,
        Function::Maximum,
    ];
    (0..n)
        .map(|i| {
            Program::new(vec![
                pool[i % pool.len()],
                pool[(i / pool.len()) % pool.len()],
            ])
        })
        .collect()
}

/// Scores with awkward bit patterns: negative zero, subnormals, NaN-free
/// extremes — everything must round-trip bit-for-bit.
fn score_for(i: usize) -> f64 {
    match i % 5 {
        0 => -0.0,
        1 => f64::MIN_POSITIVE / 2.0,
        2 => 1.0 / 3.0,
        3 => -(i as f64) * 1e300,
        _ => i as f64 + 0.5,
    }
}

const KEY: &str = "test-model#fp=deadbeef";

/// Persists `n` scores under `KEY` and returns the flushed directory.
fn seed_scores(dir: &Path, n: usize) {
    let cache = FitnessCache::durable(dir).expect("open durable cache");
    let memo = cache.shard(KEY, &spec());
    for (i, p) in programs(n).into_iter().enumerate() {
        memo.insert(p, score_for(i));
    }
    let stats = cache.flush().expect("flush");
    assert_eq!(stats.score_entries, n, "every inserted score is appended");
}

/// Asserts the reopened cache serves exactly `expect` of the seeded scores,
/// each bit-identical — never a wrong value.
fn assert_scores_intact(cache: &FitnessCache, seeded: usize, expect: usize) {
    let memo = cache.shard(KEY, &spec());
    assert_eq!(memo.len(), expect);
    for (i, p) in programs(seeded).into_iter().enumerate() {
        if let Some(score) = memo.get(&p) {
            assert_eq!(
                score.to_bits(),
                score_for(i).to_bits(),
                "a surviving score must be bit-identical (program {i})"
            );
        } else {
            assert!(
                i >= expect,
                "only a suffix may be lost, but program {i} of {expect} is gone"
            );
        }
    }
}

#[test]
fn warm_restart_round_trips_every_score_bit_identically() {
    let dir = scratch("round_trip");
    seed_scores(&dir, 9);

    let cache = FitnessCache::durable(&dir).expect("reopen");
    let report = cache.load_report().expect("durable cache has a report");
    assert_eq!(report.score_entries, 9);
    assert!(report.quarantined.is_empty());
    assert!(report.damage.is_empty());
    assert_scores_intact(&cache, 9, 9);
}

#[test]
fn flush_appends_only_the_delta() {
    let dir = scratch("delta");
    let cache = FitnessCache::durable(&dir).expect("open");
    let memo = cache.shard(KEY, &spec());
    let progs = programs(6);
    for (i, p) in progs.iter().take(4).enumerate() {
        memo.insert(p.clone(), score_for(i));
    }
    assert_eq!(cache.flush().expect("flush").score_entries, 4);
    // A second flush with nothing new appends nothing.
    assert_eq!(cache.flush().expect("flush").score_entries, 0);
    for (i, p) in progs.iter().enumerate().skip(4) {
        memo.insert(p.clone(), score_for(i));
    }
    assert_eq!(cache.flush().expect("flush").score_entries, 2);
    drop(cache);

    let reopened = FitnessCache::durable(&dir).expect("reopen");
    assert_scores_intact(&reopened, 6, 6);
}

#[test]
fn torn_final_record_drops_only_the_tail() {
    let dir = scratch("torn_tail");
    // Two flushes → two delta records on disk (each flush appends one
    // record per dirty shard).
    {
        let cache = FitnessCache::durable(&dir).expect("open");
        let memo = cache.shard(KEY, &spec());
        let progs = programs(5);
        for (i, p) in progs.iter().take(4).enumerate() {
            memo.insert(p.clone(), score_for(i));
        }
        cache.flush().expect("flush");
        memo.insert(progs[4].clone(), score_for(4));
        cache.flush().expect("flush");
    }
    // Tear the last record: chop a handful of bytes off the log, as a crash
    // mid-append would.
    let path = dir.join(SCORES_FILE);
    let bytes = std::fs::read(&path).expect("read log");
    std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("truncate log");

    let cache = FitnessCache::durable(&dir).expect("reopen");
    let report = cache.load_report().expect("report");
    assert_eq!(
        report.score_entries, 4,
        "exactly the torn final record is lost"
    );
    assert!(
        !report.damage.is_empty(),
        "the dropped suffix must be reported"
    );
    assert!(report.quarantined.is_empty());
    assert_scores_intact(&cache, 5, 4);
}

#[test]
fn bit_flip_mid_log_never_yields_a_wrong_score() {
    let dir = scratch("bit_flip");
    seed_scores(&dir, 8);
    let path = dir.join(SCORES_FILE);
    let original = std::fs::read(&path).expect("read log");

    // Flip one bit at every offset past the file header in turn: whatever
    // the reopened cache serves must be one of the original scores —
    // corruption may shrink the cache, never corrupt a value.
    let header_end = 65; // MAGIC(8) + version(4) + hlen(4) + hdata(45) + crc(4)
    for offset in header_end..original.len() {
        let mut damaged = original.clone();
        damaged[offset] ^= 1 << (offset % 8);
        std::fs::write(&path, &damaged).expect("write damaged log");

        let cache = FitnessCache::durable(&dir).expect("reopen survives any flip");
        assert_scores_intact(&cache, 8, cache.shard(KEY, &spec()).len());
        drop(cache);
        // Drop flushes, but loaded entries are never queued for appending,
        // so it writes nothing — restore the damaged state's baseline anyway.
        std::fs::write(&path, &original).expect("restore log");
    }
}

#[test]
fn truncated_header_is_quarantined_and_cache_stays_usable() {
    let dir = scratch("truncated_header");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(SCORES_FILE), &MAGIC[..6]).expect("write stub");

    let cache = FitnessCache::durable(&dir).expect("open");
    let report = cache.load_report().expect("report");
    assert_eq!(report.score_entries, 0);
    assert_eq!(report.quarantined.len(), 1, "the stub must be quarantined");
    assert!(
        !dir.join(SCORES_FILE).exists(),
        "the unreadable file is renamed away"
    );
    let quarantined = &report.quarantined[0];
    assert!(
        quarantined.exists(),
        "quarantined files are kept, not deleted"
    );

    // The cold cache is fully usable: insert, flush, restart warm.
    cache
        .shard(KEY, &spec())
        .insert(programs(1).remove(0), 42.0);
    assert_eq!(cache.flush().expect("flush").score_entries, 1);
    drop(cache);
    let reopened = FitnessCache::durable(&dir).expect("reopen");
    assert_eq!(reopened.load_report().expect("report").score_entries, 1);
}

#[test]
fn empty_file_is_a_valid_empty_log_not_damage() {
    let dir = scratch("empty_file");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(SCORES_FILE), b"").expect("write empty");

    let cache = FitnessCache::durable(&dir).expect("open");
    let report = cache.load_report().expect("report");
    assert_eq!(report.score_entries, 0);
    assert!(
        report.quarantined.is_empty(),
        "an empty log is not an error"
    );
    assert!(report.damage.is_empty());
}

#[test]
fn wrong_version_file_is_quarantined() {
    let dir = scratch("wrong_version");
    std::fs::create_dir_all(&dir).expect("mkdir");
    // A structurally valid log header claiming format version 2.
    let hdata = b"future-header";
    let version: u32 = 2;
    let mut file = Vec::new();
    file.extend_from_slice(MAGIC);
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&(hdata.len() as u32).to_le_bytes());
    file.extend_from_slice(hdata);
    let mut crc_input = Vec::new();
    crc_input.extend_from_slice(&version.to_le_bytes());
    crc_input.extend_from_slice(&(hdata.len() as u32).to_le_bytes());
    crc_input.extend_from_slice(hdata);
    file.extend_from_slice(&crc32(&crc_input).to_le_bytes());
    std::fs::write(dir.join(SCORES_FILE), &file).expect("write future log");

    let cache = FitnessCache::durable(&dir).expect("open");
    let report = cache.load_report().expect("report");
    assert_eq!(report.quarantined.len(), 1, "future versions are preserved");
    assert_eq!(report.score_entries, 0);
}

#[test]
fn swapped_files_fail_the_kind_check_and_start_cold() {
    // Another log kind in the scores.nsl slot — e.g. an old trace log
    // copied over it. The file is a structurally valid log with intact
    // records, so only the app-level kind header catches it; the same
    // check rejects logs whose embedded domain name or vocabulary
    // fingerprint disagrees.
    let dir = scratch("swapped");
    seed_scores(&dir, 3);
    let path = dir.join(SCORES_FILE);
    let log = decode_log(&std::fs::read(&path).expect("read log")).expect("valid log");
    let header = log.header.expect("seeded log has a header");
    let mut reader = ByteReader::new(&header);
    assert_eq!(reader.get_str().expect("kind"), "netsyn-fitness/scores");
    let rest = reader.get_raw(reader.remaining()).expect("rest of header");
    let mut foreign = ByteWriter::new();
    foreign.put_str("netsyn-fitness/traces");
    let mut file =
        netsyn_persist::log::encode_header(&[foreign.into_bytes(), rest.to_vec()].concat());
    for record in &log.records {
        file.extend_from_slice(&netsyn_persist::log::encode_record(record));
    }
    std::fs::write(&path, &file).expect("write foreign log");

    let cache = FitnessCache::durable(&dir).expect("open");
    let report = cache.load_report().expect("report");
    assert_eq!(
        report.quarantined.len(),
        1,
        "the mis-kinded file must be quarantined"
    );
    assert_eq!(report.score_entries, 0);
    assert!(cache.shard(KEY, &spec()).is_empty(), "cold, never aliased");
}

#[test]
fn cross_domain_reopen_quarantines_and_starts_cold() {
    // Caches persisted under one domain must never be served to another:
    // the header's domain name + vocabulary fingerprint quarantine the
    // file and the cache starts cold.
    let dir = scratch("cross_domain");
    seed_scores(&dir, 5); // list-domain by default

    let str_options = DurableOptions {
        domain: netsyn_dsl::DomainId::Str,
        ..DurableOptions::default()
    };
    let cache = FitnessCache::durable_with(&dir, str_options).expect("open for str domain");
    let report = cache.load_report().expect("report");
    assert_eq!(
        report.quarantined.len(),
        1,
        "the list-domain score log must be quarantined, not read"
    );
    assert_eq!(report.score_entries, 0);
    assert!(cache.shard(KEY, &spec()).is_empty(), "cold, never aliased");
    // The quarantined file survives on disk for inspection.
    assert!(report.quarantined[0].exists());

    // The string-domain cache is fully usable in the same directory, and a
    // same-domain reopen comes back warm.
    cache.shard(KEY, &spec()).insert(programs(1).remove(0), 7.5);
    assert_eq!(cache.flush().expect("flush").score_entries, 1);
    drop(cache);
    let reopened = FitnessCache::durable_with(&dir, str_options).expect("reopen str domain");
    assert_eq!(reopened.load_report().expect("report").score_entries, 1);
}

#[test]
fn enospc_mid_flush_degrades_to_memory_only() {
    let dir = scratch("enospc");
    // Fail the write early in the first record: the header (65 bytes) goes
    // through, the record append errors like a full disk.
    let options = DurableOptions {
        flush_every: usize::MAX,
        fault: Some(FaultPlan::enospc(70)),
        ..DurableOptions::default()
    };
    let cache = FitnessCache::durable_with(&dir, options).expect("open");
    let memo = cache.shard(KEY, &spec());
    for (i, p) in programs(4).into_iter().enumerate() {
        memo.insert(p, score_for(i));
    }
    // The failed flush must not panic; the store degrades to memory-only.
    let _ = cache.flush();
    // Every score is still served from memory, bit-identically.
    assert_scores_intact(&cache, 4, 4);
    // Later flushes are no-ops on a broken store, not errors.
    let _ = cache.flush();
    drop(cache);

    // Whatever prefix reached "disk" must reopen cleanly (possibly cold).
    let reopened = FitnessCache::durable(&dir).expect("reopen after ENOSPC");
    assert_scores_intact(&reopened, 4, reopened.shard(KEY, &spec()).len());
}

#[test]
fn torn_write_loses_the_tail_but_recovery_keeps_the_prefix() {
    let dir = scratch("torn_write");
    // First generation: persist 3 scores for real.
    seed_scores(&dir, 3);
    let base_len = std::fs::metadata(dir.join(SCORES_FILE))
        .expect("meta")
        .len();

    // Second generation: the process "crashes" with an append torn a few
    // bytes into the new records (the torn write itself reports success —
    // the loss only becomes visible on the next boot).
    let options = DurableOptions {
        flush_every: usize::MAX,
        fault: Some(FaultPlan::torn_write(base_len + 9)),
        ..DurableOptions::default()
    };
    let cache = FitnessCache::durable_with(&dir, options).expect("open");
    let memo = cache.shard(KEY, &spec());
    for (i, p) in programs(6).into_iter().enumerate().skip(3) {
        memo.insert(p, score_for(i));
    }
    let stats = cache.flush().expect("flush");
    assert_eq!(
        stats.score_entries, 3,
        "a torn write looks successful to the writer"
    );
    drop(cache);

    let reopened = FitnessCache::durable(&dir).expect("reopen");
    let report = reopened.load_report().expect("report");
    assert_eq!(
        report.score_entries, 3,
        "the first generation survives, the torn tail is dropped"
    );
    assert!(!report.damage.is_empty());
    assert_scores_intact(&reopened, 3, 3);
}

#[test]
fn concurrent_scoring_and_periodic_flushes_lose_nothing() {
    let dir = scratch("concurrent");
    let n = 64;
    {
        let cache = FitnessCache::durable_with(
            &dir,
            DurableOptions {
                flush_every: 2,
                fault: None,
                ..DurableOptions::default()
            },
        )
        .expect("open");
        let memo = cache.shard(KEY, &spec());
        std::thread::scope(|scope| {
            let writer_memo = &memo;
            let writer = scope.spawn(move || {
                for (i, p) in programs(n).into_iter().enumerate() {
                    writer_memo.insert(p, score_for(i));
                }
            });
            // Interleave background flush ticks with the inserts.
            for _ in 0..32 {
                cache.maybe_periodic_flush();
                std::thread::yield_now();
            }
            writer.join().expect("writer thread");
        });
        // Final synchronous flush picks up whatever the ticks missed.
        cache.flush().expect("flush");
    }

    let reopened = FitnessCache::durable(&dir).expect("reopen");
    let report = reopened.load_report().expect("report");
    assert!(report.damage.is_empty(), "concurrent flushes never corrupt");
    assert_eq!(
        report.score_entries, n,
        "every score reaches disk exactly once, however flushes interleave"
    );
    assert_scores_intact(&reopened, n, n);
}

fn scores_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(SCORES_FILE))
        .expect("log exists")
        .len()
}

#[test]
fn warm_reopen_flushes_nothing() {
    let dir = scratch("warm_reopen");
    {
        let cache = FitnessCache::durable(&dir).expect("open");
        let memo = cache.shard(KEY, &spec());
        for (i, p) in programs(8).into_iter().enumerate() {
            memo.insert(p, score_for(i));
        }
        assert_eq!(cache.flush().expect("flush").score_entries, 8);
    }
    let before = scores_len(&dir);

    let cache = FitnessCache::durable(&dir).expect("reopen");
    assert_eq!(cache.load_report().expect("report").score_entries, 8);
    // Serving (and re-publishing) loaded entries queues nothing.
    let memo = cache.shard(KEY, &spec());
    for (i, p) in programs(8).into_iter().enumerate() {
        memo.insert(p, score_for(i));
    }
    assert_eq!(cache.flush().expect("flush"), FlushStats::default());
    assert_eq!(scores_len(&dir), before, "a warm flush writes no bytes");
    drop(cache);
    assert_eq!(scores_len(&dir), before, "nor does the flush on drop");
}

#[test]
fn flush_after_compaction_appends_nothing() {
    let dir = scratch("compact_then_flush");
    let cache = FitnessCache::durable(&dir).expect("open");
    let memo = cache.shard(KEY, &spec());
    for (i, p) in programs(6).into_iter().enumerate() {
        memo.insert(p, score_for(i));
    }
    // Compaction writes the full image and clears the dirty lists, so the
    // unflushed entries are not appended a second time.
    cache.compact().expect("durable").expect("compact");
    assert_eq!(cache.flush().expect("flush"), FlushStats::default());
    // Entries published after the compaction are appended as usual.
    memo.insert(programs(7).remove(6), score_for(6));
    assert_eq!(cache.flush().expect("flush").score_entries, 1);
    drop(cache);

    let reopened = FitnessCache::durable(&dir).expect("reopen");
    assert_eq!(reopened.load_report().expect("report").score_entries, 7);
    assert_scores_intact(&reopened, 7, 7);
}

#[test]
fn stale_traces_log_is_ignored_and_left_untouched() {
    // Earlier builds also persisted trace encodings to `traces.nsl`. This
    // build never reads, quarantines, rewrites or deletes that file: the
    // directory opens on `scores.nsl` alone.
    let dir = scratch("stale_traces");
    seed_scores(&dir, 5);
    let stale = dir.join("traces.nsl");
    let stale_bytes: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
    std::fs::write(&stale, &stale_bytes).expect("write stale trace log");

    let cache = FitnessCache::durable(&dir).expect("open");
    let report = cache.load_report().expect("report");
    assert_eq!(report.score_entries, 5);
    assert_eq!(report.trace_entries, 0);
    assert!(report.quarantined.is_empty(), "nothing is quarantined");
    assert!(report.damage.is_empty());
    assert_eq!(report.skipped_records, 0);
    assert_scores_intact(&cache, 5, 5);
    assert_eq!(std::fs::read(&stale).expect("read"), stale_bytes);

    cache
        .shard(KEY, &spec())
        .insert(programs(6).remove(5), score_for(5));
    assert_eq!(cache.flush().expect("flush").score_entries, 1);
    assert_eq!(std::fs::read(&stale).expect("read"), stale_bytes);
    cache.compact().expect("durable").expect("compact");
    assert_eq!(std::fs::read(&stale).expect("read"), stale_bytes);
    drop(cache);
    assert_eq!(std::fs::read(&stale).expect("read"), stale_bytes);

    let reopened = FitnessCache::durable(&dir).expect("reopen");
    assert_eq!(reopened.load_report().expect("report").score_entries, 6);
    assert_scores_intact(&reopened, 6, 6);
}

/// A tiny trained model, enough to drive real trace encodings and scores
/// through a durable cache.
fn tiny_fitness() -> LearnedFitness {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut dataset_config = DatasetConfig::for_length(2);
    dataset_config.num_target_programs = 4;
    dataset_config.examples_per_program = 2;
    let samples =
        generate_dataset(&dataset_config, BalanceMetric::CommonFunctions, &mut rng).unwrap();
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
        2,
        &trainer_config,
        &mut rng,
    );
    LearnedFitness::new(model)
}

/// Scores computed by a real model through a durable cache's trace shard
/// come back from disk bit-identical after a restart. Trace encodings are
/// not persisted: the restarted trace shard starts empty, and the score
/// shard serves the whole batch without running the network.
#[test]
fn trace_encodings_round_trip_and_warm_scores_are_bit_identical() {
    let dir = scratch("traces");
    let fitness = tiny_fitness();
    let batch = programs(6);
    let spec = spec();

    // Cold process: score through the durable cache's trace shard and
    // publish the scores to the score shard, as the GA engine does.
    let cold_scores;
    {
        let cache = FitnessCache::durable(&dir).expect("open");
        let traces = cache.trace_shard(&fitness.cache_key());
        cold_scores = fitness.score_batch_cached(&batch, &spec, &traces);
        assert!(traces.encode_count() > 0, "the cold run encodes traces");
        let memo = cache.shard(&fitness.cache_key(), &spec);
        for (program, score) in batch.iter().zip(&cold_scores) {
            memo.insert(program.clone(), *score);
        }
        let stats = cache.flush().expect("flush");
        assert_eq!(stats.score_entries, batch.len(), "scores are persisted");
    }
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("list cache dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    files.sort();
    assert_eq!(files, [SCORES_FILE], "only the score log is ever written");

    // Restarted process: the score shard comes back from disk and serves
    // every score bit-for-bit; the trace shard starts empty.
    let cache = FitnessCache::durable(&dir).expect("reopen");
    let report = cache.load_report().expect("report");
    assert_eq!(report.score_entries, batch.len());
    assert_eq!(report.trace_entries, 0, "encodings are not persisted");
    let traces = cache.trace_shard(&fitness.cache_key());
    assert!(traces.is_empty());
    let memo = cache.shard(&fitness.cache_key(), &spec);
    let warm_scores: Vec<f64> = memo
        .get_many(&batch)
        .into_iter()
        .map(|score| score.expect("every score is served from disk"))
        .collect();
    assert_eq!(traces.encode_count(), 0, "serving scores runs no network");
    let cold_bits: Vec<u64> = cold_scores.iter().map(|s| s.to_bits()).collect();
    let warm_bits: Vec<u64> = warm_scores.iter().map(|s| s.to_bits()).collect();
    assert_eq!(warm_bits, cold_bits, "warm scores are bit-identical");
}
