//! The evaluation harness: runs synthesizers over a test suite with a shared
//! candidate budget and aggregates the statistics the paper reports (search
//! space used, synthesis time, synthesis-rate distributions, per-kind and
//! per-function rates, and ablation summaries).

use crate::suite::TestSuite;
use netsyn_baselines::{SynthesisProblem, Synthesizer};
use netsyn_dsl::{Function, ProgramKind, SynthesisTask};
use netsyn_fitness::FitnessCache;
use netsyn_ga::SearchBudget;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One synthesis attempt (one task, one repetition).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRecord {
    /// Index of the task in the suite.
    pub task_index: usize,
    /// Repetition index (`0..runs_per_task`).
    pub run_index: usize,
    /// Whether a program satisfying the specification was found.
    pub success: bool,
    /// Candidate programs evaluated during the attempt.
    pub candidates_evaluated: usize,
    /// Wall-clock duration of the attempt in seconds.
    pub wall_time_secs: f64,
    /// GA generations used (for generation-based approaches).
    pub generations: Option<usize>,
}

/// Builds one synthesizer for a given task.
pub type SynthesizerFactory<'a> = Box<dyn Fn(&SynthesisTask) -> Box<dyn Synthesizer> + Sync + 'a>;

/// A factory producing one synthesizer per task, so that oracle-based
/// configurations can be given the task's hidden target.
pub struct MethodSpec<'a> {
    /// Display name of the method (used in reports).
    pub name: String,
    /// Builds the synthesizer for a task.
    pub factory: SynthesizerFactory<'a>,
}

impl<'a> MethodSpec<'a> {
    /// Creates a method specification.
    #[must_use]
    pub fn new<F>(name: impl Into<String>, factory: F) -> Self
    where
        F: Fn(&SynthesisTask) -> Box<dyn Synthesizer> + Sync + 'a,
    {
        MethodSpec {
            name: name.into(),
            factory: Box::new(factory),
        }
    }
}

/// All runs of one method over a suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodEvaluation {
    /// Method display name.
    pub method: String,
    /// Candidate cap per attempt.
    pub budget_cap: usize,
    /// Repetitions per task (`K`).
    pub runs_per_task: usize,
    /// Number of tasks in the suite.
    pub task_count: usize,
    /// One record per (task, repetition).
    pub records: Vec<RunRecord>,
}

/// Runs `method` on every task of `suite`, `runs_per_task` times each, with a
/// fresh budget of `budget_cap` candidates per attempt. Attempts run in
/// parallel; each attempt gets a deterministic RNG derived from `base_seed`,
/// the task index and the repetition index.
///
/// Every repetition of a task shares one spec-keyed [`FitnessCache`]
/// (`netsyn_fitness::FitnessCache`): fitness scores are pure, bit-identical
/// functions of `(candidate, spec)`, so a candidate scored in run 0 is never
/// re-scored in runs `1..K` — the repeated-measurement design of the paper's
/// evaluation gets the cross-generation cache for free, without changing any
/// per-run search trajectory. The same handle carries the per-model
/// trace-value encoding shards (`FitnessCache::trace_shard`): trace values
/// encoded by any generation of any repetition are served from the memo in
/// every later batched scoring call — including the DFS neighborhood
/// search — instead of re-running the step encoder.
///
/// This fan-out is the workload the work-stealing pool is built for: the
/// task×run attempts run genuinely concurrently (`NETSYN_POOL_THREADS`
/// controls the pool; see the `rayon` shim docs), each attempt's batched
/// scoring calls nest into the pooled NN kernels and parallelize instead of
/// running inline, and repetitions of one task share their cache shard
/// safely: the striped `SpecScores` shard is first write wins, and two
/// attempts that miss the same program at the same moment both score it,
/// bit-identically. That duplicate is rare (none measured on the
/// learned-fitness e2ebench workloads at K = 2, 47 of 1.8M lookups at
/// K = 10 on an 8-thread pool; see `netsyn_fitness::cache`), and results
/// and per-run trajectories are independent of the thread count.
///
/// Setting `NETSYN_CACHE_DIR` makes the score cache **durable**: scores
/// persisted by earlier processes are loaded at startup (warm start), new
/// ones are flushed back periodically and at the end of the
/// evaluation, and a restarted harness reproduces byte-identical search
/// trajectories from disk. Durability is strictly opt-in and fails toward
/// cold — an unreadable directory or damaged log degrades to the in-memory
/// behavior above with a warning, never to wrong scores. Shards embed the
/// fitness model's weight fingerprint, so one directory can safely serve
/// different checkpoints and methods.
#[must_use]
pub fn evaluate_method(
    method: &MethodSpec<'_>,
    suite: &TestSuite,
    budget_cap: usize,
    runs_per_task: usize,
    base_seed: u64,
) -> MethodEvaluation {
    let durable = durable_cache_from_env();
    let caches: Vec<FitnessCache> = (0..suite.tasks.len())
        .map(|_| FitnessCache::new())
        .collect();
    let pairs: Vec<(usize, usize)> = (0..suite.tasks.len())
        .flat_map(|task| (0..runs_per_task).map(move |run| (task, run)))
        .collect();
    let records: Vec<RunRecord> = pairs
        .par_iter()
        .map(|&(task_index, run_index)| {
            let task = &suite.tasks[task_index];
            let synthesizer = (method.factory)(task);
            let problem = SynthesisProblem::with_domain(
                task.spec.clone(),
                task.target_length(),
                suite.domain,
            );
            let mut budget = SearchBudget::new(budget_cap);
            let mut rng = ChaCha8Rng::seed_from_u64(
                base_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((task_index as u64) << 20)
                    .wrapping_add(run_index as u64),
            );
            // One durable cache serves every task (shards are keyed by
            // model fingerprint + spec, so tasks never alias); otherwise
            // each task keeps its own in-memory cache.
            let cache = durable.as_ref().unwrap_or(&caches[task_index]);
            // netsyn-lint: allow(wall-clock) — wall-time is reported in RunRecord only; it never feeds search decisions or serialized comparisons
            let start = Instant::now();
            let result = synthesizer.synthesize_cached(&problem, &mut budget, &mut rng, cache);
            let wall_time_secs = start.elapsed().as_secs_f64();
            RunRecord {
                task_index,
                run_index,
                success: result.is_success(),
                candidates_evaluated: result.candidates_evaluated,
                wall_time_secs,
                generations: result.generations,
            }
        })
        .collect();
    if let Some(cache) = &durable {
        // Final synchronous flush so a clean exit persists everything the
        // periodic background flushes did not reach.
        let _ = cache.flush();
    }
    MethodEvaluation {
        method: method.name.clone(),
        budget_cap,
        runs_per_task,
        task_count: suite.tasks.len(),
        records,
    }
}

/// Opens the durable fitness cache named by the `NETSYN_CACHE_DIR`
/// environment variable, or `None` when the variable is unset or the
/// directory cannot be created (a warning is printed and the evaluation
/// proceeds with in-memory caches — durability never gates correctness).
fn durable_cache_from_env() -> Option<FitnessCache> {
    let dir = std::env::var_os(netsyn_fitness::persist::CACHE_DIR_ENV)?;
    match FitnessCache::durable(&dir) {
        Ok(cache) => {
            if let Some(report) = cache.load_report() {
                eprintln!(
                    "netsyn: durable cache at {}: {} score entries loaded",
                    std::path::Path::new(&dir).display(),
                    report.score_entries,
                );
            }
            Some(cache)
        }
        Err(err) => {
            eprintln!(
                "netsyn: cannot open cache directory {}: {err}; continuing without durability",
                std::path::Path::new(&dir).display(),
            );
            None
        }
    }
}

/// A Table 2 style summary row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodSummary {
    /// Method display name.
    pub method: String,
    /// Number of tasks synthesized in at least one repetition.
    pub programs_synthesized: usize,
    /// Average GA generations over successful attempts.
    pub avg_generations: f64,
    /// Average per-task synthesis rate (percentage of repetitions that
    /// succeed), over all tasks.
    pub avg_synthesis_rate_percent: f64,
}

impl MethodEvaluation {
    fn task_records(&self, task_index: usize) -> impl Iterator<Item = &RunRecord> {
        self.records
            .iter()
            .filter(move |r| r.task_index == task_index)
    }

    /// Per-task synthesis rate: the fraction of repetitions that succeeded
    /// (the data behind the violin plots of Figure 4(d)–(f)).
    #[must_use]
    pub fn per_task_synthesis_rate(&self) -> Vec<f64> {
        (0..self.task_count)
            .map(|task| {
                let records: Vec<&RunRecord> = self.task_records(task).collect();
                if records.is_empty() {
                    return 0.0;
                }
                records.iter().filter(|r| r.success).count() as f64 / records.len() as f64
            })
            .collect()
    }

    /// Whether each task was synthesized in at least one repetition.
    #[must_use]
    pub fn per_task_synthesized(&self) -> Vec<bool> {
        (0..self.task_count)
            .map(|task| self.task_records(task).any(|r| r.success))
            .collect()
    }

    /// Per-task mean value of `extract` over *successful* repetitions
    /// (`None` for tasks never synthesized).
    fn per_task_mean<F: Fn(&RunRecord) -> f64>(&self, extract: F) -> Vec<Option<f64>> {
        (0..self.task_count)
            .map(|task| {
                let values: Vec<f64> = self
                    .task_records(task)
                    .filter(|r| r.success)
                    .map(&extract)
                    .collect();
                if values.is_empty() {
                    None
                } else {
                    Some(values.iter().sum::<f64>() / values.len() as f64)
                }
            })
            .collect()
    }

    /// Per-task mean search-space use (fraction of the budget cap) over
    /// successful repetitions.
    #[must_use]
    pub fn per_task_search_fraction(&self) -> Vec<Option<f64>> {
        let cap = self.budget_cap.max(1) as f64;
        self.per_task_mean(|r| r.candidates_evaluated as f64 / cap)
    }

    /// Per-task mean synthesis time in seconds over successful repetitions.
    #[must_use]
    pub fn per_task_time_secs(&self) -> Vec<Option<f64>> {
        self.per_task_mean(|r| r.wall_time_secs)
    }

    /// Fraction of tasks synthesized in at least one repetition.
    #[must_use]
    pub fn percent_synthesized(&self) -> f64 {
        if self.task_count == 0 {
            return 0.0;
        }
        self.per_task_synthesized().iter().filter(|&&s| s).count() as f64 / self.task_count as f64
    }

    /// The sorted per-task curve behind Figure 4(a)–(c) / (g)–(i): entry `i`
    /// is the cost (search fraction or seconds) of the `i`-th cheapest
    /// synthesized task; the curve terminates where tasks stop being
    /// synthesized.
    #[must_use]
    pub fn sorted_cost_curve(&self, costs: &[Option<f64>]) -> Vec<f64> {
        let mut values: Vec<f64> = costs.iter().filter_map(|c| *c).collect();
        // total_cmp: a NaN cost takes a deterministic extreme position
        // (positive NaN after +inf, negative before -inf) instead of
        // nondeterministically interleaving with real costs.
        values.sort_by(f64::total_cmp);
        values
    }

    /// Decile summary of a per-task cost vector: for each decile `d` (10%,
    /// 20%, …, 100% of the suite), the cost needed to synthesize that
    /// fraction of tasks, or `None` when the method never synthesized that
    /// many tasks (the dashes in Tables 3 and 4).
    #[must_use]
    pub fn deciles(&self, costs: &[Option<f64>]) -> Vec<Option<f64>> {
        let sorted = self.sorted_cost_curve(costs);
        (1..=10)
            .map(|decile| {
                let needed = (decile as f64 / 10.0 * self.task_count as f64).ceil() as usize;
                if needed == 0 || needed > sorted.len() {
                    None
                } else {
                    Some(sorted[needed - 1])
                }
            })
            .collect()
    }

    /// Search-space deciles (Table 4 row, as fractions of the cap).
    #[must_use]
    pub fn search_space_deciles(&self) -> Vec<Option<f64>> {
        self.deciles(&self.per_task_search_fraction())
    }

    /// Synthesis-time deciles in seconds (Table 3 row).
    #[must_use]
    pub fn time_deciles(&self) -> Vec<Option<f64>> {
        self.deciles(&self.per_task_time_secs())
    }

    /// Synthesis rate split by program kind (Figure 5): the average per-task
    /// synthesis rate over singleton tasks and over list tasks.
    #[must_use]
    pub fn rate_by_kind(&self, suite: &TestSuite) -> (f64, f64) {
        let rates = self.per_task_synthesis_rate();
        let mut singleton = Vec::new();
        let mut list = Vec::new();
        for (task, rate) in suite.tasks.iter().zip(rates.iter()) {
            match task.kind() {
                Some(ProgramKind::Singleton) => singleton.push(*rate),
                Some(ProgramKind::List) => list.push(*rate),
                None => {}
            }
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        (mean(&singleton), mean(&list))
    }

    /// Average synthesis rate of tasks containing each function of the
    /// suite's domain vocabulary (Figure 6). Functions that appear in no task
    /// report `None`.
    #[must_use]
    pub fn rate_by_function(&self, suite: &TestSuite) -> Vec<(Function, Option<f64>)> {
        let rates = self.per_task_synthesis_rate();
        suite
            .domain
            .vocab()
            .iter()
            .map(|&function| {
                let task_rates: Vec<f64> = suite
                    .tasks
                    .iter()
                    .zip(rates.iter())
                    .filter(|(task, _)| task.target.functions().contains(&function))
                    .map(|(_, rate)| *rate)
                    .collect();
                let value = if task_rates.is_empty() {
                    None
                } else {
                    Some(task_rates.iter().sum::<f64>() / task_rates.len() as f64)
                };
                (function, value)
            })
            .collect()
    }

    /// Table 2 style summary: programs synthesized, average generations of
    /// successful attempts, and average synthesis rate.
    #[must_use]
    pub fn summary(&self) -> MethodSummary {
        let successful_generations: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.success)
            .filter_map(|r| r.generations.map(|g| g as f64))
            .collect();
        let avg_generations = if successful_generations.is_empty() {
            0.0
        } else {
            successful_generations.iter().sum::<f64>() / successful_generations.len() as f64
        };
        let rates = self.per_task_synthesis_rate();
        let avg_rate = if rates.is_empty() {
            0.0
        } else {
            rates.iter().sum::<f64>() / rates.len() as f64
        };
        MethodSummary {
            method: self.method.clone(),
            programs_synthesized: self.per_task_synthesized().iter().filter(|&&s| s).count(),
            avg_generations,
            avg_synthesis_rate_percent: avg_rate * 100.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FitnessChoice, NetSynConfig};
    use crate::suite::SuiteConfig;
    use crate::synthesizer::NetSyn;
    use netsyn_baselines::SynthesisResult;
    use netsyn_dsl::Program;
    use rand::RngCore;

    fn tiny_suite(length: usize, per_kind: usize) -> TestSuite {
        let config = SuiteConfig::small(length, per_kind);
        TestSuite::generate(&config, &mut ChaCha8Rng::seed_from_u64(11)).unwrap()
    }

    #[test]
    fn evaluate_oracle_netsyn_on_a_tiny_suite() {
        let suite = tiny_suite(2, 2);
        let method = MethodSpec::new("Oracle_CF", |task: &SynthesisTask| {
            let config = NetSynConfig::small(FitnessChoice::OracleCommonFunctions, 2);
            Box::new(NetSyn::new(config, None).with_oracle_target(task.target.clone()))
                as Box<dyn Synthesizer>
        });
        let evaluation = evaluate_method(&method, &suite, 50_000, 2, 7);
        assert_eq!(evaluation.records.len(), suite.len() * 2);
        assert_eq!(evaluation.task_count, suite.len());
        // The oracle fitness on length-2 programs should synthesize most of
        // the suite.
        assert!(evaluation.percent_synthesized() >= 0.5);
        let summary = evaluation.summary();
        assert_eq!(summary.method, "Oracle_CF");
        assert!(summary.programs_synthesized >= suite.len() / 2);
        assert!(summary.avg_synthesis_rate_percent > 0.0);
        // Aggregations have the right shapes.
        assert_eq!(evaluation.per_task_synthesis_rate().len(), suite.len());
        assert_eq!(evaluation.search_space_deciles().len(), 10);
        assert_eq!(evaluation.time_deciles().len(), 10);
        let (singleton_rate, list_rate) = evaluation.rate_by_kind(&suite);
        assert!((0.0..=1.0).contains(&singleton_rate));
        assert!((0.0..=1.0).contains(&list_rate));
        assert_eq!(evaluation.rate_by_function(&suite).len(), 41);
    }

    #[test]
    fn evaluation_is_deterministic_up_to_timing() {
        let suite = tiny_suite(2, 1);
        let make_method = || {
            MethodSpec::new("Oracle_CF", |task: &SynthesisTask| {
                let config = NetSynConfig::small(FitnessChoice::OracleCommonFunctions, 2);
                Box::new(NetSyn::new(config, None).with_oracle_target(task.target.clone()))
                    as Box<dyn Synthesizer>
            })
        };
        let a = evaluate_method(&make_method(), &suite, 20_000, 2, 3);
        let b = evaluate_method(&make_method(), &suite, 20_000, 2, 3);
        let strip = |e: &MethodEvaluation| {
            e.records
                .iter()
                .map(|r| (r.task_index, r.run_index, r.success, r.candidates_evaluated))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a), strip(&b));
    }

    #[test]
    fn deciles_report_none_past_the_synthesized_fraction() {
        // A fake method that always fails: every decile must be None and the
        // summary must report zero synthesized programs.
        struct AlwaysFails;
        impl Synthesizer for AlwaysFails {
            fn name(&self) -> &str {
                "never"
            }
            fn synthesize(
                &self,
                _problem: &SynthesisProblem,
                budget: &mut SearchBudget,
                _rng: &mut dyn RngCore,
            ) -> SynthesisResult {
                budget.try_consume();
                SynthesisResult::not_found(1)
            }
        }
        let suite = tiny_suite(2, 1);
        let method = MethodSpec::new("never", |_task: &SynthesisTask| {
            Box::new(AlwaysFails) as Box<dyn Synthesizer>
        });
        let evaluation = evaluate_method(&method, &suite, 100, 1, 5);
        assert!(evaluation
            .search_space_deciles()
            .iter()
            .all(Option::is_none));
        assert!(evaluation.time_deciles().iter().all(Option::is_none));
        assert_eq!(evaluation.summary().programs_synthesized, 0);
        assert_eq!(evaluation.percent_synthesized(), 0.0);
        let _ = Program::default();
    }
}
