//! Portfolio racing end-to-end: the heterogeneous strategy race solves
//! evaluation suites in both registered domains through the shared harness,
//! lockstep rounds stop every loser in the round a winner solves, a
//! strategy's panic is never swallowed, the caller's token is honored
//! between rounds, and the outcome is identical at every pool size.

use netsyn_baselines::{SynthesisProblem, SynthesisResult, Synthesizer};
use netsyn_core::{
    evaluate_method, race, FitnessChoice, MethodSpec, NetSyn, NetSynConfig, PortfolioSynthesizer,
    SuiteConfig, TestSuite,
};
use netsyn_dsl::{DomainId, Function, IoSpec, Program, SynthesisTask, Value};
use netsyn_fitness::{FitnessCache, ProbabilityMap};
use netsyn_ga::{BeamConfig, BeamSearch, CancelToken, SearchBudget, SearchStrategy, StepStatus};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

fn suite_for(domain: DomainId, length: usize, per_kind: usize, seed: u64) -> TestSuite {
    let mut config = SuiteConfig::for_domain(domain, length);
    config.singleton_tasks = per_kind;
    config.list_tasks = per_kind;
    TestSuite::generate(&config, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap()
}

fn portfolio_method(name: &str) -> MethodSpec<'_> {
    MethodSpec::new(name, |task: &SynthesisTask| {
        let config = NetSynConfig::small(FitnessChoice::OracleCommonFunctions, task.target.len());
        let netsyn = NetSyn::new(config, None).with_oracle_target(task.target.clone());
        Box::new(PortfolioSynthesizer::new(netsyn)) as Box<dyn netsyn_baselines::Synthesizer>
    })
}

#[test]
fn portfolio_solves_the_list_domain_smoke_suite_within_budget() {
    let suite = suite_for(DomainId::List, 2, 2, 11);
    let cap = 50_000;
    let evaluation = evaluate_method(&portfolio_method("Portfolio_Oracle_CF"), &suite, cap, 2, 7);
    assert_eq!(evaluation.records.len(), suite.len() * 2);
    for record in &evaluation.records {
        assert!(
            record.candidates_evaluated <= cap,
            "a race drew {} candidates past the {cap} cap",
            record.candidates_evaluated
        );
    }
    assert!(
        evaluation.percent_synthesized() >= 0.5,
        "the oracle-guided portfolio should solve most length-2 list tasks, solved {}",
        evaluation.percent_synthesized()
    );
}

#[test]
fn portfolio_solves_the_string_domain_smoke_suite_within_budget() {
    let suite = suite_for(DomainId::Str, 2, 2, 21);
    assert_eq!(suite.domain, DomainId::Str);
    let cap = 50_000;
    let evaluation = evaluate_method(&portfolio_method("Portfolio_Oracle_CF"), &suite, cap, 2, 3);
    assert_eq!(evaluation.records.len(), suite.len() * 2);
    for record in &evaluation.records {
        assert!(record.candidates_evaluated <= cap);
    }
    assert!(
        evaluation.percent_synthesized() >= 0.5,
        "the oracle-guided portfolio should solve most length-2 string tasks, solved {}",
        evaluation.percent_synthesized()
    );
}

/// A scripted strategy: draws `per_step` candidates each step, solves with
/// `solution` after `solve_after_steps` steps, panics on step
/// `panic_after_steps`, and fires `fire_after`'s token after that many steps
/// (each never, if `None`).
struct Scripted {
    name: &'static str,
    per_step: usize,
    solve_after_steps: Option<usize>,
    panic_after_steps: Option<usize>,
    fire_after: Option<(usize, CancelToken)>,
    solution: Program,
    steps_taken: usize,
    evaluated: usize,
}

impl Scripted {
    fn drone(name: &'static str, per_step: usize) -> Self {
        Scripted {
            name,
            per_step,
            solve_after_steps: None,
            panic_after_steps: None,
            fire_after: None,
            solution: Program::new(vec![Function::Sort]),
            steps_taken: 0,
            evaluated: 0,
        }
    }

    fn solver(name: &'static str, per_step: usize, solve_after_steps: usize) -> Self {
        Scripted {
            solve_after_steps: Some(solve_after_steps),
            ..Scripted::drone(name, per_step)
        }
    }

    fn panicker(name: &'static str, per_step: usize, panic_after_steps: usize) -> Self {
        Scripted {
            panic_after_steps: Some(panic_after_steps),
            ..Scripted::drone(name, per_step)
        }
    }
}

impl SearchStrategy for Scripted {
    fn name(&self) -> &str {
        self.name
    }

    fn step(&mut self, budget: &mut SearchBudget) -> StepStatus {
        self.steps_taken += 1;
        if self.panic_after_steps == Some(self.steps_taken) {
            panic!("scripted mid-race failure in {}", self.name);
        }
        for _ in 0..self.per_step {
            if !budget.try_consume() {
                return StepStatus::Done;
            }
            self.evaluated += 1;
        }
        if let Some((after, token)) = &self.fire_after {
            if *after == self.steps_taken {
                token.cancel();
            }
        }
        if self.solve_after_steps == Some(self.steps_taken) {
            return StepStatus::Solved(self.solution.clone());
        }
        StepStatus::Continue
    }

    fn candidates_evaluated(&self) -> usize {
        self.evaluated
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|message| (*message).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

fn drawn(outcome: &netsyn_core::PortfolioOutcome) -> Vec<usize> {
    outcome
        .reports
        .iter()
        .map(|report| report.candidates_evaluated)
        .collect()
}

#[test]
fn the_first_solution_cancels_every_loser_within_one_step() {
    // The fast solver wins in round 3; the drones would otherwise grind
    // through the whole budget. Every strategy steps exactly three times.
    let mut solver = Scripted::solver("fast-beam", 10, 3);
    let mut drone_a = Scripted::drone("slow-ga", 25);
    let mut drone_b = Scripted::drone("slow-dfs", 25);
    let mut budget = SearchBudget::new(1_000_000);
    let cancel = CancelToken::new();
    let mut strategies: [&mut (dyn SearchStrategy + Send); 3] =
        [&mut solver, &mut drone_a, &mut drone_b];
    let outcome = race(&mut strategies, &mut budget, &cancel);
    assert!(cancel.is_cancelled(), "the winner fires the token");
    assert_eq!(outcome.winner.as_deref(), Some("fast-beam"));
    assert!(outcome.solution.is_some());
    assert_eq!(drawn(&outcome), vec![30, 75, 75]);
    assert_eq!(outcome.candidates_evaluated, 180);
    assert_eq!(
        budget.evaluated(),
        180,
        "the race charges the caller's budget"
    );
    assert_eq!(
        [solver.steps_taken, drone_a.steps_taken, drone_b.steps_taken],
        [3, 3, 3]
    );
}

#[test]
fn a_solver_at_the_last_index_beats_drones_that_could_drain_the_budget() {
    // Stepped one after another, drone 0 alone would drain the whole
    // budget before the solver drew a candidate; lockstep rounds give the
    // solver its three steps.
    let mut drone_a = Scripted::drone("drone-a", 25);
    let mut drone_b = Scripted::drone("drone-b", 25);
    let mut solver = Scripted::solver("solver", 10, 3);
    let mut budget = SearchBudget::new(1_000);
    let cancel = CancelToken::new();
    let mut strategies: [&mut (dyn SearchStrategy + Send); 3] =
        [&mut drone_a, &mut drone_b, &mut solver];
    let outcome = race(&mut strategies, &mut budget, &cancel);
    assert_eq!(outcome.winner.as_deref(), Some("solver"));
    assert_eq!(drawn(&outcome), vec![75, 75, 30]);
    assert_eq!(budget.evaluated(), 180);
}

#[test]
fn same_round_solvers_resolve_to_the_lowest_index() {
    let mut drone = Scripted::drone("drone", 5);
    let mut second = Scripted::solver("second", 10, 2);
    let mut third = Scripted {
        solution: Program::new(vec![Function::Reverse]),
        ..Scripted::solver("third", 10, 2)
    };
    let mut budget = SearchBudget::new(1_000);
    let cancel = CancelToken::new();
    let mut strategies: [&mut (dyn SearchStrategy + Send); 3] =
        [&mut drone, &mut second, &mut third];
    let outcome = race(&mut strategies, &mut budget, &cancel);
    assert_eq!(outcome.winner.as_deref(), Some("second"));
    assert_eq!(outcome.solution, Some(Program::new(vec![Function::Sort])));
    let solved: Vec<bool> = outcome.reports.iter().map(|report| report.solved).collect();
    assert_eq!(
        solved,
        vec![false, true, true],
        "both same-round solvers report"
    );
    assert_eq!(drawn(&outcome), vec![10, 20, 20]);
}

#[test]
fn a_panicking_strategy_fires_the_token_and_reraises_on_the_caller() {
    let mut budget = SearchBudget::new(1_000_000);
    let cancel = CancelToken::new();
    let mut panicker = Scripted::panicker("flaky", 10, 2);
    let mut drone = Scripted::drone("steady", 10);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut strategies: [&mut (dyn SearchStrategy + Send); 2] = [&mut panicker, &mut drone];
        race(&mut strategies, &mut budget, &cancel)
    }));
    let payload = caught.expect_err("the loser's panic must reach the caller");
    let message = panic_message(payload.as_ref());
    assert!(
        message.contains("scripted mid-race failure"),
        "the original payload is re-raised, got: {message}"
    );
    assert!(
        cancel.is_cancelled(),
        "a panic fires the token so every holder sees the race is over"
    );
    // The panic ends the race after the round it happened in: the drone
    // stepped twice, the panicker drew only in round 1.
    assert_eq!(drone.steps_taken, 2);
    assert_eq!(budget.evaluated(), 30);
}

#[test]
fn same_round_panics_reraise_the_lowest_index_payload() {
    let mut budget = SearchBudget::new(1_000);
    let cancel = CancelToken::new();
    let mut drone = Scripted::drone("drone", 10);
    let mut first = Scripted::panicker("first", 10, 2);
    let mut second = Scripted::panicker("second", 10, 2);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut strategies: [&mut (dyn SearchStrategy + Send); 3] =
            [&mut drone, &mut first, &mut second];
        race(&mut strategies, &mut budget, &cancel)
    }));
    let payload = caught.expect_err("a panic must reach the caller");
    assert_eq!(
        panic_message(payload.as_ref()),
        "scripted mid-race failure in first"
    );
    assert!(cancel.is_cancelled());
    assert_eq!(budget.evaluated(), 40, "round 2 still charges the drone");
}

#[test]
fn a_token_fired_before_the_race_means_zero_draws() {
    let spec = IoSpec::from_program(
        &Program::new(vec![Function::Sort]),
        &[vec![Value::List(vec![3, 1, 2])]],
    );
    let mut beam = BeamSearch::new(
        &spec,
        DomainId::List,
        1,
        ProbabilityMap::uniform(),
        BeamConfig::default(),
    );
    let mut drone = Scripted::drone("drone", 10);
    let mut budget = SearchBudget::new(1_000);
    let cancel = CancelToken::new();
    cancel.cancel();
    let mut strategies: [&mut (dyn SearchStrategy + Send); 2] = [&mut beam, &mut drone];
    let outcome = race(&mut strategies, &mut budget, &cancel);
    assert_eq!(outcome.winner, None);
    assert_eq!(outcome.candidates_evaluated, 0);
    assert_eq!(drawn(&outcome), vec![0, 0]);
    assert_eq!(budget.evaluated(), 0);
    assert_eq!(drone.steps_taken, 0);
}

#[test]
fn a_token_fired_mid_step_stops_the_race_after_that_round() {
    let cancel = CancelToken::new();
    let mut trigger = Scripted {
        fire_after: Some((2, cancel.clone())),
        ..Scripted::drone("trigger", 10)
    };
    let mut drone = Scripted::drone("drone", 25);
    let mut budget = SearchBudget::new(1_000_000);
    let mut strategies: [&mut (dyn SearchStrategy + Send); 2] = [&mut trigger, &mut drone];
    let outcome = race(&mut strategies, &mut budget, &cancel);
    assert_eq!(outcome.winner, None);
    assert_eq!(outcome.solution, None);
    assert_eq!(
        drawn(&outcome),
        vec![20, 50],
        "round 2 completes, round 3 never starts"
    );
    assert_eq!(budget.evaluated(), 70);
    assert_eq!([trigger.steps_taken, drone.steps_taken], [2, 2]);
}

/// Marks the digest line a matrix child prints.
const DIGEST_MARKER: &str = "PORTFOLIO_DIGEST:";

/// Wraps the portfolio to log every race's full outcome.
struct Recording {
    portfolio: PortfolioSynthesizer,
    target: Program,
    log: Arc<Mutex<Vec<String>>>,
}

impl Synthesizer for Recording {
    fn name(&self) -> &str {
        self.portfolio.name()
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
        let outcome = self.portfolio.race_cached(problem, budget, rng, cache);
        let reports: Vec<String> = outcome
            .reports
            .iter()
            .map(|r| format!("{}={}/{}", r.name, r.candidates_evaluated, r.solved))
            .collect();
        self.log.lock().expect("digest log").push(format!(
            "target=[{}] winner={:?} solution={:?} total={} reports={}",
            self.target,
            outcome.winner,
            outcome.solution.as_ref().map(ToString::to_string),
            outcome.candidates_evaluated,
            reports.join(",")
        ));
        SynthesisResult {
            solution: outcome.solution,
            candidates_evaluated: outcome.candidates_evaluated,
            generations: None,
        }
    }
}

/// Subprocess entry point of the portfolio matrix: under
/// `NETSYN_DETERMINISM_CHILD=1` (set only by the parent test below) this
/// runs the list smoke suite through `evaluate_method` and prints one digest
/// of every run record and every race's per-strategy counts, winner and
/// solution. Races of one task run concurrently, so their lines are sorted.
/// In a normal test run (env unset) it is a no-op.
#[test]
fn portfolio_matrix_child_emits_digest() {
    if std::env::var("NETSYN_DETERMINISM_CHILD").is_err() {
        return;
    }
    let suite = suite_for(DomainId::List, 2, 2, 11);
    let log = Arc::new(Mutex::new(Vec::new()));
    let method = MethodSpec::new("Portfolio_Oracle_CF", |task: &SynthesisTask| {
        let config = NetSynConfig::small(FitnessChoice::OracleCommonFunctions, task.target.len());
        let netsyn = NetSyn::new(config, None).with_oracle_target(task.target.clone());
        Box::new(Recording {
            portfolio: PortfolioSynthesizer::new(netsyn),
            target: task.target.clone(),
            log: Arc::clone(&log),
        }) as Box<dyn Synthesizer>
    });
    let evaluation = evaluate_method(&method, &suite, 50_000, 2, 7);
    let mut lines: Vec<String> = evaluation
        .records
        .iter()
        .map(|r| {
            format!(
                "record task={} run={} success={} candidates={}",
                r.task_index, r.run_index, r.success, r.candidates_evaluated
            )
        })
        .collect();
    let mut races = log.lock().expect("digest log").clone();
    races.sort();
    lines.extend(races);
    println!("{DIGEST_MARKER}{}", lines.join(" | "));
}

/// The portfolio determinism matrix: the digest of the list smoke suite is
/// identical at `NETSYN_POOL_THREADS` ∈ {1, 2, 8}. Lockstep rounds make each
/// race a pure function of its inputs, so the winner, the solution and
/// every strategy's candidate count cannot depend on the schedule. Each
/// cell runs in a subprocess because the pool size is fixed at first use
/// per process.
#[test]
fn portfolio_outcomes_identical_across_pool_sizes() {
    if std::env::var("NETSYN_SKIP_ISLAND_MATRIX").is_ok() {
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let mut digests: Vec<(&str, String)> = Vec::new();
    for threads in ["1", "2", "8"] {
        let output = std::process::Command::new(&exe)
            .args([
                "--exact",
                "portfolio_matrix_child_emits_digest",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("NETSYN_DETERMINISM_CHILD", "1")
            .env("NETSYN_POOL_THREADS", threads)
            .env_remove(netsyn_fitness::persist::CACHE_DIR_ENV)
            .output()
            .expect("spawn portfolio matrix child");
        assert!(
            output.status.success(),
            "portfolio matrix child (threads={threads}) failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8(output.stdout).expect("child stdout is utf-8");
        // The marker may share its line with libtest's "test name ..."
        // prefix, so split on the marker rather than expecting line start.
        let digest = stdout
            .lines()
            .find_map(|line| {
                line.find(DIGEST_MARKER)
                    .map(|at| line[at + DIGEST_MARKER.len()..].to_string())
            })
            .unwrap_or_else(|| panic!("child (threads={threads}) printed no digest:\n{stdout}"));
        digests.push((threads, digest));
    }
    let (baseline_threads, baseline) = &digests[0];
    assert!(
        baseline.contains("winner=Some"),
        "some race must be won: {baseline}"
    );
    for (threads, digest) in &digests[1..] {
        assert_eq!(
            digest, baseline,
            "portfolio outcomes must be identical across pool sizes \
             (threads={threads} differs from threads={baseline_threads})"
        );
    }
}
