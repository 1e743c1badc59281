//! The portfolio orchestrator: heterogeneous search strategies racing in
//! lockstep rounds over one budget.
//!
//! [`race`] runs a set of [`SearchStrategy`] values round by round. Each
//! round splits the caller's remaining [`SearchBudget`] among the live
//! strategies, steps every one of them exactly once on its own slice (one
//! pool task each), and merges the results in strategy-index order. The
//! lowest-index strategy that solves in the earliest round wins. A step sees
//! only its own strategy and slice, and the merge order is fixed, so a race
//! is a pure function of the strategies' states and the budget: the winner,
//! the solution and every strategy's candidate count are the same at every
//! `NETSYN_POOL_THREADS`.
//!
//! A [`CancelToken`] is the caller's stop switch, checked between rounds.
//! The race fires it once a strategy solves or panics.
//!
//! [`PortfolioSynthesizer`] wraps a [`NetSyn`] configuration as a
//! [`Synthesizer`]: each synthesis races the GA islands, a DFS neighborhood
//! walk over random seed programs, and a guided beam search, reusing the
//! same fitness function, probability map and shared [`FitnessCache`] the
//! plain engine would use.

use crate::synthesizer::NetSyn;
use netsyn_baselines::{SynthesisProblem, SynthesisResult, Synthesizer};
use netsyn_dsl::Program;
use netsyn_fitness::{FitnessCache, FitnessFunction, ProbabilityMap};
use netsyn_ga::{
    random_seed_programs, BeamConfig, BeamSearch, CancelToken, DfsSearchStrategy, GaSearchStrategy,
    SearchBudget, SearchStrategy, StepStatus,
};
use rand::RngCore;
use rayon::prelude::*;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Probability floor of the oracle-derived beam guidance map.
const ORACLE_MAP_FLOOR: f64 = 0.05;

/// Number of random seed programs the DFS strategy walks.
const DFS_SEED_COUNT: usize = 4;

/// Per-strategy accounting of one portfolio race.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyReport {
    /// The strategy's stable name (`"ga-islands"`, `"dfs-neighborhood"`,
    /// `"beam"`, ...).
    pub name: String,
    /// Candidates this strategy drew from the caller's budget.
    pub candidates_evaluated: usize,
    /// Whether this strategy found a satisfying program.
    pub solved: bool,
}

/// Result of one [`race`].
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioOutcome {
    /// The winning program, if any strategy solved the problem.
    pub solution: Option<Program>,
    /// Name of the winning strategy: the lowest-index solver of the
    /// earliest round that had one.
    pub winner: Option<String>,
    /// Total candidates the race charged to the caller's budget.
    pub candidates_evaluated: usize,
    /// One report per strategy, in the order they were passed to [`race`].
    pub reports: Vec<StrategyReport>,
}

/// One live strategy's step in a round: its budget slice and, once the
/// step has run, what it returned or the payload it panicked with.
struct RoundStep<'s> {
    index: usize,
    strategy: &'s mut (dyn SearchStrategy + Send),
    slice: SearchBudget,
    status: Option<std::thread::Result<StepStatus>>,
}

/// Races `strategies` to the first solution in lockstep rounds, drawing
/// every candidate from `budget`.
///
/// Each round:
/// 1. stops the race if `cancel` has fired;
/// 2. splits the remaining budget among the live strategies with
///    [`SearchBudget::split_remaining`];
/// 3. steps every live strategy exactly once on its own slice, one pool
///    task each;
/// 4. merges in index order: charges each slice's draws to `budget` and
///    retires strategies that returned [`StepStatus::Done`] or
///    [`StepStatus::Solved`].
///
/// The lowest-index strategy that solves in the earliest round wins, and
/// `race` fires `cancel`. Rivals that solved in the same round still report
/// `solved` in their [`StrategyReport`].
///
/// # Panics
///
/// If strategies panic in a round, the rest of that round still runs and is
/// charged; then `race` fires `cancel` and re-raises the lowest-index
/// payload on the caller.
pub fn race(
    strategies: &mut [&mut (dyn SearchStrategy + Send)],
    budget: &mut SearchBudget,
    cancel: &CancelToken,
) -> PortfolioOutcome {
    let start = budget.evaluated();
    let mut retired = vec![false; strategies.len()];
    let mut solutions: Vec<Option<Program>> = vec![None; strategies.len()];
    let mut winner = None;
    while winner.is_none() && retired.contains(&false) && !cancel.is_cancelled() {
        let slices = budget.split_remaining(retired.iter().filter(|r| !**r).count());
        let mut round: Vec<RoundStep<'_>> = strategies
            .iter_mut()
            .enumerate()
            .filter(|(index, _)| !retired[*index])
            .zip(slices)
            .map(|((index, strategy), slice)| RoundStep {
                index,
                strategy: &mut **strategy,
                slice,
                status: None,
            })
            .collect();
        round.par_chunks_mut(1).for_each(|chunk| {
            let step = &mut chunk[0];
            let status = catch_unwind(AssertUnwindSafe(|| step.strategy.step(&mut step.slice)));
            step.status = Some(status);
        });
        let mut panic = None;
        for step in round {
            let drawn = step.slice.evaluated();
            let charged = budget.try_consume_many(drawn);
            debug_assert_eq!(charged, drawn, "slices cannot exceed the remainder");
            match step.status.expect("every round step runs") {
                Ok(StepStatus::Continue) => {}
                Ok(StepStatus::Done) => retired[step.index] = true,
                Ok(StepStatus::Solved(program)) => {
                    retired[step.index] = true;
                    solutions[step.index] = Some(program);
                    winner.get_or_insert(step.index);
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            cancel.cancel();
            resume_unwind(payload);
        }
    }
    if winner.is_some() {
        cancel.cancel();
    }
    let reports: Vec<StrategyReport> = strategies
        .iter()
        .zip(&solutions)
        .map(|(strategy, solution)| StrategyReport {
            name: strategy.name().to_string(),
            candidates_evaluated: strategy.candidates_evaluated(),
            solved: solution.is_some(),
        })
        .collect();
    let (solution, winner) = match winner {
        Some(index) => (
            solutions[index].take(),
            Some(strategies[index].name().to_string()),
        ),
        None => (None, None),
    };
    PortfolioOutcome {
        solution,
        winner,
        candidates_evaluated: budget.evaluated() - start,
        reports,
    }
}

/// A [`Synthesizer`] racing NetSyn's GA islands against a DFS neighborhood
/// walk and a guided beam search in lockstep rounds over the caller's
/// budget.
pub struct PortfolioSynthesizer {
    netsyn: NetSyn,
    name: String,
}

impl PortfolioSynthesizer {
    /// Wraps a [`NetSyn`] configuration as a racing portfolio.
    #[must_use]
    pub fn new(netsyn: NetSyn) -> Self {
        let name = format!("Portfolio_{}", netsyn.name());
        PortfolioSynthesizer { netsyn, name }
    }

    /// Overrides the display name.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The beam's guidance map: the fitness function's own probability map
    /// when it has one (the learned FP model), else a map sharpened toward
    /// the oracle target, else uniform over the domain vocabulary.
    fn beam_map(
        &self,
        problem: &SynthesisProblem,
        fitness: &dyn FitnessFunction,
    ) -> ProbabilityMap {
        fitness
            .probability_map(&problem.spec)
            .or_else(|| {
                self.netsyn.oracle_target().map(|target| {
                    ProbabilityMap::from_target_in(problem.domain, target, ORACLE_MAP_FLOOR)
                })
            })
            .unwrap_or_else(|| ProbabilityMap::uniform_for(problem.domain))
    }

    /// Races the three strategies on `problem` and returns the whole
    /// outcome, per-strategy reports included.
    /// [`Synthesizer::synthesize_cached`] is this call reduced to a
    /// [`SynthesisResult`].
    pub fn race_cached(
        &self,
        problem: &SynthesisProblem,
        budget: &mut SearchBudget,
        rng: &mut dyn RngCore,
        cache: &FitnessCache,
    ) -> PortfolioOutcome {
        let mut ga_config = self.netsyn.config().ga.clone();
        ga_config.program_length = problem.target_length;
        ga_config.domain = problem.domain;
        let fitness = self.netsyn.build_fitness(&problem.spec);
        let map = self.beam_map(problem, fitness.as_ref());
        let ga_seed = rng.next_u64();
        let dfs_seed = rng.next_u64();
        let seeds = random_seed_programs(&ga_config, &problem.spec, DFS_SEED_COUNT, dfs_seed);
        let mut ga = GaSearchStrategy::new(&ga_config, &problem.spec, &fitness, cache, ga_seed);
        let mut dfs = DfsSearchStrategy::new(&ga_config, &problem.spec, &fitness, cache, seeds);
        let mut beam = BeamSearch::new(
            &problem.spec,
            problem.domain,
            problem.target_length,
            map,
            BeamConfig::default(),
        );
        let mut strategies: [&mut (dyn SearchStrategy + Send); 3] = [&mut ga, &mut dfs, &mut beam];
        race(&mut strategies, budget, &CancelToken::new())
    }
}

impl Synthesizer for PortfolioSynthesizer {
    fn name(&self) -> &str {
        &self.name
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
        let outcome = self.race_cached(problem, budget, rng, cache);
        SynthesisResult {
            solution: outcome.solution,
            candidates_evaluated: outcome.candidates_evaluated,
            generations: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FitnessChoice, NetSynConfig};
    use netsyn_dsl::{Function, IntPredicate, IoSpec, Value};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn target() -> Program {
        Program::new(vec![
            Function::Filter(IntPredicate::Positive),
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

    #[test]
    fn portfolio_solves_the_oracle_smoke_problem_within_budget() {
        let config = NetSynConfig::small(FitnessChoice::OracleCommonFunctions, 2);
        let netsyn = NetSyn::new(config, None).with_oracle_target(target());
        let portfolio = PortfolioSynthesizer::new(netsyn);
        assert_eq!(portfolio.name(), "Portfolio_Oracle_CF");
        let problem = SynthesisProblem::new(spec(), 2);
        let cap = 150_000;
        let mut budget = SearchBudget::new(cap);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let result = portfolio.synthesize(&problem, &mut budget, &mut rng);
        assert!(result.is_success(), "some strategy finds the 2-step target");
        assert!(spec().is_satisfied_by(&result.solution.unwrap()));
        assert!(result.candidates_evaluated <= cap);
        assert_eq!(result.candidates_evaluated, budget.evaluated());
    }

    #[test]
    fn empty_race_returns_an_empty_outcome() {
        let mut budget = SearchBudget::new(100);
        let cancel = CancelToken::new();
        let outcome = race(&mut [], &mut budget, &cancel);
        assert_eq!(outcome.solution, None);
        assert_eq!(outcome.winner, None);
        assert_eq!(outcome.candidates_evaluated, 0);
        assert_eq!(budget.evaluated(), 0);
        assert!(outcome.reports.is_empty());
    }
}
