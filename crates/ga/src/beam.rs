//! Stepwise beam search over partial programs, guided by a probability map.
//!
//! This is the PCCoder-style search (Zohar & Wolf, NeurIPS 2018) lifted out
//! of the baselines crate so the portfolio orchestrator can race it against
//! the GA islands and the DFS neighborhood strategy: a partial program is
//! extended one statement at a time, extensions are ranked by the guidance
//! model's probability mass plus a state heuristic (how similar the partial
//! program's outputs already are to the expected outputs), and the beam
//! widens when a pass fails — complete anytime beam search (CAB).
//!
//! [`BeamSearch`] is *resumable*: each [`BeamSearch::step_level`] call
//! expands exactly one depth level (or performs one CAB widening restart),
//! which is the unit of work one [`crate::SearchStrategy`] step performs in
//! a portfolio round. The `pccoder` baseline drives the same state machine
//! to completion in a loop, so baseline behavior is unchanged by the
//! extraction.

use crate::budget::SearchBudget;
use netsyn_dsl::{DomainId, IoSpec, Program};
use netsyn_fitness::metrics::output_similarity;
use netsyn_fitness::ProbabilityMap;

/// Width schedule of the complete anytime beam search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeamConfig {
    /// Beam width of the first pass.
    pub initial_width: usize,
    /// Hard cap the width doubles up to before the search gives up.
    pub max_width: usize,
}

impl Default for BeamConfig {
    fn default() -> Self {
        BeamConfig {
            initial_width: 8,
            max_width: 4096,
        }
    }
}

/// Scores a partial program: guidance mass of its functions plus the average
/// similarity between its current outputs and the expected outputs (the
/// "state" heuristic).
#[must_use]
pub fn guided_partial_score(partial: &Program, spec: &IoSpec, map: &ProbabilityMap) -> f64 {
    let guidance_score = map.score(partial);
    let state_score: f64 = spec
        .iter()
        .map(|example| {
            partial
                .output(&example.inputs)
                .map(|out| output_similarity(&out, &example.output))
                .unwrap_or(0.0)
        })
        .sum::<f64>()
        / spec.len().max(1) as f64;
    guidance_score + state_score
}

/// What one [`BeamSearch::step_level`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub enum BeamStep {
    /// A full-length extension satisfied the specification.
    Solved(Program),
    /// The level was expanded (or the beam widened); more work remains.
    Continue,
    /// The search is over without a solution: budget denied or width cap
    /// reached.
    Finished,
}

/// A resumable CAB beam search over programs of a fixed target length.
pub struct BeamSearch<'a> {
    spec: &'a IoSpec,
    domain: DomainId,
    target_length: usize,
    map: ProbabilityMap,
    config: BeamConfig,
    beam: Vec<(Program, f64)>,
    width: usize,
    depth: usize,
    evaluated: usize,
    finished: bool,
}

impl<'a> BeamSearch<'a> {
    /// Creates a search for a program of `target_length` statements
    /// satisfying `spec`, ranking extensions with `map`.
    #[must_use]
    pub fn new(
        spec: &'a IoSpec,
        domain: DomainId,
        target_length: usize,
        map: ProbabilityMap,
        config: BeamConfig,
    ) -> Self {
        BeamSearch {
            spec,
            domain,
            target_length,
            map,
            config,
            beam: vec![(Program::default(), 0.0)],
            width: config.initial_width.max(1),
            depth: 0,
            evaluated: 0,
            finished: target_length == 0,
        }
    }

    /// Candidates this search has drawn from its budget so far.
    #[must_use]
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// Whether the search has terminated (solved or given up).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Expands one depth level: every beam entry is extended by every DSL
    /// function, full-length extensions are checked against the
    /// specification, and the `width` best-scoring extensions survive. A
    /// pass that completes the target length without a solution restarts
    /// with a doubled width (CAB) until the budget runs dry or the width
    /// cap is reached.
    pub fn step_level(&mut self, budget: &mut SearchBudget) -> BeamStep {
        if self.finished {
            return BeamStep::Finished;
        }
        let mut extensions: Vec<(Program, f64)> = Vec::new();
        for (partial, _) in &self.beam {
            for &function in self.domain.vocab() {
                let mut functions = partial.functions().to_vec();
                functions.push(function);
                let extended = Program::new(functions);
                if !budget.try_consume() {
                    self.finished = true;
                    return BeamStep::Finished;
                }
                self.evaluated += 1;
                if self.depth + 1 == self.target_length && self.spec.is_satisfied_by(&extended) {
                    self.finished = true;
                    return BeamStep::Solved(extended);
                }
                let score = guided_partial_score(&extended, self.spec, &self.map);
                extensions.push((extended, score));
            }
        }
        // total_cmp: a NaN guidance score takes a deterministic extreme
        // position in the beam (positive NaN first, negative last) instead
        // of scrambling the ranking run to run.
        extensions.sort_by(|a, b| b.1.total_cmp(&a.1));
        extensions.truncate(self.width);
        if extensions.is_empty() {
            return self.widen_or_finish(budget);
        }
        self.beam = extensions;
        self.depth += 1;
        if self.depth >= self.target_length {
            // A full pass found nothing satisfying: complete anytime beam
            // search retries from scratch with a doubled width.
            return self.widen_or_finish(budget);
        }
        BeamStep::Continue
    }

    fn widen_or_finish(&mut self, budget: &SearchBudget) -> BeamStep {
        if budget.is_exhausted() || self.width >= self.config.max_width {
            self.finished = true;
            return BeamStep::Finished;
        }
        self.width = (self.width * 2).min(self.config.max_width);
        self.beam = vec![(Program::default(), 0.0)];
        self.depth = 0;
        BeamStep::Continue
    }

    /// Runs the search to completion: the baseline-style driver.
    pub fn run(&mut self, budget: &mut SearchBudget) -> Option<Program> {
        loop {
            match self.step_level(budget) {
                BeamStep::Solved(program) => return Some(program),
                BeamStep::Continue => {}
                BeamStep::Finished => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_dsl::{Function, IntPredicate, MapOp, Value};

    fn target() -> Program {
        Program::new(vec![
            Function::Filter(IntPredicate::Positive),
            Function::Map(MapOp::Mul2),
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
    fn informed_beam_finds_the_target() {
        let spec = spec();
        let map = ProbabilityMap::from_target(&target(), 0.01);
        let mut search = BeamSearch::new(&spec, DomainId::List, 3, map, BeamConfig::default());
        let mut budget = SearchBudget::new(200_000);
        let solution = search.run(&mut budget);
        let solution = solution.expect("informed guidance finds the target");
        assert!(spec.is_satisfied_by(&solution));
        assert_eq!(search.evaluated(), budget.evaluated());
        assert!(search.is_finished());
    }

    #[test]
    fn beam_respects_the_budget() {
        let spec = spec();
        let map = ProbabilityMap::uniform();
        let mut search = BeamSearch::new(&spec, DomainId::List, 5, map, BeamConfig::default());
        let mut budget = SearchBudget::new(300);
        let solution = search.run(&mut budget);
        assert!(search.evaluated() <= 300);
        assert!(budget.is_exhausted() || solution.is_some());
    }

    #[test]
    fn zero_length_target_finishes_immediately() {
        let spec = spec();
        let map = ProbabilityMap::uniform();
        let mut search = BeamSearch::new(&spec, DomainId::List, 0, map, BeamConfig::default());
        let mut budget = SearchBudget::new(100);
        assert_eq!(search.run(&mut budget), None);
        assert_eq!(budget.evaluated(), 0);
    }
}
