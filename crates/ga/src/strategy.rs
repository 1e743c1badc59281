//! The strategy layer: a uniform step interface over heterogeneous search
//! procedures.
//!
//! A [`SearchStrategy`] is a resumable search whose [`SearchStrategy::step`]
//! performs one bounded unit of work — one generation across all GA islands,
//! one DFS `(gene, position)` neighborhood, one beam depth level — drawing
//! every candidate from the [`SearchBudget`] it is handed. A step touches
//! nothing but the strategy's own state, its budget and the bit-identical
//! score caches, so its result is a pure function of the strategy's state
//! and that budget.
//!
//! The portfolio orchestrator (in `netsyn-core`) races strategies in
//! lockstep rounds: each round hands every live strategy a fresh slice of
//! the remaining budget, steps them all once in parallel, and merges the
//! results in index order. Since no step observes another, a race is as
//! deterministic as the island driver.

use crate::beam::{BeamSearch, BeamStep};
use crate::budget::SearchBudget;
use crate::island::{self, Island, IslandStatus, SynthesisContext};
use netsyn_dsl::Program;
use netsyn_fitness::{FitnessCache, FitnessFunction};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What one [`SearchStrategy::step`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub enum StepStatus {
    /// The strategy found a program satisfying the specification.
    Solved(Program),
    /// The step completed; the strategy has more work to do.
    Continue,
    /// The strategy is out of work: its budget or its search space ran dry.
    Done,
}

/// A resumable search procedure the portfolio orchestrator can race.
pub trait SearchStrategy {
    /// A short stable name for reports.
    fn name(&self) -> &str;

    /// Performs one bounded unit of work, drawing every candidate
    /// evaluation from `budget`.
    fn step(&mut self, budget: &mut SearchBudget) -> StepStatus;

    /// Total candidates this strategy has drawn from its budgets.
    fn candidates_evaluated(&self) -> usize;
}

/// The GA islands as a steppable strategy: one [`step`](SearchStrategy::step)
/// evolves every still-active island by one generation (in index order, on
/// the calling worker) and migrates elites on the configured schedule.
///
/// Unlike the engine's `K > 1` driver, the islands are not given upfront
/// slices: in each step they draw, in index order, from the one budget the
/// step is handed.
pub struct GaSearchStrategy<'a, F: ?Sized> {
    ctx: SynthesisContext<'a, F>,
    islands: Vec<(Island, ChaCha8Rng)>,
    initialized: bool,
    global_generation: usize,
}

impl<'a, F: FitnessFunction + ?Sized> GaSearchStrategy<'a, F> {
    /// Creates the strategy from the same inputs as the engine; island
    /// RNG streams are seeded from `seed` in index order.
    #[must_use]
    pub fn new(
        config: &'a crate::GaConfig,
        spec: &'a netsyn_dsl::IoSpec,
        fitness: &'a F,
        cache: &'a FitnessCache,
        seed: u64,
    ) -> Self {
        config.validate();
        let ctx = SynthesisContext::new(config, spec, fitness, cache);
        let mut master = ChaCha8Rng::seed_from_u64(seed);
        let islands = (0..config.islands)
            .map(|_| {
                (
                    Island::new(config.saturation_window),
                    ChaCha8Rng::seed_from_u64(master.next_u64()),
                )
            })
            .collect();
        GaSearchStrategy {
            ctx,
            islands,
            initialized: false,
            global_generation: 0,
        }
    }

    fn solved(&self) -> Option<Program> {
        self.islands
            .iter()
            .find_map(|(island, _)| match &island.status {
                IslandStatus::Solved { program, .. } => Some(program.clone()),
                _ => None,
            })
    }

    fn any_active(&self) -> bool {
        self.islands
            .iter()
            .any(|(island, _)| island.status == IslandStatus::Active)
    }
}

impl<F: FitnessFunction + ?Sized> SearchStrategy for GaSearchStrategy<'_, F> {
    fn name(&self) -> &str {
        "ga-islands"
    }

    fn step(&mut self, budget: &mut SearchBudget) -> StepStatus {
        if !self.initialized {
            self.initialized = true;
            for (island, rng) in &mut self.islands {
                island.initialize(&self.ctx, budget, rng);
            }
        } else {
            for (island, rng) in &mut self.islands {
                if island.status == IslandStatus::Active {
                    island.step_generation(&self.ctx, budget, rng);
                }
            }
            self.global_generation += 1;
            if self
                .global_generation
                .is_multiple_of(self.ctx.config.migration_interval)
                && self.solved().is_none()
            {
                let mut active: Vec<&mut Island> = self
                    .islands
                    .iter_mut()
                    .filter(|(island, _)| island.status == IslandStatus::Active)
                    .map(|(island, _)| island)
                    .collect();
                island::migrate_ring(&mut active, self.ctx.config.migration_size);
            }
        }
        if let Some(program) = self.solved() {
            return StepStatus::Solved(program);
        }
        if self.any_active() {
            StepStatus::Continue
        } else {
            StepStatus::Done
        }
    }

    fn candidates_evaluated(&self) -> usize {
        self.islands
            .iter()
            .map(|(island, _)| island.evaluated)
            .sum()
    }
}

/// The DFS neighborhood search as a steppable strategy: one
/// [`step`](SearchStrategy::step) explores a single `(gene, position)`
/// neighborhood and commits the descent gene to its best-scoring neighbor,
/// walking positions left to right through each seed program in turn.
pub struct DfsSearchStrategy<'a, F: ?Sized> {
    ctx: SynthesisContext<'a, F>,
    seeds: Vec<Program>,
    gene_index: usize,
    position: usize,
    current_gene: Option<Program>,
    evaluated: usize,
    exhausted: bool,
}

impl<'a, F: FitnessFunction + ?Sized> DfsSearchStrategy<'a, F> {
    /// Creates the strategy over `seeds`, the programs whose neighborhoods
    /// are explored (typically sampled with [`random_seed_programs`]).
    #[must_use]
    pub fn new(
        config: &'a crate::GaConfig,
        spec: &'a netsyn_dsl::IoSpec,
        fitness: &'a F,
        cache: &'a FitnessCache,
        seeds: Vec<Program>,
    ) -> Self {
        let ctx = SynthesisContext::new(config, spec, fitness, cache);
        let current_gene = seeds.first().cloned();
        DfsSearchStrategy {
            ctx,
            seeds,
            gene_index: 0,
            position: 0,
            current_gene,
            evaluated: 0,
            exhausted: false,
        }
    }
}

impl<F: FitnessFunction + ?Sized> SearchStrategy for DfsSearchStrategy<'_, F> {
    fn name(&self) -> &str {
        "dfs-neighborhood"
    }

    fn step(&mut self, budget: &mut SearchBudget) -> StepStatus {
        if self.exhausted {
            return StepStatus::Done;
        }
        let Some(current) = self.current_gene.clone() else {
            return StepStatus::Done;
        };
        if self.position >= current.len() {
            // Advance to the next seed program.
            self.gene_index += 1;
            self.position = 0;
            self.current_gene = self.seeds.get(self.gene_index).cloned();
            return match self.current_gene {
                Some(_) => StepStatus::Continue,
                None => StepStatus::Done,
            };
        }
        match crate::neighborhood::explore_position(
            &current,
            self.position,
            self.ctx.spec,
            self.ctx.config.domain,
            self.ctx.fitness,
            budget,
            &self.ctx.memo,
            &self.ctx.traces,
            &mut self.evaluated,
        ) {
            crate::neighborhood::PositionOutcome::Solved(program) => StepStatus::Solved(program),
            crate::neighborhood::PositionOutcome::Exhausted => {
                self.exhausted = true;
                StepStatus::Done
            }
            crate::neighborhood::PositionOutcome::Committed(descended) => {
                self.current_gene = Some(descended);
                self.position += 1;
                StepStatus::Continue
            }
        }
    }

    fn candidates_evaluated(&self) -> usize {
        self.evaluated
    }
}

impl SearchStrategy for BeamSearch<'_> {
    fn name(&self) -> &str {
        "beam"
    }

    fn step(&mut self, budget: &mut SearchBudget) -> StepStatus {
        match self.step_level(budget) {
            BeamStep::Solved(program) => StepStatus::Solved(program),
            BeamStep::Continue => StepStatus::Continue,
            BeamStep::Finished => StepStatus::Done,
        }
    }

    fn candidates_evaluated(&self) -> usize {
        self.evaluated()
    }
}

/// Samples `count` random dead-code-free programs of the configured length:
/// the seed genes for a [`DfsSearchStrategy`].
#[must_use]
pub fn random_seed_programs(
    config: &crate::GaConfig,
    spec: &netsyn_dsl::IoSpec,
    count: usize,
    seed: u64,
) -> Vec<Program> {
    let input_types = if spec.is_empty() {
        config.domain.default_input_types().to_vec()
    } else {
        spec.input_types()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| island::random_program(config, &input_types, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GaConfig;
    use netsyn_dsl::{Function, IntPredicate, IoSpec, MapOp, Value};
    use netsyn_fitness::{ClosenessMetric, OracleFitness, ProbabilityMap};

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

    fn run_to_completion<S: SearchStrategy + ?Sized>(
        strategy: &mut S,
        budget: &mut SearchBudget,
    ) -> Option<Program> {
        loop {
            match strategy.step(budget) {
                StepStatus::Solved(program) => return Some(program),
                StepStatus::Continue => {}
                StepStatus::Done => return None,
            }
        }
    }

    #[test]
    fn ga_strategy_solves_the_smoke_spec() {
        let mut config = GaConfig::small(3);
        config.islands = 2;
        let spec = spec();
        let oracle = OracleFitness::new(target(), ClosenessMetric::CommonFunctions);
        let cache = FitnessCache::new();
        let mut strategy = GaSearchStrategy::new(&config, &spec, &oracle, &cache, 1);
        assert_eq!(strategy.name(), "ga-islands");
        let mut budget = SearchBudget::new(200_000);
        let solution = run_to_completion(&mut strategy, &mut budget);
        let solution = solution.expect("oracle-guided GA finds the target");
        assert!(spec.is_satisfied_by(&solution));
        assert_eq!(strategy.candidates_evaluated(), budget.evaluated());
    }

    #[test]
    fn dfs_strategy_repairs_a_one_off_seed() {
        let config = GaConfig::small(3);
        let spec = spec();
        let oracle = OracleFitness::new(target(), ClosenessMetric::CommonFunctions);
        let cache = FitnessCache::new();
        let one_off = Program::new(vec![
            Function::Filter(IntPredicate::Positive),
            Function::Map(MapOp::Mul2),
            Function::Sum,
        ]);
        let mut strategy = DfsSearchStrategy::new(&config, &spec, &oracle, &cache, vec![one_off]);
        assert_eq!(strategy.name(), "dfs-neighborhood");
        let mut budget = SearchBudget::new(100_000);
        let solution = run_to_completion(&mut strategy, &mut budget);
        assert!(spec.is_satisfied_by(&solution.expect("one replacement away")));
        assert_eq!(strategy.candidates_evaluated(), budget.evaluated());
    }

    #[test]
    fn beam_strategy_solves_with_informed_guidance() {
        let spec = spec();
        let map = ProbabilityMap::from_target(&target(), 0.01);
        let mut strategy = BeamSearch::new(
            &spec,
            netsyn_dsl::DomainId::List,
            3,
            map,
            crate::BeamConfig::default(),
        );
        assert_eq!(SearchStrategy::name(&strategy), "beam");
        let mut budget = SearchBudget::new(200_000);
        let solution = run_to_completion(&mut strategy, &mut budget);
        assert!(spec.is_satisfied_by(&solution.expect("informed beam solves")));
        assert_eq!(strategy.candidates_evaluated(), budget.evaluated());
    }

    #[test]
    fn shared_budget_caps_the_sum_across_strategies() {
        let config = GaConfig::small(3);
        let spec = spec();
        let oracle = OracleFitness::new(target(), ClosenessMetric::LongestCommonSubsequence);
        let cache = FitnessCache::new();
        let mut ga = GaSearchStrategy::new(&config, &spec, &oracle, &cache, 3);
        let mut dfs = DfsSearchStrategy::new(
            &config,
            &spec,
            &oracle,
            &cache,
            random_seed_programs(&config, &spec, 3, 4),
        );
        let mut budget = SearchBudget::new(500);
        let mut strategies: Vec<&mut dyn SearchStrategy> = vec![&mut ga, &mut dfs];
        'race: loop {
            let mut all_done = true;
            for strategy in &mut strategies {
                match strategy.step(&mut budget) {
                    StepStatus::Solved(_) => break 'race,
                    StepStatus::Continue => all_done = false,
                    StepStatus::Done => {}
                }
            }
            if all_done {
                break;
            }
        }
        let total: usize = strategies.iter().map(|s| s.candidates_evaluated()).sum();
        assert_eq!(total, budget.evaluated());
        assert!(total <= 500);
    }

    #[test]
    fn seed_programs_are_deterministic_per_seed() {
        let config = GaConfig::small(4);
        let spec = spec();
        let a = random_seed_programs(&config, &spec, 5, 42);
        let b = random_seed_programs(&config, &spec, 5, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|p| p.len() == 4));
    }
}
