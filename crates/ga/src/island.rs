//! The island layer: per-island evolution state and the deterministic
//! migration schedule.
//!
//! A synthesis shards into `K = GaConfig::islands` island populations. Each
//! island owns its population, saturation detector, fitness histories and —
//! crucially for determinism — its *own* RNG stream and its own fixed slice
//! of the candidate budget:
//!
//! * **RNG streams.** With `K = 1` the island consumes the caller's RNG
//!   directly, which makes the single-island engine draw-for-draw identical
//!   to the historical panmictic loop (pinned by the golden-bytes test in
//!   `tests/warm_cache_determinism.rs`). With `K > 1` the caller's RNG
//!   seeds one `ChaCha8Rng` per island, in island-index order.
//! * **Budget slices.** With `K > 1` the remaining budget is partitioned up
//!   front with [`SearchBudget::split_remaining`]: `remaining / K` per
//!   island, the first `remaining % K` islands taking one extra. Slices
//!   are never rebalanced — an island that solves early strands its
//!   leftover slice. That wastes a little budget but buys bit-for-bit
//!   determinism: no island's admission decisions ever depend on how fast
//!   another island (or pool worker) is running.
//! * **Migration.** Every `migration_interval` generations the islands
//!   synchronize and migrate around a ring: island `i` sends clones of its
//!   `migration_size` fittest genes to island `(i + 1) % K`, which replaces
//!   its worst-ranked genes. Emigrants are snapshotted for *all* islands
//!   before any island is mutated, and replacements are applied in
//!   island-index order, so the merged state is a pure function of the
//!   per-island states.
//!
//! Islands evolve on separate pool workers (`par_chunks_mut(1)`, one
//! stealable task per island) between synchronization points. They share the
//! striped [`SpecScores`] memo and [`TraceEncodingCache`] shard, so a
//! program scored on one island is never re-scored on another — safe because
//! cached scores are bit-identical to recomputed ones, whichever island (or
//! process) computed them first.

use crate::budget::SearchBudget;
use crate::config::{GaConfig, NeighborhoodStrategy};
use crate::crossover;
use crate::engine::GaOutcome;
use crate::gene::{Gene, Population};
use crate::mutation;
use crate::neighborhood;
use crate::saturation::SaturationDetector;
use crate::selection::RouletteWheel;
use netsyn_dsl::dce::has_dead_code;
use netsyn_dsl::{IoSpec, Program, Type};
use netsyn_fitness::cache::{resolve_batch, SpecScores};
use netsyn_fitness::{FitnessCache, FitnessFunction, ProbabilityMap, TraceEncodingCache};
use netsyn_nn::{FxHashMap, FxHasher};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Everything shared by all islands of one synthesis call: the problem, the
/// fitness function and the cache shards. Immutable during evolution, so it
/// can be borrowed concurrently by islands on different pool workers.
pub(crate) struct SynthesisContext<'a, F: ?Sized> {
    pub config: &'a GaConfig,
    pub spec: &'a IoSpec,
    pub fitness: &'a F,
    pub input_types: Vec<Type>,
    pub probability_map: Option<ProbabilityMap>,
    pub memo: Arc<SpecScores>,
    pub traces: Arc<TraceEncodingCache>,
    pub cache: &'a FitnessCache,
}

impl<'a, F: FitnessFunction + ?Sized> SynthesisContext<'a, F> {
    pub(crate) fn new(
        config: &'a GaConfig,
        spec: &'a IoSpec,
        fitness: &'a F,
        cache: &'a FitnessCache,
    ) -> Self {
        let input_types = if spec.is_empty() {
            config.domain.default_input_types().to_vec()
        } else {
            spec.input_types()
        };
        SynthesisContext {
            config,
            spec,
            fitness,
            input_types,
            probability_map: fitness.probability_map(spec),
            memo: cache.shard(&fitness.cache_key(), spec),
            traces: cache.trace_shard(&fitness.cache_key()),
            cache,
        }
    }
}

/// Why an island stopped evolving (or `Active` if it has not).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum IslandStatus {
    /// Still evolving.
    Active,
    /// Found a program satisfying the specification.
    Solved {
        program: Program,
        by_neighborhood: bool,
    },
    /// Its budget slice ran dry.
    Exhausted,
    /// Reached `max_generations` without a solution.
    Finished,
}

/// One island population's complete evolution state.
pub(crate) struct Island {
    pub population: Population,
    pub detector: SaturationDetector,
    pub average_history: Vec<f64>,
    pub best_history: Vec<f64>,
    /// Generations this island has completed.
    pub generations: usize,
    /// Candidates this island has drawn from its budget.
    pub evaluated: usize,
    pub initialized: bool,
    pub status: IslandStatus,
    /// Packed keys ([`packed_key`]) of the candidates this island checked
    /// against the spec and found unsatisfying. About 85% of offspring
    /// repeat an earlier program, and the check is a pure function of the
    /// program for the island's fixed spec, so a hit skips the interpreter.
    failed_spec: HashSet<u128, BuildHasherDefault<FxHasher>>,
}

impl Island {
    pub(crate) fn new(saturation_window: usize) -> Self {
        Island {
            population: Population::default(),
            detector: SaturationDetector::new(saturation_window),
            average_history: Vec::new(),
            best_history: Vec::new(),
            generations: 0,
            evaluated: 0,
            initialized: false,
            status: IslandStatus::Active,
            failed_spec: HashSet::default(),
        }
    }

    /// `spec.is_satisfied_by(program)`, served from the island's memo of
    /// failed checks when the program has failed before.
    fn satisfies(&mut self, spec: &IoSpec, program: &Program) -> bool {
        let key = packed_key(program);
        if key.is_some_and(|key| self.failed_spec.contains(&key)) {
            return false;
        }
        let satisfied = spec.is_satisfied_by(program);
        if let (false, Some(key)) = (satisfied, key) {
            self.failed_spec.insert(key);
        }
        satisfied
    }

    fn consume(&mut self, budget: &mut SearchBudget) -> bool {
        if budget.try_consume() {
            self.evaluated += 1;
            true
        } else {
            false
        }
    }

    /// Fills the initial population with random, dead-code-free genes,
    /// checking each against the specification. May leave the island
    /// `Solved` (a random gene satisfied the spec) or `Exhausted`.
    pub(crate) fn initialize<F, R>(
        &mut self,
        ctx: &SynthesisContext<'_, F>,
        budget: &mut SearchBudget,
        rng: &mut R,
    ) where
        F: FitnessFunction + ?Sized,
        R: Rng + ?Sized,
    {
        debug_assert!(!self.initialized);
        self.initialized = true;
        for _ in 0..ctx.config.population_size {
            let program = random_program(ctx.config, &ctx.input_types, rng);
            if !self.consume(budget) {
                self.status = IslandStatus::Exhausted;
                return;
            }
            if self.satisfies(ctx.spec, &program) {
                self.status = IslandStatus::Solved {
                    program,
                    by_neighborhood: false,
                };
                return;
            }
            self.population.genes_mut().push(Gene::new(program));
        }
    }

    /// Runs one generation: score the population, record histories, run the
    /// saturation-triggered neighborhood search if due, then breed the next
    /// generation. Transitions `status` out of `Active` on solution, budget
    /// exhaustion or the generation cap.
    pub(crate) fn step_generation<F, R>(
        &mut self,
        ctx: &SynthesisContext<'_, F>,
        budget: &mut SearchBudget,
        rng: &mut R,
    ) where
        F: FitnessFunction + ?Sized,
        R: Rng + ?Sized,
    {
        debug_assert_eq!(self.status, IslandStatus::Active);
        if self.generations >= ctx.config.max_generations {
            self.status = IslandStatus::Finished;
            return;
        }
        self.generations += 1;
        evaluate_population(
            &mut self.population,
            ctx.fitness,
            ctx.spec,
            &ctx.memo,
            &ctx.traces,
        );
        // One durable-flush tick per generation: a no-op for in-memory
        // caches, an occasional async append for durable ones.
        ctx.cache.maybe_periodic_flush();
        let average = self.population.average_fitness();
        let best = self.population.best_fitness().unwrap_or(0.0);
        self.average_history.push(average);
        self.best_history.push(best);
        self.detector.record(average);

        // Saturation-triggered restricted local neighborhood search.
        if self.detector.is_saturated() && ctx.config.neighborhood != NeighborhoodStrategy::Disabled
        {
            let top: Vec<Program> = self
                .population
                .top_genes(ctx.config.neighborhood_top_n)
                .into_iter()
                .map(|g| g.program)
                .collect();
            let ns = neighborhood::search(
                &top,
                ctx.spec,
                ctx.config.neighborhood,
                ctx.config.domain,
                ctx.fitness,
                budget,
                &ctx.memo,
                &ctx.traces,
                Some(ctx.cache),
            );
            self.evaluated += ns.candidates_evaluated;
            self.detector.reset();
            if let Some(solution) = ns.solution {
                self.status = IslandStatus::Solved {
                    program: solution,
                    by_neighborhood: true,
                };
                return;
            }
            if budget.is_exhausted() {
                self.status = IslandStatus::Exhausted;
                return;
            }
        }

        // Breed the next generation.
        match self.breed(ctx, budget, rng) {
            BreedResult::Solution(program) => {
                self.status = IslandStatus::Solved {
                    program,
                    by_neighborhood: false,
                };
                return;
            }
            BreedResult::Exhausted => {
                self.status = IslandStatus::Exhausted;
                return;
            }
            BreedResult::Next(next) => self.population = next,
        }
        if self.generations >= ctx.config.max_generations {
            self.status = IslandStatus::Finished;
        }
    }

    fn breed<F, R>(
        &mut self,
        ctx: &SynthesisContext<'_, F>,
        budget: &mut SearchBudget,
        rng: &mut R,
    ) -> BreedResult
    where
        F: FitnessFunction + ?Sized,
        R: Rng + ?Sized,
    {
        let config = ctx.config;
        let weights = self.population.fitness_weights();
        let wheel = RouletteWheel::new(&weights);
        let mut next: Vec<Gene> = self.population.top_genes(config.elite_count);
        while next.len() < config.population_size {
            let draw: f64 = rng.gen();
            let offspring = if draw < config.crossover_rate {
                crossover_offspring(config, &self.population, &wheel, &ctx.input_types, rng)
            } else if draw < config.crossover_rate + config.mutation_rate {
                mutation_offspring(
                    config,
                    &self.population,
                    &wheel,
                    &ctx.input_types,
                    ctx.probability_map.as_ref(),
                    rng,
                )
            } else {
                // Reproduction: copy a selected gene unchanged (not a new
                // candidate program, so it does not consume search budget).
                next.push(self.population.genes()[wheel.spin(rng)].clone());
                continue;
            };
            if !self.consume(budget) {
                return BreedResult::Exhausted;
            }
            if self.satisfies(ctx.spec, &offspring) {
                return BreedResult::Solution(offspring);
            }
            next.push(Gene::new(offspring));
        }
        BreedResult::Next(Population::new(next))
    }
}

enum BreedResult {
    Solution(Program),
    Exhausted,
    Next(Population),
}

/// Ring migration: island `i`'s `migration_size` fittest genes replace the
/// worst-ranked genes of island `(i + 1) % K`.
///
/// Emigrant clones are snapshotted from every island before any island is
/// mutated, and replacements land in island-index order, so the post-
/// migration state depends only on the pre-migration states — never on
/// which pool worker ran which island. Emigrants keep their cached fitness,
/// so migration itself scores nothing.
pub(crate) fn migrate_ring(islands: &mut [&mut Island], migration_size: usize) {
    let k = islands.len();
    if k < 2 || migration_size == 0 {
        return;
    }
    let emigrants: Vec<Vec<Gene>> = islands
        .iter()
        .map(|island| island.population.top_genes(migration_size))
        .collect();
    for (i, island) in islands.iter_mut().enumerate() {
        let incoming = &emigrants[(i + k - 1) % k];
        let len = island.population.len();
        let take = incoming.len().min(len);
        if take == 0 {
            continue;
        }
        // The tail of the full ranking is the worst-ranked genes; replace
        // them in ranking order with the immigrants in emigration order.
        let order = island.population.top_indices(len);
        let worst: Vec<usize> = order[len - take..].to_vec();
        for (slot, gene) in worst.into_iter().zip(incoming.iter()) {
            island.population.genes_mut()[slot] = gene.clone();
        }
    }
}

/// Evaluates the fitness of every not-yet-scored gene.
///
/// Previously-seen programs — from earlier generations, earlier runs sharing
/// the cache shard, *or another island* — are served from `memo`; the
/// remaining unique programs are scored with a single
/// [`FitnessFunction::score_batch_cached`] call (reusing the trace-value
/// encodings memoized in `traces`), so a learned fitness runs one batched
/// network pass per generation instead of one forward pass per gene. Scores
/// land by candidate index, independent of scheduling: each distinct program
/// resolves to exactly one `f64`, and genes are filled from those per-index
/// slots, so the ranking — and the whole trajectory — is identical however
/// many threads the pool runs.
///
/// The lookup, the one scoring call and the first-write-wins publish are
/// `netsyn_fitness::cache::resolve_batch`; no shard lock is held while
/// scoring. Concurrent runs (or islands) of the same task that miss the same
/// program at the same moment both score it, which is rare (at most 0.08% of
/// the programs looked up on the `edit_islands` e2ebench workload, none on
/// the learned-fitness ones at K = 2). Cached and freshly computed scores are
/// bit-identical by the batched-scoring contract, so the trajectory is the
/// same whichever thread publishes first.
pub(crate) fn evaluate_population<F>(
    population: &mut Population,
    fitness: &F,
    spec: &IoSpec,
    memo: &SpecScores,
    traces: &TraceEncodingCache,
) where
    F: FitnessFunction + ?Sized,
{
    // Distinct programs still needing a score, in first-seen order, and
    // each unscored gene's slot among them.
    let mut needed: Vec<Program> = Vec::new();
    let mut slots: Vec<Option<usize>> = Vec::with_capacity(population.len());
    let mut index_of: FxHashMap<&Program, usize> = FxHashMap::default();
    for gene in population.genes() {
        slots.push(gene.fitness.is_none().then(|| {
            *index_of.entry(&gene.program).or_insert_with(|| {
                needed.push(gene.program.clone());
                needed.len() - 1
            })
        }));
    }
    if needed.is_empty() {
        return;
    }
    let resolved = resolve_batch(memo, &needed, |batch| {
        fitness.score_batch_cached(batch, spec, traces)
    });
    for (gene, slot) in population.genes_mut().iter_mut().zip(slots) {
        if let Some(slot) = slot {
            gene.fitness = Some(resolved[slot]);
        }
    }
}

/// Samples a random program of the configured length without dead code
/// (best effort within `dead_code_retries`).
pub(crate) fn random_program<R: Rng + ?Sized>(
    config: &GaConfig,
    input_types: &[Type],
    rng: &mut R,
) -> Program {
    let vocab = config.domain.vocab();
    without_dead_code(config, input_types, rng, |rng| {
        (0..config.program_length)
            .map(|_| vocab[rng.gen_range(0..vocab.len())])
            .collect()
    })
}

fn crossover_offspring<R: Rng + ?Sized>(
    config: &GaConfig,
    population: &Population,
    wheel: &RouletteWheel<'_>,
    input_types: &[Type],
    rng: &mut R,
) -> Program {
    without_dead_code(config, input_types, rng, |rng| {
        let (a, b) = wheel.spin_pair(rng);
        crossover::single_point(
            &population.genes()[a].program,
            &population.genes()[b].program,
            rng,
        )
    })
}

fn mutation_offspring<R: Rng + ?Sized>(
    config: &GaConfig,
    population: &Population,
    wheel: &RouletteWheel<'_>,
    input_types: &[Type],
    probability_map: Option<&ProbabilityMap>,
    rng: &mut R,
) -> Program {
    let parent = &population.genes()[wheel.spin(rng)].program;
    without_dead_code(config, input_types, rng, |rng| {
        mutation::point_mutation(
            parent,
            config.mutation_mode,
            probability_map,
            config.domain,
            rng,
        )
    })
}

/// The first of up to `1 + dead_code_retries` programs from `make` that has
/// no dead code, or the last one made.
fn without_dead_code<R: Rng + ?Sized>(
    config: &GaConfig,
    input_types: &[Type],
    rng: &mut R,
    mut make: impl FnMut(&mut R) -> Program,
) -> Program {
    let mut last = make(rng);
    for _ in 0..config.dead_code_retries {
        if !has_dead_code(&last, input_types) {
            return last;
        }
        last = make(rng);
    }
    last
}

/// The longest program [`packed_key`] packs.
const MAX_PACKED_LEN: usize = (u128::BITS / 6) as usize;

/// An exact, allocation-free key for `program`: its stable function ids
/// (1..=59, six bits each) packed into a `u128`, first statement lowest.
/// Ids are never 0, so programs of different lengths get different keys.
/// `None` for programs longer than [`MAX_PACKED_LEN`], which the memo skips.
fn packed_key(program: &Program) -> Option<u128> {
    if program.len() > MAX_PACKED_LEN {
        return None;
    }
    Some(
        program
            .iter()
            .rev()
            .fold(0u128, |key, function| key << 6 | u128::from(function.id())),
    )
}

/// One island bundled with its private RNG stream and budget slice for the
/// `K > 1` driver. The bundle is what moves to a pool worker between
/// migration points — nothing an island touches is shared mutably.
pub(crate) struct IslandCell {
    pub island: Island,
    pub rng: ChaCha8Rng,
    pub budget: SearchBudget,
}

/// Drives one island with the caller's RNG and budget: the classic
/// panmictic engine. Draw-for-draw identical to the historical
/// single-population loop (pinned by the golden-bytes test).
pub(crate) fn synthesize_single<F, R>(
    ctx: &SynthesisContext<'_, F>,
    budget: &mut SearchBudget,
    rng: &mut R,
) -> GaOutcome
where
    F: FitnessFunction + ?Sized,
    R: Rng + ?Sized,
{
    let mut island = Island::new(ctx.config.saturation_window);
    island.initialize(ctx, budget, rng);
    while island.status == IslandStatus::Active {
        island.step_generation(ctx, budget, rng);
    }
    let Island {
        average_history,
        best_history,
        generations,
        evaluated,
        status,
        ..
    } = island;
    let (solution, found_by_neighborhood) = match status {
        IslandStatus::Solved {
            program,
            by_neighborhood,
        } => (Some(program), by_neighborhood),
        _ => (None, false),
    };
    GaOutcome {
        solution,
        generations,
        candidates_evaluated: evaluated,
        found_by_neighborhood,
        average_fitness_history: average_history,
        best_fitness_history: best_history,
    }
}

/// Drives `k >= 2` islands: per-island RNG streams seeded from the caller's
/// RNG in index order, fixed upfront budget slices, epochs of
/// `migration_interval` generations on separate pool workers, then
/// index-ordered ring migration. The merged [`GaOutcome`] is a pure function
/// of `(config, spec, fitness, seed)` — see the module docs.
pub(crate) fn synthesize_islands<F, R>(
    ctx: &SynthesisContext<'_, F>,
    k: usize,
    master: &mut SearchBudget,
    rng: &mut R,
) -> GaOutcome
where
    F: FitnessFunction + ?Sized,
    R: Rng + ?Sized,
{
    debug_assert!(k >= 2);
    // Fixed upfront partition of the remaining master budget, never
    // rebalanced (determinism over utilization).
    let mut cells: Vec<IslandCell> = master
        .split_remaining(k)
        .into_iter()
        .map(|budget| IslandCell {
            island: Island::new(ctx.config.saturation_window),
            rng: ChaCha8Rng::seed_from_u64(rng.next_u64()),
            budget,
        })
        .collect();

    // Initial populations, one pool task per island.
    cells.par_chunks_mut(1).for_each(|chunk| {
        let cell = &mut chunk[0];
        cell.island.initialize(ctx, &mut cell.budget, &mut cell.rng);
    });

    let any_solved = |cells: &[IslandCell]| {
        cells
            .iter()
            .any(|c| matches!(c.island.status, IslandStatus::Solved { .. }))
    };
    while !any_solved(&cells)
        && cells
            .iter()
            .any(|c| c.island.status == IslandStatus::Active)
    {
        // One epoch: every still-active island evolves `migration_interval`
        // generations on its own pool worker (one stealable task each).
        cells.par_chunks_mut(1).for_each(|chunk| {
            let cell = &mut chunk[0];
            for _ in 0..ctx.config.migration_interval {
                if cell.island.status != IslandStatus::Active {
                    break;
                }
                cell.island
                    .step_generation(ctx, &mut cell.budget, &mut cell.rng);
            }
        });
        if any_solved(&cells) {
            break;
        }
        // Synchronization point: still-active islands migrate around the
        // ring in index order.
        let mut active: Vec<&mut Island> = cells
            .iter_mut()
            .filter(|c| c.island.status == IslandStatus::Active)
            .map(|c| &mut c.island)
            .collect();
        migrate_ring(&mut active, ctx.config.migration_size);
    }

    let consumed: usize = cells.iter().map(|c| c.island.evaluated).sum();
    let charged = master.try_consume_many(consumed);
    debug_assert_eq!(charged, consumed, "slices cannot exceed the master cap");
    merged_outcome(cells)
}

/// Merges per-island states into one [`GaOutcome`], index-ordered: the
/// winner is the *lowest-index* solved island (deterministic whatever the
/// worker schedule), generations is the maximum over islands, candidate
/// counts are summed, and the per-generation histories average (mean) and
/// maximize (best) over the islands that reached each generation.
fn merged_outcome(cells: Vec<IslandCell>) -> GaOutcome {
    let generations = cells
        .iter()
        .map(|c| c.island.generations)
        .max()
        .unwrap_or(0);
    let candidates_evaluated = cells.iter().map(|c| c.island.evaluated).sum();
    let mut average_fitness_history = Vec::with_capacity(generations);
    let mut best_fitness_history = Vec::with_capacity(generations);
    for g in 0..generations {
        let mut sum = 0.0;
        let mut islands_at_g = 0usize;
        let mut best = f64::NEG_INFINITY;
        for cell in &cells {
            if let Some(&average) = cell.island.average_history.get(g) {
                sum += average;
                islands_at_g += 1;
            }
            if let Some(&b) = cell.island.best_history.get(g) {
                best = best.max(b);
            }
        }
        debug_assert!(islands_at_g > 0, "the longest island reaches every g");
        average_fitness_history.push(sum / islands_at_g as f64);
        best_fitness_history.push(best);
    }
    let winner = cells.into_iter().find_map(|c| match c.island.status {
        IslandStatus::Solved {
            program,
            by_neighborhood,
        } => Some((program, by_neighborhood)),
        _ => None,
    });
    let (solution, found_by_neighborhood) = match winner {
        Some((program, by_neighborhood)) => (Some(program), by_neighborhood),
        None => (None, false),
    };
    GaOutcome {
        solution,
        generations,
        candidates_evaluated,
        found_by_neighborhood,
        average_fitness_history,
        best_fitness_history,
    }
}

/// The strictly parsed `NETSYN_ISLANDS` override.
///
/// Returns `Some(k)` for a valid integer `k >= 1`. An invalid value — not an
/// integer, zero, or non-unicode — is *not* silently ignored: one warning
/// line naming the rejected value and the fallback is printed to stderr, and
/// the configured island count is used.
pub(crate) fn islands_from_env() -> Option<usize> {
    static WARNED: std::sync::Once = std::sync::Once::new();
    match std::env::var("NETSYN_ISLANDS") {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                WARNED.call_once(|| {
                    eprintln!(
                        "netsyn: ignoring invalid NETSYN_ISLANDS={value:?} \
                         (expected an integer >= 1); using the configured island count"
                    );
                });
                None
            }
        },
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(raw)) => {
            WARNED.call_once(|| {
                eprintln!(
                    "netsyn: ignoring non-unicode NETSYN_ISLANDS={raw:?} \
                     (expected an integer >= 1); using the configured island count"
                );
            });
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_dsl::Function;

    fn scored_island(scores: &[f64]) -> Island {
        let mut island = Island::new(2);
        island.initialized = true;
        for (i, &score) in scores.iter().enumerate() {
            let program = Program::new(vec![Function::ALL[i]; 2]);
            let mut gene = Gene::new(program);
            gene.fitness = Some(score);
            island.population.genes_mut().push(gene);
        }
        island
    }

    #[test]
    fn migration_moves_top_genes_around_the_ring() {
        let mut a = scored_island(&[5.0, 1.0, 0.5]);
        let mut b = scored_island(&[4.0, 3.0, 0.1]);
        let a_top = a.population.top_genes(1)[0].clone();
        let b_top = b.population.top_genes(1)[0].clone();
        migrate_ring(&mut [&mut a, &mut b], 1);
        // a's best went to b (replacing b's worst), and vice versa.
        assert!(b.population.genes().contains(&a_top));
        assert!(a.population.genes().contains(&b_top));
        // Population sizes are unchanged.
        assert_eq!(a.population.len(), 3);
        assert_eq!(b.population.len(), 3);
        // The receivers' best genes survive.
        assert!(b.population.genes().contains(&b_top));
        assert!(a.population.genes().contains(&a_top));
    }

    #[test]
    fn migration_is_deterministic_in_island_order() {
        let build = || {
            (
                scored_island(&[5.0, 1.0, 0.5]),
                scored_island(&[4.0, 3.0, 0.1]),
                scored_island(&[2.0, 6.0, 0.2]),
            )
        };
        let (mut a1, mut b1, mut c1) = build();
        let (mut a2, mut b2, mut c2) = build();
        migrate_ring(&mut [&mut a1, &mut b1, &mut c1], 2);
        migrate_ring(&mut [&mut a2, &mut b2, &mut c2], 2);
        assert_eq!(a1.population.genes(), a2.population.genes());
        assert_eq!(b1.population.genes(), b2.population.genes());
        assert_eq!(c1.population.genes(), c2.population.genes());
    }

    #[test]
    fn packed_keys_are_distinct_and_bounded() {
        let mut keys = HashSet::new();
        let mut programs = vec![Program::default()];
        programs.extend(Function::EXTENDED.iter().map(|&f| Program::new(vec![f])));
        for a in Function::EXTENDED {
            for b in Function::EXTENDED {
                programs.push(Program::new(vec![a, b]));
            }
        }
        for program in &programs {
            let key = packed_key(program).expect("short programs pack");
            assert!(keys.insert(key), "{program} shares a key");
        }
        let last = Function::EXTENDED[Function::EXTENDED_COUNT - 1];
        assert!(packed_key(&Program::new(vec![last; MAX_PACKED_LEN])).is_some());
        assert_eq!(
            packed_key(&Program::new(vec![last; MAX_PACKED_LEN + 1])),
            None
        );
    }

    #[test]
    fn single_island_migration_is_a_no_op() {
        let mut a = scored_island(&[5.0, 1.0, 0.5]);
        let before = a.population.genes().to_vec();
        migrate_ring(&mut [&mut a], 3);
        assert_eq!(a.population.genes(), &before[..]);
    }
}
