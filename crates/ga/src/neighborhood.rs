//! Restricted local neighborhood search (Algorithm 1 of the paper).
//!
//! Given the top-N genes of the population, the neighborhood of a gene is the
//! set of programs obtained by replacing a single statement with every other
//! DSL function. The search checks each neighbor against the specification;
//! its cost is `O(N · len(ζ) · |Σ_DSL|)` candidate programs, dramatically
//! smaller than an unrestricted breadth-first search of the program space.

use crate::budget::SearchBudget;
use crate::config::NeighborhoodStrategy;
use netsyn_dsl::{DomainId, IoSpec, Program};
use netsyn_fitness::cache::{resolve_batch, SpecScores};
use netsyn_fitness::{FitnessCache, FitnessFunction, TraceEncodingCache};

/// Outcome of one neighborhood-search invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborhoodOutcome {
    /// The equivalent program, if one was found in the neighborhood.
    pub solution: Option<Program>,
    /// Number of candidate programs evaluated during the search.
    pub candidates_evaluated: usize,
}

/// Searches the neighborhoods of `genes` for a program satisfying `spec`.
///
/// * [`NeighborhoodStrategy::Bfs`] checks every single-function replacement of
///   every gene (Algorithm 1).
/// * [`NeighborhoodStrategy::Dfs`] walks positions left to right and, after
///   exploring a position, commits the gene to the best-scoring neighbor
///   before moving to the next position (the paper's DFS variant).
/// * [`NeighborhoodStrategy::Disabled`] returns immediately.
///
/// The DFS variant serves previously-scored neighbors from `memo` — the same
/// spec-keyed [`SpecScores`] shard the engine's generation loop uses — and
/// inserts what it scores, so repeated saturation events (and warm runs of
/// the same task) never re-score a program; fresh scores go through
/// [`FitnessFunction::score_batch_cached`] with the `traces` encoding shard.
/// Cached scores are bit-identical to recomputed ones, so the committed
/// descent is unchanged. Budget accounting is cache-independent: every
/// neighbor *checked* consumes budget, cached or not.
///
/// Every candidate checked is drawn from `budget`; the search stops early when
/// the budget is exhausted.
///
/// `persist`, when given, is the owning [`FitnessCache`]: the DFS variant
/// ticks its periodic-flush clock after each explored position, so a long
/// saturation-triggered search keeps the durable tier as current as the
/// generation loop does (a no-op for in-memory caches).
#[allow(clippy::too_many_arguments)]
pub fn search<F>(
    genes: &[Program],
    spec: &IoSpec,
    strategy: NeighborhoodStrategy,
    domain: DomainId,
    fitness: &F,
    budget: &mut SearchBudget,
    memo: &SpecScores,
    traces: &TraceEncodingCache,
    persist: Option<&FitnessCache>,
) -> NeighborhoodOutcome
where
    F: FitnessFunction + ?Sized,
{
    match strategy {
        NeighborhoodStrategy::Disabled => NeighborhoodOutcome {
            solution: None,
            candidates_evaluated: 0,
        },
        NeighborhoodStrategy::Bfs => bfs_search(genes, spec, domain, budget),
        NeighborhoodStrategy::Dfs => {
            dfs_search(genes, spec, domain, fitness, budget, memo, traces, persist)
        }
    }
}

/// Descending-preference comparison for neighbor scores with a total,
/// NaN-ranks-last policy: a NaN-scoring neighbor must never be committed as
/// the DFS descent point when any real-scored neighbor exists (the engine's
/// *gene* ranking is deliberately NaN-first to be loud; here a NaN winning
/// position 0 would silently poison the rest of the descent — `score > NaN`
/// is false for every later neighbor). Among NaNs, `total_cmp` keeps the
/// order deterministic whatever the sign bit; real-vs-real defers to the
/// usual IEEE order, preserving the original first-strictly-greatest-wins
/// trajectory bit for bit.
fn neighbor_score_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_nan(), b.is_nan()) {
        (true, true) => a.total_cmp(&b),
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        // netsyn-lint: allow(partial-cmp-unwrap) — the match arms above dispatch every NaN combination, so both operands are non-NaN here
        (false, false) => a.partial_cmp(&b).expect("both scores are non-NaN"),
    }
}

fn bfs_search(
    genes: &[Program],
    spec: &IoSpec,
    domain: DomainId,
    budget: &mut SearchBudget,
) -> NeighborhoodOutcome {
    let mut evaluated = 0usize;
    for gene in genes {
        for position in 0..gene.len() {
            let current = gene.get(position).expect("position in range");
            for &replacement in domain.vocab() {
                if replacement == current {
                    continue;
                }
                if !budget.try_consume() {
                    return NeighborhoodOutcome {
                        solution: None,
                        candidates_evaluated: evaluated,
                    };
                }
                evaluated += 1;
                let neighbor = gene.with_replaced(position, replacement);
                if spec.is_satisfied_by(&neighbor) {
                    return NeighborhoodOutcome {
                        solution: Some(neighbor),
                        candidates_evaluated: evaluated,
                    };
                }
            }
        }
    }
    NeighborhoodOutcome {
        solution: None,
        candidates_evaluated: evaluated,
    }
}

#[allow(clippy::too_many_arguments)]
fn dfs_search<F>(
    genes: &[Program],
    spec: &IoSpec,
    domain: DomainId,
    fitness: &F,
    budget: &mut SearchBudget,
    memo: &SpecScores,
    traces: &TraceEncodingCache,
    persist: Option<&FitnessCache>,
) -> NeighborhoodOutcome
where
    F: FitnessFunction + ?Sized,
{
    let mut evaluated = 0usize;
    for gene in genes {
        let mut current_gene = gene.clone();
        for position in 0..current_gene.len() {
            match explore_position(
                &current_gene,
                position,
                spec,
                domain,
                fitness,
                budget,
                memo,
                traces,
                &mut evaluated,
            ) {
                PositionOutcome::Solved(solution) => {
                    return NeighborhoodOutcome {
                        solution: Some(solution),
                        candidates_evaluated: evaluated,
                    };
                }
                PositionOutcome::Exhausted => {
                    return NeighborhoodOutcome {
                        solution: None,
                        candidates_evaluated: evaluated,
                    };
                }
                PositionOutcome::Committed(descended) => current_gene = descended,
            }
            if let Some(cache) = persist {
                cache.maybe_periodic_flush();
            }
        }
    }
    NeighborhoodOutcome {
        solution: None,
        candidates_evaluated: evaluated,
    }
}

/// What exploring one position's neighborhood produced.
pub(crate) enum PositionOutcome {
    /// A neighbor satisfied the specification.
    Solved(Program),
    /// The budget ran dry mid-neighborhood.
    Exhausted,
    /// No solution; the gene committed to the best-scoring neighbor (or
    /// stayed unchanged when the position has no neighbors).
    Committed(Program),
}

/// Explores a single `(gene, position)` DFS neighborhood: checks every
/// single-function replacement at `position` against the specification, then
/// commits the gene to the best-scoring neighbor (the paper's per-level
/// commitment). This is the DFS search's unit of work — the engine's
/// saturation path runs it in a loop, and the portfolio's DFS strategy runs
/// exactly one call per [`crate::SearchStrategy::step`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn explore_position<F>(
    current_gene: &Program,
    position: usize,
    spec: &IoSpec,
    domain: DomainId,
    fitness: &F,
    budget: &mut SearchBudget,
    memo: &SpecScores,
    traces: &TraceEncodingCache,
    evaluated: &mut usize,
) -> PositionOutcome
where
    F: FitnessFunction + ?Sized,
{
    let current = current_gene.get(position).expect("position in range");
    // Collect the whole position's neighborhood first (checking
    // satisfaction along the way), then rank it with one batched
    // fitness call instead of ~|Σ| single-candidate network passes.
    let mut neighbors: Vec<Program> = Vec::with_capacity(domain.vocab_len());
    for &replacement in domain.vocab() {
        if replacement == current {
            continue;
        }
        if !budget.try_consume() {
            return PositionOutcome::Exhausted;
        }
        *evaluated += 1;
        let neighbor = current_gene.with_replaced(position, replacement);
        if spec.is_satisfied_by(&neighbor) {
            return PositionOutcome::Solved(neighbor);
        }
        neighbors.push(neighbor);
    }
    let scores = rank_neighbors(&neighbors, spec, fitness, memo, traces);
    // First-strictly-greatest wins, matching the original
    // one-at-a-time comparison order over the domain vocabulary; NaN
    // scores rank last (see `neighbor_score_cmp`).
    let mut best: Option<(usize, f64)> = None;
    for (index, &score) in scores.iter().enumerate() {
        if best.is_none_or(|(_, best_score)| {
            neighbor_score_cmp(score, best_score) == std::cmp::Ordering::Greater
        }) {
            best = Some((index, score));
        }
    }
    // The paper's DFS variant replaces ζ with the best-scoring gene
    // of the neighborhood before descending to the next position.
    match best {
        Some((index, _)) => PositionOutcome::Committed(neighbors.swap_remove(index)),
        None => PositionOutcome::Committed(current_gene.clone()),
    }
}

/// Scores a position's neighborhood through the shared fitness memo: cached
/// neighbors are served without a network pass, the rest go through one
/// [`FitnessFunction::score_batch_cached`] call and are published for future
/// saturation events and runs. All neighbors of a position are distinct
/// programs, so the batch needs no internal dedup.
///
/// Scores land by neighbor index whatever thread computed them, so the
/// ranking below is thread-count-independent. Concurrent runs sharing the
/// shard ([`netsyn_fitness::cache::resolve_batch`]) may both score a
/// neighbor neither has published yet; the values are bit-identical and
/// the first publish wins, so the ranking is unaffected.
fn rank_neighbors<F: FitnessFunction + ?Sized>(
    neighbors: &[Program],
    spec: &IoSpec,
    fitness: &F,
    memo: &SpecScores,
    traces: &TraceEncodingCache,
) -> Vec<f64> {
    resolve_batch(memo, neighbors, |batch| {
        fitness.score_batch_cached(batch, spec, traces)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_dsl::{Function, IntPredicate, MapOp, Value};
    use netsyn_fitness::{ClosenessMetric, EditDistanceFitness, OracleFitness};
    use std::sync::Mutex;

    /// `search` with throwaway memo/trace shards, for tests that do not
    /// exercise caching.
    fn search_uncached<F: FitnessFunction + ?Sized>(
        genes: &[Program],
        spec: &IoSpec,
        strategy: NeighborhoodStrategy,
        fitness: &F,
        budget: &mut SearchBudget,
    ) -> NeighborhoodOutcome {
        search(
            genes,
            spec,
            strategy,
            DomainId::List,
            fitness,
            budget,
            &SpecScores::default(),
            &TraceEncodingCache::new(),
            None,
        )
    }

    fn target() -> Program {
        Program::new(vec![
            Function::Filter(IntPredicate::Positive),
            Function::Map(MapOp::Mul2),
            Function::Sort,
            Function::Reverse,
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

    fn one_off_candidate() -> Program {
        // Differs from the target in exactly one position.
        Program::new(vec![
            Function::Filter(IntPredicate::Positive),
            Function::Map(MapOp::Mul2),
            Function::Sum,
            Function::Reverse,
        ])
    }

    #[test]
    fn bfs_finds_a_solution_one_replacement_away() {
        let mut budget = SearchBudget::new(100_000);
        let outcome = search_uncached(
            &[one_off_candidate()],
            &spec(),
            NeighborhoodStrategy::Bfs,
            &EditDistanceFitness::new(),
            &mut budget,
        );
        let solution = outcome
            .solution
            .expect("solution should be in the neighborhood");
        assert!(spec().is_satisfied_by(&solution));
        assert!(outcome.candidates_evaluated > 0);
        assert_eq!(budget.evaluated(), outcome.candidates_evaluated);
        // Complexity bound: at most len * (|Σ|-1) candidates for one gene.
        assert!(outcome.candidates_evaluated <= 4 * 40);
    }

    #[test]
    fn dfs_finds_a_solution_one_replacement_away() {
        let mut budget = SearchBudget::new(100_000);
        let oracle = OracleFitness::new(target(), ClosenessMetric::CommonFunctions);
        let outcome = search_uncached(
            &[one_off_candidate()],
            &spec(),
            NeighborhoodStrategy::Dfs,
            &oracle,
            &mut budget,
        );
        assert!(outcome.solution.is_some());
        assert!(spec().is_satisfied_by(&outcome.solution.unwrap()));
    }

    #[test]
    fn dfs_can_fix_two_mistakes_with_a_good_fitness() {
        // Two positions are wrong; BFS over single replacements cannot find
        // the target, but DFS commits to the best single fix and then fixes
        // the second position.
        let two_off = Program::new(vec![
            Function::Filter(IntPredicate::Positive),
            Function::Head,
            Function::Sum,
            Function::Reverse,
        ]);
        let oracle = OracleFitness::new(target(), ClosenessMetric::CommonFunctions);
        let mut budget = SearchBudget::new(100_000);
        let bfs = search_uncached(
            std::slice::from_ref(&two_off),
            &spec(),
            NeighborhoodStrategy::Bfs,
            &oracle,
            &mut budget,
        );
        assert!(
            bfs.solution.is_none(),
            "BFS cannot fix two mistakes at once"
        );
        let mut budget = SearchBudget::new(100_000);
        let dfs = search_uncached(
            &[two_off],
            &spec(),
            NeighborhoodStrategy::Dfs,
            &oracle,
            &mut budget,
        );
        assert!(
            dfs.solution.is_some(),
            "DFS with an oracle fitness should repair both mistakes"
        );
    }

    #[test]
    fn disabled_strategy_does_nothing() {
        let mut budget = SearchBudget::new(10);
        let outcome = search_uncached(
            &[one_off_candidate()],
            &spec(),
            NeighborhoodStrategy::Disabled,
            &EditDistanceFitness::new(),
            &mut budget,
        );
        assert_eq!(outcome.solution, None);
        assert_eq!(outcome.candidates_evaluated, 0);
        assert_eq!(budget.evaluated(), 0);
    }

    #[test]
    fn search_respects_the_budget() {
        let mut budget = SearchBudget::new(10);
        let outcome = search_uncached(
            &[Program::new(vec![Function::Head; 4])],
            &spec(),
            NeighborhoodStrategy::Bfs,
            &EditDistanceFitness::new(),
            &mut budget,
        );
        assert_eq!(outcome.candidates_evaluated, 10);
        assert!(budget.is_exhausted());
        assert!(outcome.solution.is_none());
    }

    #[test]
    fn unsolvable_neighborhood_reports_all_candidates() {
        // A gene far from the target: the whole neighborhood is evaluated.
        let far = Program::new(vec![
            Function::Head,
            Function::Last,
            Function::Sum,
            Function::Head,
        ]);
        let mut budget = SearchBudget::new(100_000);
        let outcome = search_uncached(
            &[far],
            &spec(),
            NeighborhoodStrategy::Bfs,
            &EditDistanceFitness::new(),
            &mut budget,
        );
        assert!(outcome.solution.is_none());
        assert_eq!(outcome.candidates_evaluated, 4 * 40);
    }

    /// A fitness that scores programs by their leading function and records
    /// every program it is asked to score.
    struct RiggedFitness {
        poison: Function,
        reward: Function,
        scored: Mutex<Vec<Program>>,
    }

    impl FitnessFunction for RiggedFitness {
        fn name(&self) -> &str {
            "rigged"
        }

        fn score(&self, candidate: &Program, _spec: &IoSpec) -> f64 {
            self.scored.lock().unwrap().push(candidate.clone());
            let first = candidate.functions()[0];
            if first == self.poison {
                f64::NAN
            } else if first == self.reward {
                2.0
            } else {
                1.0
            }
        }

        fn max_score(&self) -> f64 {
            2.0
        }
    }

    #[test]
    fn dfs_never_commits_a_nan_neighbor_over_a_real_one() {
        // Regression test for the NaN-unsafe best-neighbor selection: the
        // first neighbor of position 0 scores NaN, and `score > NaN` is
        // false for every later neighbor, so the old code committed the
        // NaN-scoring gene as the descent point for the whole neighborhood.
        let gene = Program::new(vec![Function::Head, Function::Last]);
        // The first two replacement candidates for position 0, in
        // Function::ALL order.
        let mut replacements = Function::ALL
            .iter()
            .copied()
            .filter(|&f| f != Function::Head);
        let poison = replacements.next().unwrap();
        let reward = replacements.next().unwrap();
        let fitness = RiggedFitness {
            poison,
            reward,
            scored: Mutex::new(Vec::new()),
        };
        let mut budget = SearchBudget::new(100_000);
        let outcome = search_uncached(
            std::slice::from_ref(&gene),
            &spec(),
            NeighborhoodStrategy::Dfs,
            &fitness,
            &mut budget,
        );
        assert!(outcome.solution.is_none(), "nothing satisfies the spec");
        // The programs scored while exploring position 1 reveal which
        // neighbor position 0 committed to: their second statement differs
        // from the original gene's.
        let scored = fitness.scored.lock().unwrap();
        let position_one: Vec<&Program> = scored
            .iter()
            .filter(|p| p.functions()[1] != Function::Last)
            .collect();
        assert!(
            !position_one.is_empty(),
            "position 1 must have been explored"
        );
        for program in &position_one {
            assert_eq!(
                program.functions()[0],
                reward,
                "DFS must descend from the best real-scored neighbor, \
                 not the NaN-scoring one"
            );
        }
    }

    /// A deterministic fitness that counts how many candidates it scores.
    struct CountingFitness {
        scored: Mutex<usize>,
    }

    impl FitnessFunction for CountingFitness {
        fn name(&self) -> &str {
            "counting"
        }

        fn score(&self, candidate: &Program, _spec: &IoSpec) -> f64 {
            *self.scored.lock().unwrap() += 1;
            let weight: usize = candidate.functions().iter().map(|f| f.index()).sum();
            (weight % 7) as f64
        }

        fn max_score(&self) -> f64 {
            6.0
        }
    }

    #[test]
    fn warm_memo_skips_dfs_rescoring_with_unchanged_outcome() {
        // The DFS search reads and fills the same spec-keyed score shard as
        // the engine's generation loop: a second saturation event over the
        // same genes re-scores nothing, while budget accounting and the
        // outcome stay bit-identical.
        let genes = [
            Program::new(vec![
                Function::Head,
                Function::Last,
                Function::Sum,
                Function::Head,
            ]),
            one_off_candidate(),
        ];
        let fitness = CountingFitness {
            scored: Mutex::new(0),
        };
        let memo = SpecScores::default();
        let traces = TraceEncodingCache::new();
        let mut cold_budget = SearchBudget::new(100_000);
        let cold = search(
            &genes,
            &spec(),
            NeighborhoodStrategy::Dfs,
            DomainId::List,
            &fitness,
            &mut cold_budget,
            &memo,
            &traces,
            None,
        );
        let cold_scored = *fitness.scored.lock().unwrap();
        assert!(cold_scored > 0, "the cold search must score neighbors");
        assert!(!memo.is_empty(), "scored neighbors must be inserted");

        let mut warm_budget = SearchBudget::new(100_000);
        let warm = search(
            &genes,
            &spec(),
            NeighborhoodStrategy::Dfs,
            DomainId::List,
            &fitness,
            &mut warm_budget,
            &memo,
            &traces,
            None,
        );
        assert_eq!(
            *fitness.scored.lock().unwrap(),
            cold_scored,
            "a warm memo must serve every neighbor without re-scoring"
        );
        assert_eq!(warm, cold, "a warm memo must not change the outcome");
        assert_eq!(
            warm_budget.evaluated(),
            cold_budget.evaluated(),
            "budget accounting is cache-independent"
        );
    }
}
