//! Genes and populations.

use netsyn_dsl::Program;
use serde::{Deserialize, Serialize};

/// A gene: a candidate program together with its cached fitness score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gene {
    /// The candidate program (value-encoded: one DSL function per position).
    pub program: Program,
    /// Cached fitness score, `None` until evaluated.
    pub fitness: Option<f64>,
}

impl Gene {
    /// Creates an unevaluated gene.
    #[must_use]
    pub fn new(program: Program) -> Self {
        Gene {
            program,
            fitness: None,
        }
    }

    /// The gene's fitness, or 0.0 if it has not been evaluated yet.
    #[must_use]
    pub fn fitness_or_zero(&self) -> f64 {
        self.fitness.unwrap_or(0.0)
    }
}

/// Ascending score comparison with a total, loud NaN policy: **any** NaN
/// compares greater than every real value, whatever its sign bit (x86-64
/// invalid operations like `0.0/0.0` produce sign-bit-set NaNs, which
/// `f64::total_cmp` would bury below `-inf`). Equal-NaN and real-vs-real
/// cases defer to the usual IEEE order.
fn score_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        // netsyn-lint: allow(partial-cmp-unwrap) — the match arms above dispatch every NaN combination, so both operands are non-NaN here
        (false, false) => a.partial_cmp(&b).expect("both scores are non-NaN"),
    }
}

/// A population of genes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Population {
    genes: Vec<Gene>,
}

impl Population {
    /// Creates a population from genes.
    #[must_use]
    pub fn new(genes: Vec<Gene>) -> Self {
        Population { genes }
    }

    /// Number of genes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.genes.len()
    }

    /// Whether the population is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.genes.is_empty()
    }

    /// Read access to the genes.
    #[must_use]
    pub fn genes(&self) -> &[Gene] {
        &self.genes
    }

    /// Mutable access to the genes.
    pub fn genes_mut(&mut self) -> &mut Vec<Gene> {
        &mut self.genes
    }

    /// Average fitness of the evaluated genes (0.0 if none are evaluated).
    #[must_use]
    pub fn average_fitness(&self) -> f64 {
        let evaluated: Vec<f64> = self.genes.iter().filter_map(|g| g.fitness).collect();
        if evaluated.is_empty() {
            return 0.0;
        }
        evaluated.iter().sum::<f64>() / evaluated.len() as f64
    }

    /// Best (highest) fitness among evaluated genes.
    ///
    /// Any NaN — regardless of sign bit, which runtime-generated NaNs on
    /// x86-64 typically have set — ranks above every real value, so a
    /// corrupted score surfaces as the reported best instead of silently
    /// scrambling the comparison (`partial_cmp` + `Equal` made the winner
    /// depend on iteration order).
    #[must_use]
    pub fn best_fitness(&self) -> Option<f64> {
        self.genes
            .iter()
            .filter_map(|g| g.fitness)
            .max_by(|a, b| score_cmp(*a, *b))
    }

    /// Indices of the `n` highest-fitness genes, best first.
    ///
    /// Evaluated genes are ranked by score descending with any NaN (either
    /// sign) first, so a poisoned score is loud rather than randomly
    /// placed; **unevaluated genes rank strictly last**. The old
    /// `fitness_or_zero`-based sort placed unevaluated genes above any
    /// evaluated gene with negative fitness, which let never-scored
    /// candidates shoulder real ones out of elite/neighborhood selection
    /// whenever scores went negative. `FitnessFunction` documents
    /// non-negative scores, but nothing enforces that, so the ranking does
    /// not rely on it.
    /// Ties keep input order (the sort is stable).
    #[must_use]
    pub fn top_indices(&self, n: usize) -> Vec<usize> {
        use std::cmp::Ordering;
        let mut indices: Vec<usize> = (0..self.genes.len()).collect();
        indices.sort_by(
            |&a, &b| match (&self.genes[a].fitness, &self.genes[b].fitness) {
                (Some(fa), Some(fb)) => score_cmp(*fb, *fa),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            },
        );
        indices.truncate(n);
        indices
    }

    /// The `n` highest-fitness genes, best first (cloned).
    #[must_use]
    pub fn top_genes(&self, n: usize) -> Vec<Gene> {
        self.top_indices(n)
            .into_iter()
            .map(|i| self.genes[i].clone())
            .collect()
    }

    /// The fitness scores of all genes in order (unevaluated genes count as
    /// 0.0) — the weights used by Roulette-Wheel selection.
    #[must_use]
    pub fn fitness_weights(&self) -> Vec<f64> {
        self.genes.iter().map(Gene::fitness_or_zero).collect()
    }
}

impl FromIterator<Gene> for Population {
    fn from_iter<T: IntoIterator<Item = Gene>>(iter: T) -> Self {
        Population::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_dsl::Function;

    fn gene_with_fitness(f: Function, fitness: f64) -> Gene {
        let mut gene = Gene::new(Program::new(vec![f]));
        gene.fitness = Some(fitness);
        gene
    }

    #[test]
    fn new_gene_is_unevaluated() {
        let gene = Gene::new(Program::new(vec![Function::Sort]));
        assert_eq!(gene.fitness, None);
        assert_eq!(gene.fitness_or_zero(), 0.0);
    }

    #[test]
    fn population_statistics() {
        let population = Population::new(vec![
            gene_with_fitness(Function::Sort, 1.0),
            gene_with_fitness(Function::Head, 3.0),
            gene_with_fitness(Function::Sum, 2.0),
        ]);
        assert_eq!(population.len(), 3);
        assert!(!population.is_empty());
        assert_eq!(population.average_fitness(), 2.0);
        assert_eq!(population.best_fitness(), Some(3.0));
        assert_eq!(population.fitness_weights(), vec![1.0, 3.0, 2.0]);
    }

    #[test]
    fn empty_population_statistics() {
        let population = Population::default();
        assert!(population.is_empty());
        assert_eq!(population.average_fitness(), 0.0);
        assert_eq!(population.best_fitness(), None);
        assert!(population.top_indices(3).is_empty());
    }

    #[test]
    fn top_indices_orders_by_fitness() {
        let population = Population::new(vec![
            gene_with_fitness(Function::Sort, 1.0),
            gene_with_fitness(Function::Head, 3.0),
            gene_with_fitness(Function::Sum, 2.0),
            Gene::new(Program::new(vec![Function::Last])),
        ]);
        assert_eq!(population.top_indices(2), vec![1, 2]);
        let top = population.top_genes(3);
        assert_eq!(top[0].program, Program::new(vec![Function::Head]));
        assert_eq!(top.len(), 3);
        // Requesting more than available returns everything.
        assert_eq!(population.top_indices(10).len(), 4);
    }

    #[test]
    fn top_indices_ranks_unevaluated_strictly_last() {
        // Nothing stops a fitness function from scoring below zero; an
        // unevaluated gene must never outrank an evaluated one.
        let population = Population::new(vec![
            gene_with_fitness(Function::Sort, -1.5),
            Gene::new(Program::new(vec![Function::Last])),
            gene_with_fitness(Function::Head, -0.25),
            Gene::new(Program::new(vec![Function::Sum])),
            gene_with_fitness(Function::Maximum, 0.5),
        ]);
        assert_eq!(population.top_indices(5), vec![4, 2, 0, 1, 3]);
        // The old fitness_or_zero ranking put index 1 (unevaluated) ahead
        // of every negative gene; the cut for the top three must instead
        // take exactly the evaluated genes.
        assert_eq!(population.top_indices(3), vec![4, 2, 0]);
        let top = population.top_genes(2);
        assert!(top.iter().all(|g| g.fitness.is_some()));
    }

    #[test]
    fn nan_fitness_ranks_first_and_loud() {
        // A poisoned score surfaces at the head of the ranking (and as
        // best_fitness) instead of shuffling the order nondeterministically
        // — including the sign-bit-set NaNs x86-64 invalid operations
        // produce (0.0/0.0), which a plain total_cmp would sort *last*.
        // The division NaN is deliberate: it reproduces the hardware
        // invalid-operation encoding rather than the NAN constant.
        #[allow(clippy::zero_divided_by_zero)]
        for nan in [f64::NAN, -f64::NAN, 0.0 / 0.0] {
            let mut nan_gene = Gene::new(Program::new(vec![Function::Reverse]));
            nan_gene.fitness = Some(nan);
            let population = Population::new(vec![
                gene_with_fitness(Function::Sort, 1.0),
                nan_gene,
                gene_with_fitness(Function::Head, 2.0),
            ]);
            assert_eq!(population.top_indices(3), vec![1, 2, 0]);
            assert!(population.best_fitness().unwrap().is_nan());
        }
    }

    #[test]
    fn collect_into_population() {
        let population: Population = (0..5)
            .map(|_| Gene::new(Program::new(vec![Function::Sort])))
            .collect();
        assert_eq!(population.len(), 5);
    }
}
