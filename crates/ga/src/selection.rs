//! Roulette-Wheel (fitness-proportionate) selection.

use rand::Rng;

/// A Roulette Wheel over one generation's weights.
///
/// Breeding spins the wheel once or more per offspring over the same
/// population weights, so the weights are checked and summed once, when
/// the wheel is built; each spin is then one draw and one subtract-and-scan
/// pass. Invalid weights are only reported when the wheel is spun, so a
/// generation that never draws (the elites fill the population) never
/// panics.
#[derive(Debug, Clone, Copy)]
pub struct RouletteWheel<'a> {
    weights: &'a [f64],
    total: f64,
    valid: bool,
}

impl<'a> RouletteWheel<'a> {
    /// Builds the wheel: one pass to check the weights, one to sum them.
    #[must_use]
    pub fn new(weights: &'a [f64]) -> Self {
        RouletteWheel {
            weights,
            total: weights.iter().sum(),
            valid: weights.iter().all(|&w| w.is_finite() && w >= 0.0),
        }
    }

    /// Selects an index with probability proportional to its non-negative
    /// weight.
    ///
    /// If every weight is zero (e.g. the first generation under an
    /// uninformative fitness), the selection falls back to a uniform draw,
    /// which matches the behaviour of a Roulette Wheel over an all-equal
    /// population.
    ///
    /// # Panics
    ///
    /// Panics if the weights are empty or contain a negative or non-finite
    /// weight.
    pub fn spin<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        assert!(
            !self.weights.is_empty(),
            "cannot select from an empty population"
        );
        assert!(self.valid, "weights must be non-negative and finite");
        if self.total <= 0.0 {
            return rng.gen_range(0..self.weights.len());
        }
        let mut threshold = rng.gen_range(0.0..self.total);
        for (i, &w) in self.weights.iter().enumerate() {
            if threshold < w {
                return i;
            }
            threshold -= w;
        }
        self.weights.len() - 1
    }

    /// Selects two *distinct* indices by repeated spins (used to pick
    /// crossover parents). Falls back to returning the only index twice
    /// when the population has a single gene.
    ///
    /// # Panics
    ///
    /// As [`RouletteWheel::spin`].
    pub fn spin_pair<R: Rng + ?Sized>(&self, rng: &mut R) -> (usize, usize) {
        let first = self.spin(rng);
        let len = self.weights.len();
        if len == 1 {
            return (first, first);
        }
        for _ in 0..32 {
            let second = self.spin(rng);
            if second != first {
                return (first, second);
            }
        }
        // Degenerate weight distributions (all mass on one gene): pick any
        // other index uniformly.
        let mut second = rng.gen_range(0..len);
        if second == first {
            second = (first + 1) % len;
        }
        (first, second)
    }
}

/// One [`RouletteWheel::spin`] over `weights`.
///
/// # Panics
///
/// Panics if `weights` is empty or contains a negative or non-finite weight.
pub fn roulette_wheel<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
    RouletteWheel::new(weights).spin(rng)
}

/// One [`RouletteWheel::spin_pair`] over `weights`.
///
/// # Panics
///
/// As [`roulette_wheel`].
pub fn roulette_wheel_pair<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> (usize, usize) {
    RouletteWheel::new(weights).spin_pair(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// The per-call roulette loop the wheel replaced: check, sum, draw and
    /// scan on every call. Kept as the oracle the wheel must match draw
    /// for draw.
    fn oracle_spin<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> usize {
        assert!(
            !weights.is_empty(),
            "cannot select from an empty population"
        );
        assert!(
            weights.iter().all(|&w| w.is_finite() && w >= 0.0),
            "weights must be non-negative and finite"
        );
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return rng.gen_range(0..weights.len());
        }
        let mut threshold = rng.gen_range(0.0..total);
        for (i, &w) in weights.iter().enumerate() {
            if threshold < w {
                return i;
            }
            threshold -= w;
        }
        weights.len() - 1
    }

    /// The per-call pair loop the wheel replaced (oracle for `spin_pair`).
    fn oracle_spin_pair<R: Rng + ?Sized>(weights: &[f64], rng: &mut R) -> (usize, usize) {
        let first = oracle_spin(weights, rng);
        if weights.len() == 1 {
            return (first, first);
        }
        for _ in 0..32 {
            let second = oracle_spin(weights, rng);
            if second != first {
                return (first, second);
            }
        }
        let mut second = rng.gen_range(0..weights.len());
        if second == first {
            second = (first + 1) % weights.len();
        }
        (first, second)
    }

    /// The next words of a clone of `rng`: equal streams mean equal states.
    fn peek(rng: &ChaCha8Rng) -> [u64; 2] {
        let mut clone = rng.clone();
        [clone.next_u64(), clone.next_u64()]
    }

    /// Spins `weights` through the wheel and the oracle from one seed,
    /// alternating single and pair spins, and asserts equal picks and
    /// equal RNG states after every spin.
    fn assert_wheel_matches_oracle(weights: &[f64], seed: u64, spins: usize) {
        let wheel = RouletteWheel::new(weights);
        let mut ours = rng(seed);
        let mut theirs = rng(seed);
        for spin in 0..spins {
            if spin % 2 == 0 {
                assert_eq!(
                    wheel.spin(&mut ours),
                    oracle_spin(weights, &mut theirs),
                    "{weights:?}"
                );
            } else {
                assert_eq!(
                    wheel.spin_pair(&mut ours),
                    oracle_spin_pair(weights, &mut theirs),
                    "{weights:?}"
                );
            }
            assert_eq!(peek(&ours), peek(&theirs), "RNG state after {weights:?}");
        }
    }

    #[test]
    fn wheel_matches_the_per_call_loop_on_random_weights() {
        let mut r = rng(100);
        for case in 0..2_000 {
            let len = r.gen_range(1..=120);
            // Mixed scales, exact zeros and repeated values, like GA
            // fitness weights.
            let weights: Vec<f64> = (0..len)
                .map(|_| match r.gen_range(0..4) {
                    0 => 0.0,
                    1 => r.gen_range(0..5) as f64,
                    2 => r.gen_range(0.0..1.0),
                    _ => r.gen_range(0.0..1e6),
                })
                .collect();
            assert_wheel_matches_oracle(&weights, case, 20);
        }
    }

    #[test]
    fn wheel_matches_the_per_call_loop_on_edge_weights() {
        // All-zero weights take the uniform fallback.
        assert_wheel_matches_oracle(&[0.0; 7], 1, 40);
        // A single gene: the pair is the gene twice.
        assert_wheel_matches_oracle(&[3.5], 2, 40);
        assert_wheel_matches_oracle(&[0.0], 3, 40);
        // One-hot weights: every pair exhausts its 32 retries and takes the
        // uniform fallback.
        for len in 2..12 {
            for hot in 0..len {
                let mut weights = vec![0.0; len];
                weights[hot] = 2.0;
                assert_wheel_matches_oracle(&weights, (len * 100 + hot) as u64, 10);
            }
        }
    }

    /// An RNG that always yields the same word: pins draws to the ends of
    /// the range, where the scan's comparisons are tight.
    struct ConstRng(u64);

    impl RngCore for ConstRng {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn wheel_matches_the_per_call_loop_on_extreme_draws() {
        let cases: [&[f64]; 4] = [
            &[0.0, 0.0, 1.0, 0.0, 2.0],
            &[0.0, 3.0],
            &[1e-300, 0.0, 1e300],
            &[0.1, 0.2, 0.3, 0.0],
        ];
        for weights in cases {
            let wheel = RouletteWheel::new(weights);
            // Integer draws reject words near `u64::MAX` (an endless loop
            // for a constant RNG), so the top word stays below that zone
            // while still drawing the largest float.
            for word in [0, 1, u64::MAX / 2, u64::MAX - 8] {
                assert_eq!(
                    wheel.spin(&mut ConstRng(word)),
                    oracle_spin(weights, &mut ConstRng(word)),
                    "{weights:?} at word {word:#x}"
                );
                assert_eq!(
                    wheel.spin_pair(&mut ConstRng(word)),
                    oracle_spin_pair(weights, &mut ConstRng(word)),
                    "{weights:?} at word {word:#x}"
                );
            }
        }
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).expect_err("must panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("string panic payload")
    }

    #[test]
    fn invalid_weights_panic_with_the_old_message_only_when_spun() {
        let cases: [&[f64]; 5] = [
            &[],
            &[1.0, f64::NAN],
            &[1.0, -0.5],
            &[f64::INFINITY, 1.0],
            &[0.0, f64::NEG_INFINITY],
        ];
        for weights in cases {
            // Building the wheel never panics: a generation whose elites
            // fill the population makes no draw.
            let wheel = RouletteWheel::new(weights);
            let expected = panic_message(|| {
                oracle_spin(weights, &mut rng(8));
            });
            assert_eq!(
                panic_message(|| {
                    wheel.spin(&mut rng(8));
                }),
                expected
            );
            assert_eq!(
                panic_message(|| {
                    wheel.spin_pair(&mut rng(8));
                }),
                expected
            );
        }
    }

    #[test]
    fn selection_is_proportional_to_weights() {
        let weights = [1.0, 3.0, 6.0];
        let mut counts = [0usize; 3];
        let mut r = rng(1);
        for _ in 0..10_000 {
            counts[roulette_wheel(&weights, &mut r)] += 1;
        }
        // Expected proportions 10%, 30%, 60%.
        assert!((counts[0] as f64 / 10_000.0 - 0.1).abs() < 0.03);
        assert!((counts[1] as f64 / 10_000.0 - 0.3).abs() < 0.03);
        assert!((counts[2] as f64 / 10_000.0 - 0.6).abs() < 0.03);
    }

    #[test]
    fn zero_weight_genes_are_never_selected_when_mass_exists() {
        let weights = [0.0, 5.0, 0.0];
        let mut r = rng(2);
        for _ in 0..200 {
            assert_eq!(roulette_wheel(&weights, &mut r), 1);
        }
    }

    #[test]
    fn all_zero_weights_fall_back_to_uniform() {
        let weights = [0.0, 0.0, 0.0, 0.0];
        let mut r = rng(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(roulette_wheel(&weights, &mut r));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_weights_panic() {
        let mut r = rng(4);
        let _ = roulette_wheel(&[], &mut r);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_panic() {
        let mut r = rng(5);
        let _ = roulette_wheel(&[1.0, -0.5], &mut r);
    }

    #[test]
    fn pair_selection_returns_distinct_indices() {
        let weights = [1.0, 1.0, 1.0, 1.0];
        let mut r = rng(6);
        for _ in 0..100 {
            let (a, b) = roulette_wheel_pair(&weights, &mut r);
            assert_ne!(a, b);
        }
    }

    #[test]
    fn pair_selection_handles_single_gene_and_degenerate_mass() {
        let mut r = rng(7);
        assert_eq!(roulette_wheel_pair(&[2.0], &mut r), (0, 0));
        let degenerate = [0.0, 0.0, 7.0];
        for _ in 0..50 {
            let (a, b) = roulette_wheel_pair(&degenerate, &mut r);
            assert_ne!(a, b);
            assert!(a == 2 || b == 2);
        }
    }
}
