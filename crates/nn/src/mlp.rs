//! A multi-layer perceptron head: stacked dense layers with a configurable
//! hidden activation and raw (linear) output logits.

use crate::activation::Activation;
use crate::linear::Linear;
use crate::param::{Param, Parameterized};
use crate::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A feed-forward network `Linear -> act -> Linear -> act -> ... -> Linear`.
///
/// The final layer has no activation so the output can be fed into
/// softmax-cross-entropy or sigmoid-BCE losses directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

/// Cached intermediate values of an [`Mlp::forward_batch_train`] pass,
/// needed by [`Mlp::backward_batch`], one matrix row per sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MlpBatchCache {
    /// Input to each layer (length = number of layers).
    layer_inputs: Vec<Matrix>,
    /// Pre-activation output of each layer (length = number of layers).
    pre_activations: Vec<Matrix>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `[64, 32, 6]` builds
    /// `Linear(64→32) -> act -> Linear(32→6)`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], activation: Activation, rng: &mut R) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.layers.first().map_or(0, Linear::in_dim)
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.layers.last().map_or(0, Linear::out_dim)
    }

    /// Batched inference pass: one input per row of `x` (shape
    /// `batch x in_dim`), producing a `batch x out_dim` logit matrix. Each
    /// layer runs as a single matrix product over the whole batch, and the
    /// hidden activations run through the lane-vectorized row sweeps
    /// ([`Activation::apply_rows`]); no cache is kept, so this is
    /// inference-only.
    ///
    /// Per row, results are bit-identical to the per-sample layer-by-layer
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    #[must_use]
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        let last = self.layers.len() - 1;
        let mut current = self.layers[0].forward_batch(x);
        if last != 0 {
            self.activation.apply_rows(&mut current);
        }
        let mut next = Matrix::zeros(0, 0);
        for (i, layer) in self.layers.iter().enumerate().skip(1) {
            layer.forward_batch_into(&current, &mut next);
            if i != last {
                self.activation.apply_rows(&mut next);
            }
            std::mem::swap(&mut current, &mut next);
        }
        current
    }

    /// Batched training forward pass: like [`Mlp::forward_batch`] but keeps
    /// every layer input and pre-activation matrix for
    /// [`Mlp::backward_batch`]. Per row, outputs (and cached values) are
    /// bit-identical to the per-sample pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    #[must_use]
    pub fn forward_batch_train(&self, x: &Matrix) -> (Matrix, MlpBatchCache) {
        let mut cache = MlpBatchCache::default();
        let last = self.layers.len() - 1;
        let mut current = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            let pre = layer.forward_batch(&current);
            cache.layer_inputs.push(current);
            current = pre.clone();
            cache.pre_activations.push(pre);
            if i != last {
                self.activation.apply_rows(&mut current);
            }
        }
        (current, cache)
    }

    /// Batched backward pass: row `r` of `grad_out` is sample `r`'s upstream
    /// gradient. Accumulates parameter gradients for the whole batch and
    /// returns per-row input gradients.
    ///
    /// Gradients are **bit-identical** to looping the per-sample backward
    /// over the samples in row order: every layer's weight/bias gradient accumulates
    /// its samples row-ascending through [`Linear::backward_batch`], which is
    /// the per-sample accumulation order — processing layers as batched
    /// stages only interleaves updates *across different parameters*, never
    /// reorders the sum within one.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not correspond to this network.
    pub fn backward_batch(&mut self, cache: &MlpBatchCache, grad_out: &Matrix) -> Matrix {
        assert_eq!(
            cache.layer_inputs.len(),
            self.layers.len(),
            "cache does not match network depth"
        );
        let last = self.layers.len() - 1;
        let mut grad = grad_out.clone();
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            if i != last {
                // Undo the hidden activation, with the exact per-element
                // expression of the per-sample path.
                let pre = &cache.pre_activations[i];
                for (g, &z) in grad.data_mut().iter_mut().zip(pre.data().iter()) {
                    *g *= self.activation.derivative(z);
                }
            }
            grad = layer.backward_batch(&cache.layer_inputs[i], &grad);
        }
        grad
    }

    /// Number of dense layers.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The dense layers, input side first.
    #[must_use]
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// The hidden activation (the output layer has none).
    #[must_use]
    pub fn activation(&self) -> Activation {
        self.activation
    }
}

impl Parameterized for Mlp {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(Parameterized::params_mut)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use crate::optim::Adam;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(21)
    }

    #[test]
    fn shapes_and_depth() {
        let mlp = Mlp::new(&[6, 8, 3], Activation::Tanh, &mut rng());
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 3);
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.layers().len(), 2);
        assert_eq!(mlp.activation(), Activation::Tanh);
        let x = Matrix::from_vec(1, 6, vec![0.1; 6]);
        let (y, cache) = mlp.forward_batch_train(&x);
        assert_eq!(y.shape(), (1, 3));
        assert_eq!(cache.layer_inputs.len(), 2);
        assert_eq!(mlp.forward_batch(&x), y);
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_too_few_sizes() {
        let _ = Mlp::new(&[4], Activation::Relu, &mut rng());
    }

    #[test]
    fn batched_backward_numerical_gradient_check() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[4, 6, 3], Activation::Tanh, &mut r);
        let batch = Matrix::uniform(5, 4, 0.7, &mut r);
        let loss = |mlp: &Mlp, x: &Matrix| -> f32 {
            mlp.forward_batch(x)
                .data()
                .iter()
                .map(|&v| 0.5 * v * v)
                .sum()
        };
        let (out, cache) = mlp.forward_batch_train(&batch);
        mlp.zero_grad();
        let grad_in = mlp.backward_batch(&cache, &out);

        let eps = 1e-2_f32;
        let checks = [(0usize, 0usize, 0usize), (1, 0, 1), (2, 2, 4), (3, 0, 2)];
        for (which, pr, pc) in checks {
            let orig = mlp.params_mut()[which].value.get(pr, pc);
            mlp.params_mut()[which].value.set(pr, pc, orig + eps);
            mlp.params_mut()[which].invalidate_transpose();
            let lp = loss(&mlp, &batch);
            mlp.params_mut()[which].value.set(pr, pc, orig - eps);
            mlp.params_mut()[which].invalidate_transpose();
            let lm = loss(&mlp, &batch);
            mlp.params_mut()[which].value.set(pr, pc, orig);
            mlp.params_mut()[which].invalidate_transpose();
            let num = (lp - lm) / (2.0 * eps);
            let ana = mlp.params_mut()[which].grad.get(pr, pc);
            assert!(
                (num - ana).abs() < 5e-2,
                "param {which} [{pr},{pc}]: numerical {num} vs analytic {ana}"
            );
        }
        for i in 0..4 {
            let mut xp = batch.clone();
            let mut xm = batch.clone();
            xp.row_mut(1)[i] += eps;
            xm.row_mut(1)[i] -= eps;
            let num = (loss(&mlp, &xp) - loss(&mlp, &xm)) / (2.0 * eps);
            let ana = grad_in.get(1, i);
            assert!(
                (num - ana).abs() < 5e-2,
                "dx[1][{i}]: numerical {num} vs analytic {ana}"
            );
        }
    }

    /// End-to-end sanity: a small MLP can learn a separable 3-class problem.
    #[test]
    fn learns_a_simple_classification_task() {
        let mut r = rng();
        let mut mlp = Mlp::new(&[2, 16, 3], Activation::Relu, &mut r);
        let mut opt = Adam::new(0.01);
        // Three clusters at (2,0), (-2,0), (0,2).
        let centers = [(2.0_f32, 0.0_f32), (-2.0, 0.0), (0.0, 2.0)];
        let data: Vec<(Matrix, usize)> = (0..150)
            .map(|i| {
                let class = i % 3;
                let (cx, cy) = centers[class];
                use rand::Rng;
                let x = cx + r.gen_range(-0.5..0.5);
                let y = cy + r.gen_range(-0.5..0.5);
                (Matrix::from_vec(1, 2, vec![x, y]), class)
            })
            .collect();
        for _epoch in 0..20 {
            for (x, t) in &data {
                let (logits, cache) = mlp.forward_batch_train(x);
                let (_, grad) = softmax_cross_entropy(logits.row(0), *t);
                mlp.backward_batch(&cache, &Matrix::from_vec(1, 3, grad));
                opt.step(&mut mlp.params_mut());
                mlp.zero_grad();
            }
        }
        let correct = data
            .iter()
            .filter(|(x, t)| crate::loss::argmax(mlp.forward_batch(x).row(0)) == *t)
            .count();
        assert!(
            correct as f64 / data.len() as f64 > 0.9,
            "only {correct}/{} correct",
            data.len()
        );
    }

    #[test]
    fn serde_round_trip() {
        let mlp = Mlp::new(&[3, 4, 2], Activation::Sigmoid, &mut rng());
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        assert_eq!(back, mlp);
    }
}
