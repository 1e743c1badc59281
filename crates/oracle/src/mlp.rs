//! The per-sample multi-layer perceptron head.

use crate::linear::{self, LinearOracle};
use netsyn_nn::{Activation, Mlp, Param, Parameterized};

/// Cached intermediate values of an [`MlpOracle::forward`] pass, needed by
/// [`MlpOracle::backward`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MlpCache {
    /// Input to each layer (length = number of layers).
    layer_inputs: Vec<Vec<f32>>,
    /// Pre-activation output of each layer (length = number of layers).
    pre_activations: Vec<Vec<f32>>,
}

/// Per-sample passes of an [`Mlp`].
pub trait MlpOracle {
    /// Forward pass returning the output logits and the cache for backward.
    fn forward(&self, x: &[f32]) -> (Vec<f32>, MlpCache);

    /// Convenience forward pass without keeping the cache.
    fn predict(&self, x: &[f32]) -> Vec<f32>;

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not correspond to this network.
    fn backward(&mut self, cache: &MlpCache, grad_out: &[f32]) -> Vec<f32>;
}

impl MlpOracle for Mlp {
    fn forward(&self, x: &[f32]) -> (Vec<f32>, MlpCache) {
        let mut cache = MlpCache::default();
        let mut current = x.to_vec();
        let last = self.layers().len() - 1;
        for (i, layer) in self.layers().iter().enumerate() {
            cache.layer_inputs.push(current.clone());
            let pre = layer.forward(&current);
            cache.pre_activations.push(pre.clone());
            current = if i == last {
                pre
            } else {
                apply_slice(self.activation(), &pre)
            };
        }
        (current, cache)
    }

    fn predict(&self, x: &[f32]) -> Vec<f32> {
        self.forward(x).0
    }

    fn backward(&mut self, cache: &MlpCache, grad_out: &[f32]) -> Vec<f32> {
        let activation = self.activation();
        backward(&mut self.params_mut(), activation, cache, grad_out)
    }
}

/// [`MlpOracle::backward`] over a network's parameters in
/// [`Parameterized::params_mut`] order (`weight, bias` per layer).
pub(crate) fn backward(
    params: &mut [&mut Param],
    activation: Activation,
    cache: &MlpCache,
    grad_out: &[f32],
) -> Vec<f32> {
    assert_eq!(
        cache.layer_inputs.len(),
        params.len() / 2,
        "cache does not match network depth"
    );
    let last = cache.layer_inputs.len() - 1;
    let mut grad = grad_out.to_vec();
    for (i, layer) in params.chunks_mut(2).enumerate().rev() {
        if i != last {
            // Undo the hidden activation.
            let pre = &cache.pre_activations[i];
            grad = grad
                .iter()
                .zip(pre.iter())
                .map(|(&g, &z)| g * activation.derivative(z))
                .collect();
        }
        grad = linear::backward(layer, &cache.layer_inputs[i], &grad);
    }
    grad
}

/// Applies the activation element-wise to a slice.
fn apply_slice(activation: Activation, xs: &[f32]) -> Vec<f32> {
    xs.iter().map(|&x| activation.apply(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_nn::loss::softmax_cross_entropy;
    use netsyn_nn::Matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(21)
    }

    #[test]
    fn batched_forward_is_bit_identical_to_single() {
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            let mut r = rng();
            let mlp = Mlp::new(&[6, 12, 5, 3], act, &mut r);
            let batch = Matrix::uniform(17, 6, 1.0, &mut r);
            let out = mlp.forward_batch(&batch);
            assert_eq!(out.shape(), (17, 3));
            for row in 0..batch.rows() {
                let single = mlp.predict(batch.row(row));
                for (a, b) in out.row(row).iter().zip(single.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{act:?} row {row}");
                }
            }
        }
    }

    #[test]
    fn numerical_gradient_check() {
        let mut mlp = Mlp::new(&[4, 5, 3], Activation::Tanh, &mut rng());
        let x: Vec<f32> = vec![0.2, -0.4, 0.8, -0.1];
        let target = 1usize;
        let loss_of = |mlp: &Mlp, x: &[f32]| -> f32 {
            let (logits, _) = mlp.forward(x);
            softmax_cross_entropy(&logits, target).0
        };
        let (logits, cache) = mlp.forward(&x);
        let (_, grad_logits) = softmax_cross_entropy(&logits, target);
        mlp.zero_grad();
        let grad_in = mlp.backward(&cache, &grad_logits);

        let eps = 1e-2_f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss_of(&mlp, &xp) - loss_of(&mlp, &xm)) / (2.0 * eps);
            assert!(
                (num - grad_in[i]).abs() < 5e-3,
                "dx[{i}]: numerical {num} vs analytic {}",
                grad_in[i]
            );
        }
        // Check a handful of parameter gradients.
        let checks = [(0usize, 0usize, 0usize), (1, 0, 1), (2, 2, 4), (3, 0, 2)];
        for (which, r, c) in checks {
            let orig = mlp.params_mut()[which].value.get(r, c);
            mlp.params_mut()[which].value.set(r, c, orig + eps);
            let lp = loss_of(&mlp, &x);
            mlp.params_mut()[which].value.set(r, c, orig - eps);
            let lm = loss_of(&mlp, &x);
            mlp.params_mut()[which].value.set(r, c, orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = mlp.params_mut()[which].grad.get(r, c);
            assert!(
                (num - ana).abs() < 5e-3,
                "param {which} [{r},{c}]: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn batched_backward_is_bit_identical_to_per_sample() {
        // ReLU matters here: its backward produces exact zeros, exercising
        // the dense (no zero-skip) gradient kernel semantics.
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            let mut r = rng();
            let init = Mlp::new(&[6, 12, 5, 3], act, &mut r);
            let mut reference = init.clone();
            let mut batched = init;
            let batch = Matrix::uniform(11, 6, 1.0, &mut r);

            let (out, cache) = batched.forward_batch_train(&batch);
            // Upstream gradient dL/dy = y (loss 0.5||y||^2 per row).
            let grad_in = batched.backward_batch(&cache, &out);

            let mut ref_grad_in = Vec::new();
            for row in 0..batch.rows() {
                let (y, sample_cache) = reference.forward(batch.row(row));
                for (a, b) in out.row(row).iter().zip(y.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{act:?} forward row {row}");
                }
                ref_grad_in.push(reference.backward(&sample_cache, &y));
            }
            for (row, reference_row) in ref_grad_in.iter().enumerate() {
                for (a, b) in grad_in.row(row).iter().zip(reference_row.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{act:?} grad-in row {row}");
                }
            }
            for (pr, pb) in reference
                .params_mut()
                .iter()
                .zip(batched.params_mut().iter())
            {
                for (a, b) in pb.grad.data().iter().zip(pr.grad.data().iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{act:?} param grads");
                }
            }
        }
    }
}
