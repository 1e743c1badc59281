//! The per-sample dense layer.

use crate::tensor::MatrixOracle;
use netsyn_nn::{Linear, Param, Parameterized};

/// Per-sample passes of a [`Linear`] layer.
pub trait LinearOracle {
    /// Forward pass: `W x + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim()`.
    fn forward(&self, x: &[f32]) -> Vec<f32>;

    /// Backward pass. Accumulates parameter gradients and returns the
    /// gradient with respect to the input.
    ///
    /// `x` must be the same input that produced the forward output whose
    /// upstream gradient is `grad_out`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    fn backward(&mut self, x: &[f32], grad_out: &[f32]) -> Vec<f32>;

    /// [`LinearOracle::backward`] without the input-gradient computation.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    fn backward_params_only(&mut self, x: &[f32], grad_out: &[f32]);
}

impl LinearOracle for Linear {
    fn forward(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim(), "linear forward dimension mismatch");
        let mut y = self.weight().matvec(x);
        for (yi, &bi) in y.iter_mut().zip(self.bias().row(0).iter()) {
            *yi += bi;
        }
        y
    }

    fn backward(&mut self, x: &[f32], grad_out: &[f32]) -> Vec<f32> {
        backward(&mut self.params_mut(), x, grad_out)
    }

    fn backward_params_only(&mut self, x: &[f32], grad_out: &[f32]) {
        backward_params_only(&mut self.params_mut(), x, grad_out);
    }
}

/// [`LinearOracle::backward`] over a layer's `[weight, bias]` parameters.
pub(crate) fn backward(params: &mut [&mut Param], x: &[f32], grad_out: &[f32]) -> Vec<f32> {
    backward_params_only(params, x, grad_out);
    params[0].value.matvec_transposed(grad_out)
}

/// [`LinearOracle::backward_params_only`] over a layer's `[weight, bias]`
/// parameters.
fn backward_params_only(params: &mut [&mut Param], x: &[f32], grad_out: &[f32]) {
    let [weight, bias] = params else {
        panic!("a linear layer has a weight and a bias");
    };
    assert_eq!(
        x.len(),
        weight.value.cols(),
        "linear backward input mismatch"
    );
    assert_eq!(
        grad_out.len(),
        weight.value.rows(),
        "linear backward gradient mismatch"
    );
    weight.grad.add_outer(grad_out, x, 1.0);
    for (g, &go) in bias.grad.row_mut(0).iter_mut().zip(grad_out.iter()) {
        *g += go;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_nn::Matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn simple_layer() -> Linear {
        Linear::from_parts(
            Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5]),
            Matrix::from_vec(1, 2, vec![0.5, -0.5]),
        )
    }

    #[test]
    fn forward_matches_hand_computation() {
        let layer = simple_layer();
        let y = layer.forward(&[1.0, 2.0, 3.0]);
        // row0: 1*1 + 0*2 + (-1)*3 + 0.5 = -1.5
        // row1: 2*1 + 1*2 + 0.5*3 - 0.5 = 5.0
        assert_eq!(y, vec![-1.5, 5.0]);
        assert_eq!(layer.in_dim(), 3);
        assert_eq!(layer.out_dim(), 2);
    }

    #[test]
    fn backward_accumulates_expected_gradients() {
        let mut layer = simple_layer();
        let x = [1.0, 2.0, 3.0];
        let grad_out = [1.0, -1.0];
        let grad_in = layer.backward(&x, &grad_out);
        let params = layer.params_mut();
        // dW = grad_out ⊗ x
        assert_eq!(params[0].grad.data(), &[1.0, 2.0, 3.0, -1.0, -2.0, -3.0]);
        assert_eq!(params[1].grad.data(), &[1.0, -1.0]);
        // dx = W^T grad_out
        assert_eq!(grad_in, vec![1.0 - 2.0, 0.0 - 1.0, -1.0 - 0.5]);
    }

    #[test]
    fn gradients_accumulate_across_calls() {
        let mut layer = simple_layer();
        let x = [1.0, 0.0, 0.0];
        layer.backward(&x, &[1.0, 0.0]);
        layer.backward(&x, &[1.0, 0.0]);
        assert_eq!(layer.params_mut()[0].grad.get(0, 0), 2.0);
        layer.zero_grad();
        assert_eq!(layer.params_mut()[0].grad.get(0, 0), 0.0);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x: Vec<f32> = (0..4).map(|i| 0.3 * i as f32 - 0.5).collect();
        // Scalar loss: sum of outputs squared / 2 so that dL/dy = y.
        let y = layer.forward(&x);
        let grad_out: Vec<f32> = y.clone();
        layer.zero_grad();
        let grad_in = layer.backward(&x, &grad_out);

        let loss = |layer: &Linear, x: &[f32]| -> f32 {
            layer.forward(x).iter().map(|&v| v * v * 0.5).sum()
        };
        let eps = 1e-2_f32;
        // Check dL/dx numerically.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            assert!(
                (num - grad_in[i]).abs() < 1e-2,
                "dx[{i}]: numerical {num} vs analytic {}",
                grad_in[i]
            );
        }
        // Check a few weight gradients numerically.
        for (r, c) in [(0, 0), (1, 2), (2, 3)] {
            let orig = layer.weight().get(r, c);
            layer.params_mut()[0].value.set(r, c, orig + eps);
            let lp = loss(&layer, &x);
            layer.params_mut()[0].value.set(r, c, orig - eps);
            let lm = loss(&layer, &x);
            layer.params_mut()[0].value.set(r, c, orig);
            let num = (lp - lm) / (2.0 * eps);
            let ana = layer.params_mut()[0].grad.get(r, c);
            assert!(
                (num - ana).abs() < 1e-2,
                "dW[{r},{c}]: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn batched_forward_is_bit_identical_to_single() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let layer = Linear::new(13, 7, &mut rng);
        let batch = Matrix::uniform(9, 13, 1.0, &mut rng);
        let out = layer.forward_batch(&batch);
        assert_eq!(out.shape(), (9, 7));
        for r in 0..batch.rows() {
            let single = layer.forward(batch.row(r));
            for (a, b) in out.row(r).iter().zip(single.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn batched_backward_is_bit_identical_to_per_sample() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let reference_init = Linear::new(13, 7, &mut rng);
        let mut reference = reference_init.clone();
        let mut batched = reference_init;
        let x = Matrix::uniform(9, 13, 1.0, &mut rng);
        let mut grad_out = Matrix::uniform(9, 7, 1.0, &mut rng);
        // Exact zeros exercise the dense (no zero-skip) kernel semantics.
        grad_out.set(0, 0, 0.0);
        grad_out.set(3, 5, 0.0);

        let mut ref_grad_in = Vec::new();
        for r in 0..x.rows() {
            ref_grad_in.push(reference.backward(x.row(r), grad_out.row(r)));
        }
        let grad_in = batched.backward_batch(&x, &grad_out);
        for (r, reference_row) in ref_grad_in.iter().enumerate() {
            for (a, b) in grad_in.row(r).iter().zip(reference_row.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "grad-in row {r}");
            }
        }
        for (pr, pb) in reference
            .params_mut()
            .iter()
            .zip(batched.params_mut().iter())
        {
            for (a, b) in pb.grad.data().iter().zip(pr.grad.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn params_only_backward_matches_full_backward() {
        let mut rng = ChaCha8Rng::seed_from_u64(78);
        let init = Linear::new(5, 4, &mut rng);
        let mut full = init.clone();
        let mut lean = init;
        let x: Vec<f32> = (0..5).map(|i| 0.2 * i as f32 - 0.4).collect();
        let g: Vec<f32> = (0..4).map(|i| 0.3 - 0.1 * i as f32).collect();
        let _ = full.backward(&x, &g);
        lean.backward_params_only(&x, &g);
        for (pf, pl) in full.params_mut().iter().zip(lean.params_mut().iter()) {
            assert_eq!(pf.grad, pl.grad);
        }
    }
}
