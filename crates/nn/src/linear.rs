//! Fully connected (dense) layer.

use crate::param::{Param, Parameterized};
use crate::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense layer computing `y = W x + b`.
///
/// The weight has shape `(out_dim, in_dim)`; every pass takes one sample
/// per matrix row. The per-sample reference passes these are certified
/// against live in the dev-only `netsyn-oracle` crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    weight: Param,
    bias: Param,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Linear {
            weight: Param::new(Matrix::xavier(out_dim, in_dim, rng)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
        }
    }

    /// Creates a layer from explicit weight and bias matrices (mainly for
    /// tests and deserialization).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a `1 x out_dim` row vector matching `weight`.
    #[must_use]
    pub fn from_parts(weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), weight.rows(), "bias length must match out_dim");
        Linear {
            weight: Param::new(weight),
            bias: Param::new(bias),
        }
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.weight.value.rows()
    }

    /// Batched forward pass: one input per row of `x` (shape
    /// `batch x in_dim`), producing `batch x out_dim` outputs in one matrix
    /// product instead of `batch` small GEMVs. The product runs the
    /// column-lane SIMD kernel and the bias broadcast is lane-vectorized;
    /// both keep the scalar per-element op order, so per row, results are
    /// bit-identical to the per-sample `W.matvec(x) + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    #[must_use]
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_batch_into(x, &mut y);
        y
    }

    /// [`Linear::forward_batch`] writing into a reusable output buffer.
    ///
    /// The transposed weight the GEMM consumes is memoized on the parameter
    /// ([`Param::transposed`]) and survives until the next optimizer step,
    /// so repeated batched calls stop paying an `O(in_dim · out_dim)`
    /// re-transpose each.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn forward_batch_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.in_dim(),
            "linear batched forward dimension mismatch"
        );
        let weight_t = self.weight.transposed();
        x.matmul_into(&weight_t, out);
        out.add_row_broadcast(self.bias.value.row(0));
    }

    /// Batched backward pass: row `r` of `x`/`grad_out` is one sample's
    /// input and upstream gradient. Accumulates parameter gradients for the
    /// whole batch and returns the per-row input gradients.
    ///
    /// Gradients are **bit-identical** to looping the per-sample backward
    /// over the rows in order: the weight gradient accumulates through one
    /// [`Matrix::add_outer_slab`] GEMM whose per-element row-ascending
    /// chain is exactly the sequence of per-sample rank-one updates, and
    /// the input-gradient rows come from one
    /// `grad_out x W` GEMM whose `k`-ascending accumulation matches the
    /// per-sample `W^T g` transposed matvec. The batch-sized GEMMs keep
    /// their accumulators in registers across whole row blocks instead of
    /// round-tripping every row through memory per sample.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward_batch(&mut self, x: &Matrix, grad_out: &Matrix) -> Matrix {
        self.backward_batch_params_only(x, grad_out);
        let mut grad_in = Matrix::zeros(0, 0);
        self.weight.value.matmul_slab_into(
            grad_out.data(),
            grad_out.rows(),
            self.out_dim(),
            &mut grad_in,
        );
        grad_in
    }

    /// [`Linear::backward_batch`] without the input-gradient rows.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward_batch_params_only(&mut self, x: &Matrix, grad_out: &Matrix) {
        assert_eq!(x.cols(), self.in_dim(), "linear backward input mismatch");
        assert_eq!(
            grad_out.cols(),
            self.out_dim(),
            "linear backward gradient mismatch"
        );
        assert_eq!(x.rows(), grad_out.rows(), "linear backward batch mismatch");
        self.weight
            .grad
            .add_outer_slab(grad_out.data(), x.data(), x.rows());
        let bias_row = self.bias.grad.row_mut(0);
        for r in 0..grad_out.rows() {
            for (g, &go) in bias_row.iter_mut().zip(grad_out.row(r).iter()) {
                *g += go;
            }
        }
    }

    /// Read-only access to the weight matrix.
    #[must_use]
    pub fn weight(&self) -> &Matrix {
        &self.weight.value
    }

    /// Read-only access to the bias row vector.
    #[must_use]
    pub fn bias(&self) -> &Matrix {
        &self.bias.value
    }
}

impl Parameterized for Linear {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn simple_layer() -> Linear {
        Linear::from_parts(
            Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 2.0, 1.0, 0.5]),
            Matrix::from_vec(1, 2, vec![0.5, -0.5]),
        )
    }

    #[test]
    fn batched_forward_into_reuses_the_buffer() {
        let layer = simple_layer();
        let batch = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0]);
        let mut out = Matrix::zeros(5, 5);
        layer.forward_batch_into(&batch, &mut out);
        assert_eq!(out.shape(), (2, 2));
        assert_eq!(out.row(0), &[-1.5, 5.0]);
        assert_eq!(out.row(1), &[0.5, -0.5]);
    }

    #[test]
    fn batched_backward_numerical_gradient_check() {
        let mut rng = ChaCha8Rng::seed_from_u64(79);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::uniform(6, 4, 0.8, &mut rng);
        // Batch loss: sum over rows of 0.5 ||W x_r + b||^2.
        let loss = |layer: &Linear, x: &Matrix| -> f32 {
            let y = layer.forward_batch(x);
            (0..x.rows())
                .map(|r| y.row(r).iter().map(|&v| 0.5 * v * v).sum::<f32>())
                .sum()
        };
        let grad_out = layer.forward_batch(&x);
        layer.zero_grad();
        let grad_in = layer.backward_batch(&x, &grad_out);

        let eps = 1e-2_f32;
        for (r, c) in [(0usize, 0usize), (1, 3), (2, 1)] {
            let orig = layer.weight.value.get(r, c);
            layer.weight.value.set(r, c, orig + eps);
            layer.weight.invalidate_transpose();
            let lp = loss(&layer, &x);
            layer.weight.value.set(r, c, orig - eps);
            layer.weight.invalidate_transpose();
            let lm = loss(&layer, &x);
            layer.weight.value.set(r, c, orig);
            layer.weight.invalidate_transpose();
            let num = (lp - lm) / (2.0 * eps);
            let ana = layer.weight.grad.get(r, c);
            assert!(
                (num - ana).abs() < 5e-2,
                "dW[{r},{c}]: numerical {num} vs analytic {ana}"
            );
        }
        // Input gradients of one row.
        for i in 0..4 {
            let mut xp = x.clone();
            let mut xm = x.clone();
            *xp.row_mut(2).get_mut(i).unwrap() += eps;
            *xm.row_mut(2).get_mut(i).unwrap() -= eps;
            let num = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            let ana = grad_in.get(2, i);
            assert!(
                (num - ana).abs() < 5e-2,
                "dx[2][{i}]: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn parameter_count_is_correct() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut layer = Linear::new(10, 5, &mut rng);
        assert_eq!(layer.parameter_count(), 10 * 5 + 5);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn forward_rejects_wrong_input_size() {
        let layer = simple_layer();
        let _ = layer.forward_batch(&Matrix::zeros(1, 1));
    }

    #[test]
    fn serde_round_trip() {
        let layer = simple_layer();
        let json = serde_json::to_string(&layer).unwrap();
        let back: Linear = serde_json::from_str(&json).unwrap();
        assert_eq!(back, layer);
    }
}
