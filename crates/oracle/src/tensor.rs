//! The per-sample matrix primitives: a naive product, the transposed
//! matvec and the rank-one update, each a dense scalar-order chain the
//! batched GEMMs replay element for element.

use netsyn_nn::simd::{F32x8, LANES};
use netsyn_nn::Matrix;

/// Per-sample operations on a [`Matrix`].
pub trait MatrixOracle {
    /// Reference `O(n^3)` triple-loop product, the ground truth the blocked
    /// kernel is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    fn matmul_naive(&self, other: &Matrix) -> Matrix;

    /// Transposed matrix-vector product `self^T * v`.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != v.len()`.
    fn matvec_transposed(&self, v: &[f32]) -> Vec<f32>;

    /// [`MatrixOracle::matvec_transposed`] accumulating into a zeroed
    /// `out`. The accumulation is **dense**: every row contributes in
    /// strictly ascending order with separate mul/add roundings, so per
    /// output element this is the exact `k`-ascending chain of
    /// [`Matrix::matmul_slab_to`].
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows` or `out.len() != cols`.
    fn matvec_transposed_into(&self, v: &[f32], out: &mut [f32]);

    /// Adds the outer product `alpha * u * v^T` in place. The update is
    /// **dense** — every row receives its `(alpha * u[i]) * v[j]` term even
    /// when `u[i]` is exactly zero — so a sequence of these calls is
    /// bit-identical to one [`Matrix::add_outer_slab`] over the same rows.
    ///
    /// # Panics
    ///
    /// Panics if `u.len() != rows` or `v.len() != cols`.
    fn add_outer(&mut self, u: &[f32], v: &[f32], alpha: f32);
}

impl MatrixOracle for Matrix {
    fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (k_dim, n_dim) = (self.cols(), other.cols());
        let mut out = Matrix::zeros(self.rows(), n_dim);
        for i in 0..self.rows() {
            for k in 0..k_dim {
                let a = self.data()[i * k_dim + k];
                let row_out = &mut out.data_mut()[i * n_dim..(i + 1) * n_dim];
                let row_b = &other.data()[k * n_dim..(k + 1) * n_dim];
                for (o, &b) in row_out.iter_mut().zip(row_b.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    fn matvec_transposed(&self, v: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.cols()];
        self.matvec_transposed_into(v, &mut out);
        out
    }

    fn matvec_transposed_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(self.rows(), v.len(), "matvec_transposed shape mismatch");
        assert_eq!(self.cols(), out.len(), "matvec_transposed output mismatch");
        for (i, &vi) in v.iter().enumerate() {
            axpy(out, vi, self.row(i));
        }
    }

    fn add_outer(&mut self, u: &[f32], v: &[f32], alpha: f32) {
        assert_eq!(u.len(), self.rows(), "add_outer row mismatch");
        assert_eq!(v.len(), self.cols(), "add_outer col mismatch");
        for (i, &ui) in u.iter().enumerate() {
            axpy(self.row_mut(i), alpha * ui, v);
        }
    }
}

/// In-place `dst[j] += a * src[j]`, lane-vectorized eight elements at a
/// time with **separate** mul/add roundings (never fused). Elements are
/// independent, so the lane form is bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if `src` is shorter than `dst`.
fn axpy(dst: &mut [f32], a: f32, src: &[f32]) {
    let n = dst.len();
    let main = n - n % LANES;
    let av = F32x8::splat(a);
    let mut j = 0;
    while j < main {
        (F32x8::load(&dst[j..]) + av * F32x8::load(&src[j..])).store(&mut dst[j..]);
        j += LANES;
    }
    for (o, &s) in dst[main..].iter_mut().zip(src[main..n].iter()) {
        *o += a * s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn blocked_matmul_matches_naive_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(33);
        // Cover shapes below and above the blocking and parallel thresholds,
        // including non-multiples of the block sizes.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (17, 65, 33),
            (64, 64, 64),
            (130, 70, 190),
        ] {
            let a = Matrix::uniform(m, k, 1.0, &mut rng);
            let b = Matrix::uniform(k, n, 1.0, &mut rng);
            let blocked = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            assert_eq!(blocked.shape(), (m, n));
            for (x, y) in blocked.data().iter().zip(naive.data().iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} mismatch");
            }
        }
    }

    #[test]
    fn matvec_and_transposed_matvec() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.matvec_transposed(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn add_outer_accumulates_rank_one_update() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[1.0, 0.0, -1.0], 1.0);
        assert_eq!(m.data(), &[1.0, 0.0, -1.0, 2.0, 0.0, -2.0]);
        m.add_outer(&[1.0, 2.0], &[1.0, 0.0, -1.0], -1.0);
        assert_eq!(m.data(), &[0.0; 6]);
    }

    #[test]
    fn add_outer_slab_is_bit_identical_to_sequential_add_outer() {
        let mut rng = ChaCha8Rng::seed_from_u64(97);
        // Sizes straddle the lane width, the 4-tile width and the `r`
        // block: columns hit the wide-tile, single-lane and scalar-tail
        // paths; 150 rows span three 64-row blocks.
        for (m, n, k) in [(5, 37, 150), (12, 8, 3), (3, 2, 1), (4, 33, 0)] {
            let mut reference = Matrix::uniform(m, n, 1.0, &mut rng);
            let mut batched = reference.clone();
            let mut u = Matrix::uniform(k.max(1), m, 1.0, &mut rng);
            let v = Matrix::uniform(k.max(1), n, 1.0, &mut rng);
            if k > 0 {
                // Exact zeros exercise the dense (no-skip) semantics.
                u.set(0, 0, 0.0);
            }
            for r in 0..k {
                reference.add_outer(u.row(r), v.row(r), 1.0);
            }
            batched.add_outer_slab(&u.data()[..k * m], &v.data()[..k * n], k);
            for (a, b) in batched.data().iter().zip(reference.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "({m}x{n}, k={k})");
            }
        }
    }

    #[test]
    fn matmul_slab_to_is_bit_identical_to_matvec_transposed() {
        let mut rng = ChaCha8Rng::seed_from_u64(98);
        let w = Matrix::uniform(37, 21, 1.0, &mut rng);
        let dz = Matrix::uniform(9, 37, 1.0, &mut rng);
        let mut out = vec![f32::NAN; 9 * 21];
        w.matmul_slab_to(dz.data(), 9, 37, &mut out);
        for r in 0..9 {
            let reference = w.matvec_transposed(dz.row(r));
            for (a, b) in out[r * 21..(r + 1) * 21].iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
            }
        }
    }
}
