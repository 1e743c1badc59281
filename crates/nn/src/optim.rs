//! First-order optimizers: SGD with momentum and Adam.
//!
//! Optimizers keep per-parameter state keyed by the *position* of the
//! parameter in the slice passed to `step`, so callers must pass parameters
//! in a stable order (the [`crate::param::Parameterized`] contract).

use crate::param::Param;
use crate::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Stochastic gradient descent with optional momentum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient (0.0 disables momentum).
    pub momentum: f32,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    #[must_use]
    pub fn new(learning_rate: f32, momentum: f32) -> Self {
        Sgd {
            learning_rate,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update to every parameter using its accumulated gradient.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.len() != params.len() {
            self.velocity = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
        }
        for (idx, p) in params.iter_mut().enumerate() {
            let v = &mut self.velocity[idx];
            for (vi, &gi) in v.data_mut().iter_mut().zip(p.grad.data().iter()) {
                *vi = self.momentum * *vi + gi;
            }
            let lr = self.learning_rate;
            for (w, &vi) in p.value.data_mut().iter_mut().zip(v.data().iter()) {
                *w -= lr * vi;
            }
            p.invalidate_transpose();
        }
    }
}

/// The Adam optimizer (Kingma & Ba, 2015).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub learning_rate: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub epsilon: f32,
    t: u64,
    first_moment: Vec<Matrix>,
    second_moment: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard β defaults.
    #[must_use]
    pub fn new(learning_rate: f32) -> Self {
        Adam {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// Number of update steps taken so far.
    #[must_use]
    pub fn steps_taken(&self) -> u64 {
        self.t
    }

    /// Applies one Adam update to every parameter using its accumulated
    /// gradient.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.first_moment.len() != params.len() {
            self.first_moment = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
            self.second_moment = params
                .iter()
                .map(|p| Matrix::zeros(p.value.rows(), p.value.cols()))
                .collect();
        }
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);
        for (idx, p) in params.iter_mut().enumerate() {
            let m = &mut self.first_moment[idx];
            let v = &mut self.second_moment[idx];
            // Split borrows of the parameter's disjoint fields — the grads
            // are read-only here, so no copy of them is needed.
            let grads = &p.grad;
            let values = &mut p.value;
            for ((mi, vi), (&gi, wi)) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grads.data().iter().zip(values.data_mut().iter_mut()))
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                *wi -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
            }
            p.invalidate_transpose();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing f(w) = (w - 3)^2 converges with both optimizers.
    fn quadratic_convergence<F: FnMut(&mut [&mut Param])>(mut step: F) -> f32 {
        let mut p = Param::new(Matrix::from_vec(1, 1, vec![-5.0]));
        for _ in 0..400 {
            let w = p.value.get(0, 0);
            p.grad.set(0, 0, 2.0 * (w - 3.0));
            step(&mut [&mut p]);
            p.zero_grad();
        }
        p.value.get(0, 0)
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let mut opt = Sgd::new(0.05, 0.0);
        let w = quadratic_convergence(|ps| opt.step(ps));
        assert!((w - 3.0).abs() < 1e-3, "converged to {w}");
    }

    #[test]
    fn sgd_with_momentum_minimizes_quadratic() {
        let mut opt = Sgd::new(0.02, 0.9);
        let w = quadratic_convergence(|ps| opt.step(ps));
        assert!((w - 3.0).abs() < 1e-2, "converged to {w}");
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = quadratic_convergence(|ps| opt.step(ps));
        assert!((w - 3.0).abs() < 1e-2, "converged to {w}");
        assert_eq!(opt.steps_taken(), 400);
    }

    #[test]
    fn adam_handles_multiple_parameters_independently() {
        let mut a = Param::new(Matrix::from_vec(1, 1, vec![10.0]));
        let mut b = Param::new(Matrix::from_vec(1, 2, vec![-4.0, 8.0]));
        let mut opt = Adam::new(0.2);
        for _ in 0..600 {
            let wa = a.value.get(0, 0);
            a.grad.set(0, 0, 2.0 * (wa - 1.0));
            let wb0 = b.value.get(0, 0);
            let wb1 = b.value.get(0, 1);
            b.grad.set(0, 0, 2.0 * (wb0 + 2.0));
            b.grad.set(0, 1, 2.0 * (wb1 - 5.0));
            opt.step(&mut [&mut a, &mut b]);
            a.zero_grad();
            b.zero_grad();
        }
        assert!((a.value.get(0, 0) - 1.0).abs() < 0.05);
        assert!((b.value.get(0, 0) + 2.0).abs() < 0.05);
        assert!((b.value.get(0, 1) - 5.0).abs() < 0.05);
    }

    #[test]
    fn optimizer_steps_evict_the_cached_transpose() {
        use crate::linear::Linear;
        use crate::param::Parameterized;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut layer = Linear::new(6, 4, &mut rng);
        let batch = Matrix::uniform(5, 6, 1.0, &mut rng);

        // Warm the transpose memo through the batched path.
        let before_step = layer.forward_batch(&batch);
        let misses_before = layer.params_mut()[0].transpose_count();
        assert_eq!(
            misses_before, 1,
            "first batched call computes the transpose"
        );
        let _ = layer.forward_batch(&batch);
        assert_eq!(
            layer.params_mut()[0].transpose_count(),
            1,
            "repeat batched calls reuse the memoized transpose"
        );

        // An optimizer step mutates the weights; the stale transpose must be
        // evicted so the next batched pass sees the updated values. The
        // input gradient is dead here, so the params-only entry point skips
        // building it.
        let grad_out = Matrix::from_vec(5, 4, vec![1.0; 20]);
        layer.backward_batch_params_only(&batch, &grad_out);
        let mut adam = Adam::new(0.05);
        adam.step(&mut layer.params_mut());
        layer.zero_grad();

        let after_step = layer.forward_batch(&batch);
        assert_ne!(after_step, before_step, "the step changed the weights");
        assert_eq!(
            layer.params_mut()[0].transpose_count(),
            2,
            "the post-step call recomputes the transpose exactly once"
        );
        // The recomputed transpose gives bit-identical results to a clone,
        // whose memo starts cold and transposes the updated weights afresh.
        assert_eq!(after_step, layer.clone().forward_batch(&batch));

        // SGD evicts too.
        let mut sgd = Sgd::new(0.1, 0.0);
        layer.backward_batch_params_only(&batch, &grad_out);
        sgd.step(&mut layer.params_mut());
        let _ = layer.forward_batch(&batch);
        assert_eq!(layer.params_mut()[0].transpose_count(), 3);
    }

    #[test]
    fn zero_gradient_leaves_parameters_unchanged_for_sgd() {
        let mut p = Param::new(Matrix::from_vec(1, 2, vec![1.5, -2.5]));
        let before = p.value.clone();
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut [&mut p]);
        assert_eq!(p.value, before);
    }
}
