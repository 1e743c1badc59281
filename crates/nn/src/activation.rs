//! Scalar activation functions and their derivatives, plus the
//! [`Activation`] enum whose row sweeps the batched MLP layers use.

use crate::simd;
use crate::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Logistic sigmoid.
#[must_use]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Derivative of the sigmoid expressed in terms of its output `s`.
#[must_use]
pub fn sigmoid_deriv_from_output(s: f32) -> f32 {
    s * (1.0 - s)
}

/// Hyperbolic tangent.
#[must_use]
pub fn tanh(x: f32) -> f32 {
    x.tanh()
}

/// Derivative of tanh expressed in terms of its output `t`.
#[must_use]
pub fn tanh_deriv_from_output(t: f32) -> f32 {
    1.0 - t * t
}

/// Rectified linear unit.
#[must_use]
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// Derivative of ReLU.
#[must_use]
pub fn relu_deriv(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Numerically stable softmax over a slice.
#[must_use]
pub fn softmax(xs: &[f32]) -> Vec<f32> {
    if xs.is_empty() {
        return Vec::new();
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = xs.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Element-wise activation used between MLP layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a scalar.
    #[must_use]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => relu(x),
            Activation::Tanh => tanh(x),
            Activation::Sigmoid => sigmoid(x),
        }
    }

    /// Applies the activation element-wise to every row of a matrix, in
    /// place.
    ///
    /// Tanh and sigmoid run through the lane-vectorized, bitwise
    /// libm-compatible kernels in [`crate::simd`]; ReLU is a plain `max`
    /// that LLVM vectorizes on its own. All paths are bit-identical to
    /// [`Activation::apply`] per element.
    pub fn apply_rows(self, m: &mut Matrix) {
        match self {
            Activation::Relu => {
                for x in m.data_mut() {
                    *x = relu(*x);
                }
            }
            Activation::Tanh => simd::vtanh_slice(m.data_mut()),
            Activation::Sigmoid => simd::vsigmoid_slice(m.data_mut()),
        }
    }

    /// Derivative of the activation with respect to its *pre-activation*
    /// input `x` (the value before the nonlinearity).
    #[must_use]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Relu => relu_deriv(x),
            Activation::Tanh => tanh_deriv_from_output(tanh(x)),
            Activation::Sigmoid => sigmoid_deriv_from_output(sigmoid(x)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_range_and_symmetry() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.99);
        assert!(sigmoid(-10.0) < 0.01);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn derivative_identities() {
        let s = sigmoid(0.7);
        assert!((sigmoid_deriv_from_output(s) - s * (1.0 - s)).abs() < 1e-7);
        let t = tanh(0.3);
        assert!((tanh_deriv_from_output(t) - (1.0 - t * t)).abs() < 1e-7);
        assert_eq!(relu(-2.0), 0.0);
        assert_eq!(relu(3.0), 3.0);
        assert_eq!(relu_deriv(-2.0), 0.0);
        assert_eq!(relu_deriv(3.0), 1.0);
    }

    #[test]
    fn softmax_is_a_distribution() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn activation_enum_matches_free_functions() {
        for &x in &[-2.0_f32, -0.5, 0.0, 0.5, 2.0] {
            assert_eq!(Activation::Relu.apply(x), relu(x));
            assert_eq!(Activation::Tanh.apply(x), tanh(x));
            assert_eq!(Activation::Sigmoid.apply(x), sigmoid(x));
        }
        let mut xs = Matrix::from_vec(1, 3, vec![-1.0, 0.0, 1.0]);
        Activation::Relu.apply_rows(&mut xs);
        assert_eq!(xs.data(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn apply_rows_matches_apply_slice() {
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            let mut m = Matrix::from_vec(2, 3, vec![-1.0, 0.0, 1.0, 2.0, -2.0, 0.5]);
            let expected: Vec<f32> = m.data().iter().map(|&x| act.apply(x)).collect();
            act.apply_rows(&mut m);
            assert_eq!(m.data(), &expected[..]);
        }
    }

    #[test]
    fn numerical_derivative_agrees() {
        let eps = 1e-3_f32;
        for act in [Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            for &x in &[-1.2_f32, 0.4, 0.9] {
                if act == Activation::Relu && x.abs() < 2.0 * eps {
                    continue;
                }
                let num = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let ana = act.derivative(x);
                assert!(
                    (num - ana).abs() < 1e-2,
                    "{act:?} at {x}: numerical {num} vs analytic {ana}"
                );
            }
        }
    }
}
