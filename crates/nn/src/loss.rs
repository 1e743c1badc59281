//! Loss functions with analytic gradients with respect to the logits.

use crate::activation::{sigmoid, softmax};

/// Softmax cross-entropy for a single multi-class sample.
///
/// Returns `(loss, dloss/dlogits)`.
///
/// # Panics
///
/// Panics if `target >= logits.len()` or `logits` is empty.
#[must_use]
pub fn softmax_cross_entropy(logits: &[f32], target: usize) -> (f32, Vec<f32>) {
    assert!(!logits.is_empty(), "logits must be non-empty");
    assert!(target < logits.len(), "target class out of range");
    let probs = softmax(logits);
    let loss = -(probs[target].max(1e-12)).ln();
    let mut grad = probs;
    grad[target] -= 1.0;
    (loss, grad)
}

/// Element-wise binary cross-entropy on logits (multi-label targets in
/// `[0, 1]`), averaged over the elements.
///
/// Returns `(loss, dloss/dlogits)`.
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
#[must_use]
pub fn binary_cross_entropy_with_logits(logits: &[f32], targets: &[f32]) -> (f32, Vec<f32>) {
    assert!(!logits.is_empty(), "logits must be non-empty");
    assert_eq!(
        logits.len(),
        targets.len(),
        "logits/targets length mismatch"
    );
    let n = logits.len() as f32;
    let mut loss = 0.0;
    let mut grad = Vec::with_capacity(logits.len());
    for (&z, &t) in logits.iter().zip(targets.iter()) {
        let p = sigmoid(z);
        // Numerically stable BCE: max(z,0) - z*t + ln(1 + exp(-|z|))
        loss += z.max(0.0) - z * t + (1.0 + (-z.abs()).exp()).ln();
        grad.push((p - t) / n);
    }
    (loss / n, grad)
}

/// Index of the maximum value (argmax). Ties resolve to the first maximum.
///
/// # Panics
///
/// Panics if `xs` is empty.
#[must_use]
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numerical_grad<F: Fn(&[f32]) -> f32>(f: F, xs: &[f32]) -> Vec<f32> {
        let eps = 1e-3_f32;
        (0..xs.len())
            .map(|i| {
                let mut xp = xs.to_vec();
                xp[i] += eps;
                let mut xm = xs.to_vec();
                xm[i] -= eps;
                (f(&xp) - f(&xm)) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn cross_entropy_matches_numerical_gradient() {
        let logits = vec![0.5, -1.2, 2.0, 0.1];
        let (loss, grad) = softmax_cross_entropy(&logits, 2);
        assert!(loss > 0.0);
        let num = numerical_grad(|x| softmax_cross_entropy(x, 2).0, &logits);
        for (a, n) in grad.iter().zip(num.iter()) {
            assert!((a - n).abs() < 1e-2, "analytic {a} vs numerical {n}");
        }
    }

    #[test]
    fn cross_entropy_of_confident_correct_prediction_is_small() {
        let (loss_good, _) = softmax_cross_entropy(&[10.0, -10.0], 0);
        let (loss_bad, _) = softmax_cross_entropy(&[10.0, -10.0], 1);
        assert!(loss_good < 1e-3);
        assert!(loss_bad > 5.0);
    }

    #[test]
    fn bce_matches_numerical_gradient() {
        let logits = vec![0.3, -0.7, 1.5];
        let targets = vec![1.0, 0.0, 0.5];
        let (loss, grad) = binary_cross_entropy_with_logits(&logits, &targets);
        assert!(loss > 0.0);
        let num = numerical_grad(|x| binary_cross_entropy_with_logits(x, &targets).0, &logits);
        for (a, n) in grad.iter().zip(num.iter()) {
            assert!((a - n).abs() < 1e-2, "analytic {a} vs numerical {n}");
        }
    }

    #[test]
    fn bce_is_stable_for_extreme_logits() {
        let (loss, grad) = binary_cross_entropy_with_logits(&[100.0, -100.0], &[1.0, 0.0]);
        assert!(loss.is_finite());
        assert!(loss < 1e-3);
        assert!(grad.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn argmax_picks_first_maximum() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "target class out of range")]
    fn cross_entropy_validates_target() {
        let _ = softmax_cross_entropy(&[0.0, 1.0], 2);
    }
}
