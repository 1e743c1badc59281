//! Token embedding layer.

use crate::error::NnError;
use crate::param::{Param, Parameterized};
use crate::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A lookup table mapping token ids to dense vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Embedding {
    weight: Param,
}

impl Embedding {
    /// Creates an embedding table of shape `(vocab_size, dim)` with small
    /// uniform random initialization.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(vocab_size: usize, dim: usize, rng: &mut R) -> Self {
        Embedding {
            weight: Param::new(Matrix::uniform(vocab_size, dim, 0.1, rng)),
        }
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab_size(&self) -> usize {
        self.weight.value.rows()
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.weight.value.cols()
    }

    /// Borrows one token's embedding row, for batch builders that copy rows
    /// into flat storage.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::VocabOutOfRange`] if the token id is out of range.
    pub fn row(&self, token: usize) -> Result<&[f32], NnError> {
        if token >= self.vocab_size() {
            return Err(NnError::VocabOutOfRange {
                token,
                vocab: self.vocab_size(),
            });
        }
        Ok(self.weight.value.row(token))
    }

    /// Accumulates the gradient for a single token occurrence — the
    /// scatter primitive of the batched encoder backward (which replays
    /// occurrences in the same token-order-per-sequence the per-sample path
    /// uses).
    ///
    /// # Panics
    ///
    /// Panics if the gradient has the wrong dimension; the token id must
    /// have been validated by the forward pass.
    pub fn backward_row(&mut self, token: usize, grad: &[f32]) {
        assert_eq!(grad.len(), self.dim(), "gradient dimension mismatch");
        let row = self.weight.grad.row_mut(token);
        for (r, &gi) in row.iter_mut().zip(grad.iter()) {
            *r += gi;
        }
    }
}

impl Parameterized for Embedding {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn embedding() -> Embedding {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        Embedding::new(5, 4, &mut rng)
    }

    #[test]
    fn shapes_and_lookup() {
        let e = embedding();
        assert_eq!(e.vocab_size(), 5);
        assert_eq!(e.dim(), 4);
        let v = e.row(2).unwrap();
        assert_eq!(v.len(), 4);
        assert!(e.row(5).is_err());
    }

    #[test]
    fn backward_accumulates_per_row() {
        let mut e = embedding();
        let g = vec![1.0, 2.0, 3.0, 4.0];
        for token in [1, 1, 3] {
            e.backward_row(token, &g);
        }
        // Row 1 was used twice, row 3 once, others never.
        let grad = &e.params_mut()[0].grad;
        assert_eq!(grad.row(1), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(grad.row(3), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(grad.row(0), &[0.0; 4]);
    }

    #[test]
    fn serde_round_trip() {
        let e = embedding();
        let json = serde_json::to_string(&e).unwrap();
        let back: Embedding = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
