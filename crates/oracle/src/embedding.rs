//! The per-sample token embedding.

use netsyn_nn::{Embedding, NnError, Param, Parameterized};

/// Per-sample passes of an [`Embedding`].
pub trait EmbeddingOracle {
    /// Looks up one token.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::VocabOutOfRange`] if the token id is out of range.
    fn lookup(&self, token: usize) -> Result<Vec<f32>, NnError>;

    /// Looks up a sequence of tokens.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::VocabOutOfRange`] if any token id is out of range.
    fn forward(&self, tokens: &[usize]) -> Result<Vec<Vec<f32>>, NnError>;

    /// Accumulates gradients for the rows used in a forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` and `grads` have different lengths or a gradient
    /// vector has the wrong dimension; token ids must have been validated by
    /// the forward pass.
    fn backward(&mut self, tokens: &[usize], grads: &[Vec<f32>]);
}

impl EmbeddingOracle for Embedding {
    fn lookup(&self, token: usize) -> Result<Vec<f32>, NnError> {
        self.row(token).map(<[f32]>::to_vec)
    }

    fn forward(&self, tokens: &[usize]) -> Result<Vec<Vec<f32>>, NnError> {
        tokens.iter().map(|&t| self.lookup(t)).collect()
    }

    fn backward(&mut self, tokens: &[usize], grads: &[Vec<f32>]) {
        backward(self.params_mut()[0], tokens, grads);
    }
}

/// [`EmbeddingOracle::backward`] over the table's weight parameter.
pub(crate) fn backward(weight: &mut Param, tokens: &[usize], grads: &[Vec<f32>]) {
    assert_eq!(tokens.len(), grads.len(), "token/gradient count mismatch");
    for (&t, g) in tokens.iter().zip(grads.iter()) {
        assert_eq!(g.len(), weight.value.cols(), "gradient dimension mismatch");
        let row = weight.grad.row_mut(t);
        for (r, &gi) in row.iter_mut().zip(g.iter()) {
            *r += gi;
        }
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
    fn forward_returns_one_vector_per_token() {
        let e = embedding();
        let out = e.forward(&[0, 1, 1, 4]).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[1], out[2], "same token maps to the same vector");
        assert_eq!(out[3], e.lookup(4).unwrap());
        assert!(e.forward(&[0, 9]).is_err());
    }
}
