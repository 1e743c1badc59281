//! The per-sample sequence encoder: token embedding followed by an LSTM.

use crate::embedding::{self, EmbeddingOracle};
use crate::lstm::{self, LstmCache, LstmOracle};
use netsyn_nn::{NnError, Param, Parameterized, SequenceEncoder};

/// Cache of a [`SequenceEncoderOracle::forward`] pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceEncoderCache {
    tokens: Vec<usize>,
    lstm_cache: LstmCache,
}

/// Per-sample passes of a [`SequenceEncoder`].
pub trait SequenceEncoderOracle {
    /// Encodes a token sequence into the LSTM's final hidden state.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::VocabOutOfRange`] if a token is outside the
    /// vocabulary.
    fn forward(&self, tokens: &[usize]) -> Result<(Vec<f32>, SequenceEncoderCache), NnError>;

    /// Backpropagates a gradient on the encoder output, accumulating
    /// parameter gradients in the LSTM and the embedding table.
    fn backward(&mut self, cache: &SequenceEncoderCache, grad_hidden: &[f32]);
}

impl SequenceEncoderOracle for SequenceEncoder {
    fn forward(&self, tokens: &[usize]) -> Result<(Vec<f32>, SequenceEncoderCache), NnError> {
        let embedded = self.embedding().forward(tokens)?;
        let (hidden, lstm_cache) = self.lstm().forward(&embedded);
        Ok((
            hidden,
            SequenceEncoderCache {
                tokens: tokens.to_vec(),
                lstm_cache,
            },
        ))
    }

    fn backward(&mut self, cache: &SequenceEncoderCache, grad_hidden: &[f32]) {
        backward(&mut self.params_mut(), cache, grad_hidden);
    }
}

/// [`SequenceEncoderOracle::backward`] over an encoder's parameters in
/// [`Parameterized::params_mut`] order: the embedding table, then the LSTM.
pub(crate) fn backward(
    params: &mut [&mut Param],
    cache: &SequenceEncoderCache,
    grad_hidden: &[f32],
) {
    let (embedding, lstm) = params.split_at_mut(1);
    let input_grads = lstm::backward(lstm, &cache.lstm_cache, grad_hidden);
    embedding::backward(embedding[0], &cache.tokens, &input_grads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn encoder() -> SequenceEncoder {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        SequenceEncoder::new(10, 4, 6, &mut rng)
    }

    #[test]
    fn forward_produces_hidden_vector() {
        let enc = encoder();
        assert_eq!(enc.hidden_dim(), 6);
        assert_eq!(enc.vocab_size(), 10);
        let (h, cache) = enc.forward(&[1, 2, 3, 4]).unwrap();
        assert_eq!(h.len(), 6);
        assert_eq!(cache.tokens, vec![1, 2, 3, 4]);
        assert!(enc.forward(&[11]).is_err());
    }

    #[test]
    fn batched_forward_is_bit_identical_to_single() {
        let enc = encoder();
        let sequences: Vec<&[usize]> = vec![&[1, 2, 3, 4], &[], &[9, 0], &[1, 2, 3, 4], &[5]];
        let batched = enc.forward_batch(&sequences).unwrap();
        assert_eq!(batched.len(), sequences.len());
        for (tokens, batch_h) in sequences.iter().zip(batched.iter()) {
            let (single_h, _) = enc.forward(tokens).unwrap();
            for (a, b) in batch_h.iter().zip(single_h.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Out-of-vocabulary tokens fail the whole batch.
        assert!(enc.forward_batch(&[&[1][..], &[10][..]]).is_err());
    }

    #[test]
    fn batched_train_path_is_bit_identical_to_per_sample() {
        let mut enc = encoder();
        // Mixed lengths, an empty sequence, and a duplicate to exercise the
        // length-sorted slot mapping and the per-occurrence embedding scatter.
        let sequences: Vec<&[usize]> = vec![&[1, 2, 3, 4], &[], &[9, 0], &[1, 2, 3, 4], &[5, 5, 5]];

        let (batched_finals, cache) = enc.forward_batch_train(&sequences).unwrap();
        let grad_hidden: Vec<Vec<f32>> = (0..sequences.len())
            .map(|s| {
                (0..6)
                    .map(|j| 0.05 * (s as f32 + 1.0) - 0.01 * j as f32)
                    .collect()
            })
            .collect();

        // Reference: per-sample forward/backward in input order.
        let mut reference = enc.clone();
        reference.zero_grad();
        for (s, (tokens, g)) in sequences.iter().zip(grad_hidden.iter()).enumerate() {
            let (h, sample_cache) = reference.forward(tokens).unwrap();
            for (a, b) in batched_finals[s].iter().zip(h.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "final of sequence {s}");
            }
            reference.backward(&sample_cache, g);
        }

        enc.zero_grad();
        enc.backward_batch(&cache, &grad_hidden);

        for (p_batched, p_ref) in enc.params_mut().iter().zip(reference.params_mut().iter()) {
            for (a, b) in p_batched.grad.data().iter().zip(p_ref.grad.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parameter gradient mismatch");
            }
        }

        // Out-of-vocabulary tokens fail the whole batch.
        assert!(enc.forward_batch_train(&[&[1][..], &[10][..]]).is_err());
    }
}
