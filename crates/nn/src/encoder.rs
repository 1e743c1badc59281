//! Sequence encoder: token embedding followed by an LSTM whose final hidden
//! state summarizes the sequence.
//!
//! This is the basic building block of the paper's fitness-function
//! architecture (Figure 2): inputs, outputs and execution-trace values are
//! token sequences that are embedded and encoded, and the resulting vectors
//! are combined by further LSTM layers.

use crate::batch::{SequenceBatch, SequenceTrie, TimeMajorBatch};
use crate::embedding::Embedding;
use crate::error::NnError;
use crate::lstm::{Lstm, LstmBatchCache};
use crate::param::{Param, Parameterized};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Embedding + LSTM over a token sequence, producing a fixed-size vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceEncoder {
    embedding: Embedding,
    lstm: Lstm,
}

/// Cache of a [`SequenceEncoder::forward_batch_train`] pass.
#[derive(Debug, Clone)]
pub struct SequenceEncoderBatchCache {
    tokens: Vec<Vec<usize>>,
    batch: TimeMajorBatch,
    lstm_cache: LstmBatchCache,
}

impl SequenceEncoder {
    /// Creates an encoder with the given vocabulary size, embedding dimension
    /// and hidden dimension.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        vocab_size: usize,
        embed_dim: usize,
        hidden_dim: usize,
        rng: &mut R,
    ) -> Self {
        SequenceEncoder {
            embedding: Embedding::new(vocab_size, embed_dim, rng),
            lstm: Lstm::new(embed_dim, hidden_dim, rng),
        }
    }

    /// Output (hidden) dimension.
    #[must_use]
    pub fn hidden_dim(&self) -> usize {
        self.lstm.hidden_dim()
    }

    /// Vocabulary size accepted by the encoder.
    #[must_use]
    pub fn vocab_size(&self) -> usize {
        self.embedding.vocab_size()
    }

    /// The token embedding table.
    #[must_use]
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// The LSTM over the embedded tokens.
    #[must_use]
    pub fn lstm(&self) -> &Lstm {
        &self.lstm
    }

    /// Batched inference over many token sequences: embeds every sequence
    /// into a prefix-sharing [`SequenceTrie`] (sequences opening with the
    /// same tokens share their LSTM steps — trace values in a GA population
    /// overlap heavily) and runs the LSTM over the trie (see
    /// [`Lstm::forward_batch_trie`]). Returns one final hidden state per
    /// sequence, in input order, bit-identical to encoding each sequence on
    /// its own.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::VocabOutOfRange`] if any token of any sequence is
    /// outside the vocabulary. (A token landing on an already-shared trie
    /// node was validated when the node was created.)
    pub fn forward_batch(&self, sequences: &[&[usize]]) -> Result<Vec<Vec<f32>>, NnError> {
        let mut trie = SequenceTrie::new(self.embedding.dim());
        for tokens in sequences {
            trie.begin_sequence();
            for &token in *tokens {
                if let Some(row) = trie.push_step(token as u64) {
                    row.copy_from_slice(self.embedding.row(token)?);
                }
            }
        }
        Ok(self.lstm.forward_batch_trie(&trie))
    }

    /// Batched training forward pass over many token sequences: embeds every
    /// sequence into a time-major batch and runs the batched LSTM training
    /// forward. Returns one final hidden state per sequence, in input order,
    /// bit-identical to encoding each sequence on its own.
    ///
    /// (Unlike [`SequenceEncoder::forward_batch`] this keeps every step —
    /// no prefix sharing — because training needs one gradient contribution
    /// per token *occurrence*.)
    ///
    /// # Errors
    ///
    /// Returns [`NnError::VocabOutOfRange`] if any token of any sequence is
    /// outside the vocabulary.
    pub fn forward_batch_train(
        &self,
        sequences: &[&[usize]],
    ) -> Result<(Vec<Vec<f32>>, SequenceEncoderBatchCache), NnError> {
        let rows: usize = sequences.iter().map(|s| s.len()).sum();
        let mut flat = SequenceBatch::with_capacity(self.embedding.dim(), rows, sequences.len());
        for tokens in sequences {
            flat.begin_sequence();
            for &token in *tokens {
                flat.push_row().copy_from_slice(self.embedding.row(token)?);
            }
        }
        let batch = TimeMajorBatch::from_batch(&flat);
        let (finals, lstm_cache) = self.lstm.forward_batch_train(&batch);
        Ok((
            finals,
            SequenceEncoderBatchCache {
                tokens: sequences.iter().map(|s| s.to_vec()).collect(),
                batch,
                lstm_cache,
            },
        ))
    }

    /// Batched backward pass: `grad_hidden[s]` is the gradient on sequence
    /// `s`'s encoding. Accumulates parameter gradients in the LSTM and the
    /// embedding table, **bit-identical** to looping the per-sample backward
    /// over the sequences in input order: the
    /// LSTM's deferred sweep replays its parameter accumulation in exactly
    /// that order (see [`Lstm::backward_batch`]), and the embedding scatter
    /// then walks sequences in input order, tokens ascending — the
    /// per-sample order.
    pub fn backward_batch(&mut self, cache: &SequenceEncoderBatchCache, grad_hidden: &[Vec<f32>]) {
        let input_grads = self
            .lstm
            .backward_batch(&cache.batch, &cache.lstm_cache, grad_hidden);
        for (seq, tokens) in cache.tokens.iter().enumerate() {
            let slot = cache.batch.slot_of(seq);
            for (t, &token) in tokens.iter().enumerate() {
                self.embedding.backward_row(token, input_grads.row(t, slot));
            }
        }
    }
}

impl Parameterized for SequenceEncoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.embedding.params_mut();
        params.extend(self.lstm.params_mut());
        params
    }
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
    fn empty_sequence_encodes_to_zero() {
        let enc = encoder();
        let h = enc.forward_batch(&[&[]]).unwrap();
        assert_eq!(h, vec![vec![0.0; 6]]);
    }

    #[test]
    fn different_sequences_give_different_encodings() {
        let enc = encoder();
        let h = enc
            .forward_batch(&[&[1, 2, 3], &[3, 2, 1], &[1, 2, 3]])
            .unwrap();
        assert_eq!(h[0], h[2]);
        assert_ne!(h[0], h[1]);
    }

    #[test]
    fn backward_accumulates_gradients_in_all_parameters() {
        let mut enc = encoder();
        let (h, cache) = enc.forward_batch_train(&[&[1, 2, 3]]).unwrap();
        enc.zero_grad();
        enc.backward_batch(&cache, &[vec![1.0; h[0].len()]]);
        let grad_norm = enc.grad_norm();
        assert!(grad_norm > 0.0, "some gradient must flow");
        // The embedding rows of unused tokens must stay zero.
        let embedding_grad = &enc.params_mut()[0].grad;
        assert!(embedding_grad.row(1).iter().any(|&g| g != 0.0));
        assert!(embedding_grad.row(7).iter().all(|&g| g == 0.0));
    }

    #[test]
    fn parameter_count_matches_components() {
        let mut enc = encoder();
        // embedding 10*4 + lstm (4*6)*4 rows x (4 in) + (24 x 6) + bias 24
        let expected = 10 * 4 + 24 * 4 + 24 * 6 + 24;
        assert_eq!(enc.parameter_count(), expected);
    }

    #[test]
    fn serde_round_trip() {
        let enc = encoder();
        let json = serde_json::to_string(&enc).unwrap();
        let back: SequenceEncoder = serde_json::from_str(&json).unwrap();
        assert_eq!(back, enc);
    }
}
