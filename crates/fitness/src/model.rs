//! The neural fitness-function model (NN-FF), following Figure 2 of the
//! paper.
//!
//! For every input-output example, an LSTM encoder summarizes the example's
//! `input, SEP, output` token sequence, a second LSTM encoder summarizes each
//! execution-trace value, the per-statement (function embedding ‖ trace
//! encoding) vectors are combined by a trace LSTM, and the per-example
//! vectors are combined by an example-level LSTM whose final hidden state is
//! classified by a fully connected head.
//!
//! The same architecture serves all three fitness heads:
//! * CF / LCS — a softmax classifier over `0..=L` (program length `L`);
//! * FP — 41 sigmoid outputs, one per DSL function (the trace inputs are
//!   simply absent).

use crate::encoding::{CandidateEncoding, EncodingConfig, SpecEncoding, TraceEncodingCache};
use netsyn_nn::{
    Activation, Embedding, FxHashMap, Lstm, LstmBatchCache, Matrix, Mlp, MlpBatchCache, NnError,
    Param, Parameterized, SequenceBatch, SequenceEncoder, SequenceEncoderBatchCache, SequenceTrie,
    TimeMajorBatch,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Hyper-parameters of the fitness network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FitnessNetConfig {
    /// Token-embedding dimension for value tokens.
    pub value_embed_dim: usize,
    /// Hidden dimension of the IO and trace-step encoders.
    pub encoder_hidden_dim: usize,
    /// Embedding dimension for DSL-function tokens.
    pub function_embed_dim: usize,
    /// Hidden dimension of the trace-level LSTM.
    pub trace_hidden_dim: usize,
    /// Hidden dimension of the example-level LSTM.
    pub example_hidden_dim: usize,
    /// Hidden width of the fully connected head.
    pub head_hidden_dim: usize,
    /// Number of network outputs (classes or sigmoid units).
    pub output_dim: usize,
}

impl FitnessNetConfig {
    /// A compact configuration suitable for CPU training, with the given
    /// number of outputs.
    #[must_use]
    pub fn small(output_dim: usize) -> Self {
        FitnessNetConfig {
            value_embed_dim: 16,
            encoder_hidden_dim: 24,
            function_embed_dim: 12,
            trace_hidden_dim: 24,
            example_hidden_dim: 32,
            head_hidden_dim: 32,
            output_dim,
        }
    }
}

/// The neural fitness-function model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FitnessNet {
    config: FitnessNetConfig,
    encoding: EncodingConfig,
    io_encoder: SequenceEncoder,
    step_encoder: SequenceEncoder,
    function_embedding: Embedding,
    trace_lstm: Lstm,
    example_lstm: Lstm,
    head: Mlp,
}

/// Cache of one [`FitnessNet::forward_batch_train`] pass, required by
/// [`FitnessNet::backward_batch`].
///
/// Sequences are flattened lexicographically — `(sample, example)` for the
/// IO encoder, trace LSTM and example rows, `(sample, example, step)` for the
/// step encoder and function embedding — which is exactly the order the
/// per-sample reference pass visits them, so every batched component can
/// replay its parameter accumulation bit-identically.
#[derive(Debug, Clone)]
pub struct FitnessNetBatchCache {
    io_cache: SequenceEncoderBatchCache,
    step_cache: SequenceEncoderBatchCache,
    /// DSL function of each trace step, flattened `(sample, example, step)`.
    step_functions: Vec<usize>,
    /// Steps per `(sample, example)` pair, flattened.
    steps_per_pair: Vec<usize>,
    /// Examples per sample (`spec.len()` of each sample, in input order).
    examples_per_sample: Vec<usize>,
    trace_batch: TimeMajorBatch,
    trace_lstm_cache: LstmBatchCache,
    example_batch: TimeMajorBatch,
    example_lstm_cache: LstmBatchCache,
    head_cache: MlpBatchCache,
}

impl FitnessNet {
    /// Creates a randomly initialized fitness network.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        config: FitnessNetConfig,
        encoding: EncodingConfig,
        rng: &mut R,
    ) -> Self {
        let io_encoder = SequenceEncoder::new(
            encoding.value_vocab_size(),
            config.value_embed_dim,
            config.encoder_hidden_dim,
            rng,
        );
        let step_encoder = SequenceEncoder::new(
            encoding.value_vocab_size(),
            config.value_embed_dim,
            config.encoder_hidden_dim,
            rng,
        );
        let function_embedding = Embedding::new(
            encoding.function_vocab_size(),
            config.function_embed_dim,
            rng,
        );
        let trace_lstm = Lstm::new(
            config.function_embed_dim + config.encoder_hidden_dim,
            config.trace_hidden_dim,
            rng,
        );
        let example_lstm = Lstm::new(
            config.encoder_hidden_dim + config.trace_hidden_dim,
            config.example_hidden_dim,
            rng,
        );
        let head = Mlp::new(
            &[
                config.example_hidden_dim,
                config.head_hidden_dim,
                config.output_dim,
            ],
            Activation::Relu,
            rng,
        );
        FitnessNet {
            config,
            encoding,
            io_encoder,
            step_encoder,
            function_embedding,
            trace_lstm,
            example_lstm,
            head,
        }
    }

    /// The network's hyper-parameters.
    #[must_use]
    pub fn config(&self) -> &FitnessNetConfig {
        &self.config
    }

    /// The token-encoding configuration the network was built for.
    #[must_use]
    pub fn encoding(&self) -> &EncodingConfig {
        &self.encoding
    }

    /// Number of outputs (classes or sigmoid units).
    #[must_use]
    pub fn output_dim(&self) -> usize {
        self.config.output_dim
    }

    /// The encoder of each example's `input, SEP, output` tokens.
    #[must_use]
    pub fn io_encoder(&self) -> &SequenceEncoder {
        &self.io_encoder
    }

    /// The encoder of each trace value's tokens.
    #[must_use]
    pub fn step_encoder(&self) -> &SequenceEncoder {
        &self.step_encoder
    }

    /// The embedding of each trace step's DSL function.
    #[must_use]
    pub fn function_embedding(&self) -> &Embedding {
        &self.function_embedding
    }

    /// The LSTM over each example's (function ‖ step encoding) steps.
    #[must_use]
    pub fn trace_lstm(&self) -> &Lstm {
        &self.trace_lstm
    }

    /// The LSTM over a candidate's (io encoding ‖ trace encoding) examples.
    #[must_use]
    pub fn example_lstm(&self) -> &Lstm {
        &self.example_lstm
    }

    /// The fully connected head over the example LSTM's summary.
    #[must_use]
    pub fn head(&self) -> &Mlp {
        &self.head
    }

    /// A fast fingerprint of every parameter's current bit pattern.
    ///
    /// Fitness functions fold this into their
    /// [`cache_key`](crate::FitnessFunction::cache_key) so that shared
    /// caches ([`crate::FitnessCache`]'s score and trace-encoding shards)
    /// can never alias two differently-trained models of the same kind —
    /// the display name alone (`"nn-CF"`, …) is identical for every trained
    /// CF model. Deterministic across runs (FxHash over the raw `f32` bits
    /// in stable parameter order).
    #[must_use]
    pub fn weight_fingerprint(&mut self) -> u64 {
        use std::hash::Hasher;
        let mut hasher = netsyn_nn::FxHasher::default();
        for param in self.params_mut() {
            hasher.write_usize(param.value.rows());
            hasher.write_usize(param.value.cols());
            for &w in param.value.data() {
                hasher.write_u32(w.to_bits());
            }
        }
        hasher.finish()
    }

    /// Checks that the embedding tables have exactly the rows the
    /// [`EncodingConfig`] can address: both value encoders
    /// [`EncodingConfig::value_vocab_size`], the function embedding
    /// [`EncodingConfig::function_vocab_size`]. A net built by
    /// [`FitnessNet::new`] always passes; a corrupt or hand-edited checkpoint
    /// may not, and then every batched pass would fail. Model loaders run
    /// this once, so the scoring and training paths can treat an
    /// out-of-range token as a bug.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Deserialize`] naming the first table that
    /// disagrees with the encoding.
    pub fn check_vocab(&self) -> Result<(), NnError> {
        let value_vocab = self.encoding.value_vocab_size();
        let tables = [
            ("io encoder", self.io_encoder.vocab_size(), value_vocab),
            ("step encoder", self.step_encoder.vocab_size(), value_vocab),
            (
                "function embedding",
                self.function_embedding.vocab_size(),
                self.encoding.function_vocab_size(),
            ),
        ];
        for (table, rows, expected) in tables {
            if rows != expected {
                return Err(NnError::Deserialize(format!(
                    "the {table} table has {rows} rows but the encoding has {expected} tokens"
                )));
            }
        }
        Ok(())
    }

    /// Batched inference over many candidates sharing one specification
    /// encoding — the one shipped inference path: a whole GA population is
    /// scored per generation, and the FP head scores a specification as a
    /// batch of one [`CandidateEncoding::spec_only`].
    ///
    /// All four network stages run over the entire batch at once: the IO
    /// encoder sees the shared specification exactly once (candidates carry
    /// no IO tokens at all, so there is nothing to deduplicate), the
    /// trace-step encoder processes every *distinct* trace value of every
    /// candidate in one batched call, and the trace and example LSTMs step
    /// all sequences together, each over a prefix-sharing [`SequenceTrie`].
    /// Returns one logit vector per candidate, in input order,
    /// bit-identical to the per-sample reference pass of the dev-only
    /// `netsyn-oracle` crate.
    ///
    /// Trace values whose step-encoder hidden state an earlier batch
    /// computed — a previous GA generation, or a previous run of the same
    /// task sharing `trace_cache` — are served from the memo, and only the
    /// genuinely new values run through the step encoder. The step encoder
    /// is a batch-independent function of each token sequence, so a warm
    /// cache returns bit-identical logits; `trace_cache` must be reserved
    /// to this network's weights (see [`TraceEncodingCache`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::VocabOutOfRange`] if any token of any candidate is
    /// outside the configured vocabularies; the whole batch fails and
    /// nothing is cached. Inputs encoded with [`FitnessNet::encoding`] are
    /// always in range for a net that passes [`FitnessNet::check_vocab`].
    pub fn predict_batch_with(
        &self,
        spec: &SpecEncoding,
        candidates: &[CandidateEncoding],
        trace_cache: &TraceEncodingCache,
    ) -> Result<Vec<Vec<f32>>, NnError> {
        if candidates.is_empty() {
            return Ok(Vec::new());
        }
        // Stage 1: encode the shared specification once for the whole batch.
        let io_refs: Vec<&[usize]> = spec.io_tokens().iter().map(Vec::as_slice).collect();
        let io_hidden = self.io_encoder.forward_batch(&io_refs)?;

        // Stage 2: encode every *distinct* trace value once (candidate
        // traces repeat heavily — empty lists, shared intermediate values —
        // and the encoder is a deterministic function of the tokens).
        let mut step_unique: Vec<&[usize]> = Vec::new();
        let mut step_id_of: FxHashMap<&[usize], usize> = FxHashMap::default();
        let step_ids: Vec<usize> = candidates
            .iter()
            .flat_map(|candidate| candidate.traces().iter())
            .flat_map(|trace| trace.iter())
            .map(|step| {
                *step_id_of
                    .entry(step.value_tokens.as_slice())
                    .or_insert_with(|| {
                        step_unique.push(step.value_tokens.as_slice());
                        step_unique.len() - 1
                    })
            })
            .collect();
        // Serve values the cache has already encoded (striped lookups, one
        // lock per touched stripe); run the step encoder only over the
        // misses — outside any lock — then publish the fresh hidden states
        // for future batches. Publication is first-write-wins, so if a
        // concurrent batch encoded the same value we consume the canonical
        // stored buffer (bit-identical either way).
        let mut step_hidden: Vec<Option<Arc<[f32]>>> = trace_cache.get_many(&step_unique);
        let missing: Vec<usize> = step_hidden
            .iter()
            .enumerate()
            .filter_map(|(index, slot)| slot.is_none().then_some(index))
            .collect();
        if !missing.is_empty() {
            let miss_tokens: Vec<&[usize]> = missing.iter().map(|&i| step_unique[i]).collect();
            let computed = self.step_encoder.forward_batch(&miss_tokens)?;
            trace_cache.record_encodes(missing.len());
            let entries: Vec<(&[usize], Arc<[f32]>)> = missing
                .iter()
                .zip(computed)
                .map(|(&index, hidden)| (step_unique[index], Arc::<[f32]>::from(hidden)))
                .collect();
            let canonical = trace_cache.publish_many(entries);
            for (&index, hidden) in missing.iter().zip(canonical) {
                step_hidden[index] = Some(hidden);
            }
        }

        // Stage 3: one (function embedding ‖ step encoding) sequence per
        // (candidate, example), combined by the trace LSTM over a
        // prefix-sharing trie: candidates that open with the same statements
        // and trace values (common in a GA population) share those steps'
        // LSTM work outright. Nodes are keyed by (function, interned trace
        // value id), so equal keys imply bit-identical input rows.
        let func_dim = self.config.function_embed_dim;
        let enc_dim = self.config.encoder_hidden_dim;
        let mut trace_trie = SequenceTrie::new(func_dim + enc_dim);
        let mut flat_step = 0usize;
        for candidate in candidates {
            for example in 0..spec.len() {
                trace_trie.begin_sequence();
                for step in candidate.trace(example) {
                    let value_id = step_ids[flat_step];
                    flat_step += 1;
                    debug_assert!(value_id < u32::MAX as usize);
                    let key = ((step.function as u64) << 32) | value_id as u64;
                    if let Some(row) = trace_trie.push_step(key) {
                        row[..func_dim]
                            .copy_from_slice(self.function_embedding.row(step.function)?);
                        let hidden = step_hidden[value_id]
                            .as_deref()
                            .expect("every distinct trace value was encoded above");
                        row[func_dim..].copy_from_slice(hidden);
                    }
                }
            }
        }
        let trace_hidden = self.trace_lstm.forward_batch_trie(&trace_trie);

        // Stage 4: one (io encoding ‖ trace encoding) sequence per
        // candidate, combined by the example LSTM over a prefix-sharing trie.
        // The io encodings are the shared spec rows — referenced per
        // candidate, never re-encoded. A step at depth `e` is keyed by the
        // trace trie node its (candidate, example `e`) sequence ended on
        // (`u64::MAX` for an empty trace): the depth fixes the io row and
        // the node fixes the trace encoding, so equal keys imply
        // bit-identical input rows, and candidates whose leading examples
        // ran identical traces share those steps.
        let example_dim = enc_dim + self.config.trace_hidden_dim;
        let mut example_trie = SequenceTrie::new(example_dim);
        let mut flat_example = 0usize;
        for _candidate in candidates {
            example_trie.begin_sequence();
            for io_h in io_hidden.iter().take(spec.len()) {
                let key = trace_trie.terminals()[flat_example].map_or(u64::MAX, |(depth, slot)| {
                    ((depth as u64) << 32) | slot as u64
                });
                if let Some(row) = example_trie.push_step(key) {
                    row[..enc_dim].copy_from_slice(io_h);
                    row[enc_dim..].copy_from_slice(&trace_hidden[flat_example]);
                }
                flat_example += 1;
            }
        }
        let summaries = self.example_lstm.forward_batch_trie(&example_trie);

        // Stage 5: classify all summaries with one batched head pass.
        let mut summary_mat = Matrix::zeros(candidates.len(), self.config.example_hidden_dim);
        for (row, summary) in summaries.iter().enumerate() {
            summary_mat.row_mut(row).copy_from_slice(summary);
        }
        let logits = self.head.forward_batch(&summary_mat);
        Ok((0..candidates.len())
            .map(|row| logits.row(row).to_vec())
            .collect())
    }

    /// Batched training forward pass over many `(spec, candidate)` samples —
    /// the minibatch path of the trainer. All four network stages run over
    /// the whole batch at once on the gather-free time-major kernels
    /// ([`Lstm::forward_batch_train`], [`Mlp::forward_batch_train`]).
    /// Returns one logit vector per sample, in input order, bit-identical to
    /// the per-sample reference pass, plus the cache
    /// [`FitnessNet::backward_batch`] consumes.
    ///
    /// Unlike [`FitnessNet::predict_batch_with`] nothing is deduplicated:
    /// training needs one gradient contribution per occurrence, so repeated
    /// specs or trace values are encoded repeatedly on purpose.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::VocabOutOfRange`] if any token of any sample is out
    /// of range; the whole batch fails.
    pub fn forward_batch_train(
        &self,
        samples: &[(&SpecEncoding, &CandidateEncoding)],
    ) -> Result<(Vec<Vec<f32>>, FitnessNetBatchCache), NnError> {
        let func_dim = self.config.function_embed_dim;
        let enc_dim = self.config.encoder_hidden_dim;

        // Flatten the sample structure lexicographically: (sample, example)
        // io/trace sequences and (sample, example, step) trace-value
        // sequences, mirroring the loop order of the per-sample path.
        let mut examples_per_sample = Vec::with_capacity(samples.len());
        let mut io_seqs: Vec<&[usize]> = Vec::new();
        let mut step_seqs: Vec<&[usize]> = Vec::new();
        let mut step_functions: Vec<usize> = Vec::new();
        let mut steps_per_pair: Vec<usize> = Vec::new();
        for (spec, candidate) in samples {
            examples_per_sample.push(spec.len());
            for (example, io_tokens) in spec.io_tokens().iter().enumerate() {
                io_seqs.push(io_tokens);
                let steps = candidate.trace(example);
                steps_per_pair.push(steps.len());
                for step in steps {
                    step_seqs.push(&step.value_tokens);
                    step_functions.push(step.function);
                }
            }
        }

        let (io_hidden, io_cache) = self.io_encoder.forward_batch_train(&io_seqs)?;
        let (step_hidden, step_cache) = self.step_encoder.forward_batch_train(&step_seqs)?;

        // Trace LSTM inputs: one (function embedding ‖ step encoding)
        // sequence per (sample, example).
        let mut trace_flat = SequenceBatch::with_capacity(
            func_dim + enc_dim,
            step_functions.len(),
            steps_per_pair.len(),
        );
        let mut flat_step = 0usize;
        for &steps in &steps_per_pair {
            trace_flat.begin_sequence();
            for _ in 0..steps {
                let row = trace_flat.push_row();
                row[..func_dim]
                    .copy_from_slice(self.function_embedding.row(step_functions[flat_step])?);
                row[func_dim..].copy_from_slice(&step_hidden[flat_step]);
                flat_step += 1;
            }
        }
        let trace_batch = TimeMajorBatch::from_batch(&trace_flat);
        let (trace_hidden, trace_lstm_cache) = self.trace_lstm.forward_batch_train(&trace_batch);

        // Example LSTM inputs: one (io encoding ‖ trace encoding) sequence
        // per sample.
        let example_dim = enc_dim + self.config.trace_hidden_dim;
        let mut example_flat =
            SequenceBatch::with_capacity(example_dim, steps_per_pair.len(), samples.len());
        let mut flat_pair = 0usize;
        for &examples in &examples_per_sample {
            example_flat.begin_sequence();
            for _ in 0..examples {
                let row = example_flat.push_row();
                row[..enc_dim].copy_from_slice(&io_hidden[flat_pair]);
                row[enc_dim..].copy_from_slice(&trace_hidden[flat_pair]);
                flat_pair += 1;
            }
        }
        let example_batch = TimeMajorBatch::from_batch(&example_flat);
        let (summaries, example_lstm_cache) = self.example_lstm.forward_batch_train(&example_batch);

        // Classify all summaries with one batched head pass.
        let mut summary_mat = Matrix::zeros(samples.len(), self.config.example_hidden_dim);
        for (row, summary) in summaries.iter().enumerate() {
            summary_mat.row_mut(row).copy_from_slice(summary);
        }
        let (logits, head_cache) = self.head.forward_batch_train(&summary_mat);
        Ok((
            (0..samples.len()).map(|r| logits.row(r).to_vec()).collect(),
            FitnessNetBatchCache {
                io_cache,
                step_cache,
                step_functions,
                steps_per_pair,
                examples_per_sample,
                trace_batch,
                trace_lstm_cache,
                example_batch,
                example_lstm_cache,
                head_cache,
            },
        ))
    }

    /// Batched backward pass: `grad_logits[s]` is the loss gradient on
    /// sample `s`'s logits. Accumulates gradients in every component,
    /// **bit-identical** to looping the per-sample reference backward over
    /// the samples in input order: each batched component replays its parameter
    /// accumulation in the flattened lexicographic sequence order of the
    /// cache, which is the per-sample visit order — and contributions to
    /// *different* parameters commute, so the coarser interleaving of the
    /// per-sample path (io, trace, steps of sample 0, then sample 1, …)
    /// yields the same bits per parameter.
    pub fn backward_batch(&mut self, cache: &FitnessNetBatchCache, grad_logits: &[Vec<f32>]) {
        assert_eq!(
            grad_logits.len(),
            cache.examples_per_sample.len(),
            "one logit gradient per sample"
        );
        let mut grad_mat = Matrix::zeros(grad_logits.len(), self.config.output_dim);
        for (row, grad) in grad_logits.iter().enumerate() {
            grad_mat.row_mut(row).copy_from_slice(grad);
        }
        let grad_summary = self.head.backward_batch(&cache.head_cache, &grad_mat);
        let grad_summaries: Vec<Vec<f32>> = (0..grad_summary.rows())
            .map(|r| grad_summary.row(r).to_vec())
            .collect();
        let example_grads = self.example_lstm.backward_batch(
            &cache.example_batch,
            &cache.example_lstm_cache,
            &grad_summaries,
        );

        // Split each (sample, example) gradient row into its io-encoder and
        // trace-LSTM halves, in flat order.
        let io_dim = self.config.encoder_hidden_dim;
        let func_dim = self.config.function_embed_dim;
        let pairs = cache.steps_per_pair.len();
        let mut grad_io: Vec<Vec<f32>> = Vec::with_capacity(pairs);
        let mut grad_trace: Vec<Vec<f32>> = Vec::with_capacity(pairs);
        for (sample, &examples) in cache.examples_per_sample.iter().enumerate() {
            let slot = cache.example_batch.slot_of(sample);
            for example in 0..examples {
                let row = example_grads.row(example, slot);
                grad_io.push(row[..io_dim].to_vec());
                grad_trace.push(row[io_dim..].to_vec());
            }
        }
        self.io_encoder.backward_batch(&cache.io_cache, &grad_io);
        let step_grads = self.trace_lstm.backward_batch(
            &cache.trace_batch,
            &cache.trace_lstm_cache,
            &grad_trace,
        );

        // Split each (sample, example, step) gradient row into its function
        // embedding and step-encoder halves; the embedding scatter runs in
        // flat order — the per-sample order.
        let mut grad_step_hidden: Vec<Vec<f32>> = Vec::with_capacity(cache.step_functions.len());
        let mut flat_step = 0usize;
        for (pair, &steps) in cache.steps_per_pair.iter().enumerate() {
            let slot = cache.trace_batch.slot_of(pair);
            for step in 0..steps {
                let row = step_grads.row(step, slot);
                self.function_embedding
                    .backward_row(cache.step_functions[flat_step], &row[..func_dim]);
                grad_step_hidden.push(row[func_dim..].to_vec());
                flat_step += 1;
            }
        }
        self.step_encoder
            .backward_batch(&cache.step_cache, &grad_step_hidden);
    }
}

impl Parameterized for FitnessNet {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = self.io_encoder.params_mut();
        params.extend(self.step_encoder.params_mut());
        params.extend(self.function_embedding.params_mut());
        params.extend(self.trace_lstm.params_mut());
        params.extend(self.example_lstm.params_mut());
        params.extend(self.head.params_mut());
        params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{encode_candidate, encode_spec};
    use netsyn_dsl::{Function, IntPredicate, IoSpec, MapOp, Program, Value};
    use netsyn_nn::loss::softmax_cross_entropy;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(17)
    }

    fn tiny_config(output_dim: usize) -> FitnessNetConfig {
        FitnessNetConfig {
            value_embed_dim: 4,
            encoder_hidden_dim: 5,
            function_embed_dim: 3,
            trace_hidden_dim: 5,
            example_hidden_dim: 6,
            head_hidden_dim: 8,
            output_dim,
        }
    }

    fn target() -> Program {
        Program::new(vec![
            Function::Filter(IntPredicate::Positive),
            Function::Map(MapOp::Mul2),
            Function::Sort,
            Function::Reverse,
        ])
    }

    fn spec() -> IoSpec {
        IoSpec::from_program(
            &target(),
            &[
                vec![Value::List(vec![-2, 10, 3, -4, 5, 2])],
                vec![Value::List(vec![1, 2, 3])],
            ],
        )
    }

    /// Logits of `candidates` through the shipped batched pass, with a
    /// fresh trace-encoding memo.
    fn predict(
        net: &FitnessNet,
        spec: &SpecEncoding,
        candidates: &[CandidateEncoding],
    ) -> Vec<Vec<f32>> {
        net.predict_batch_with(spec, candidates, &TraceEncodingCache::new())
            .unwrap()
    }

    #[test]
    fn forward_produces_requested_output_dim() {
        let net = FitnessNet::new(tiny_config(6), EncodingConfig::new(), &mut rng());
        assert_eq!(net.output_dim(), 6);
        let spec_encoding = encode_spec(net.encoding(), &spec());
        let candidate = encode_candidate(net.encoding(), &spec(), &target());
        let logits = &predict(&net, &spec_encoding, &[candidate])[0];
        assert_eq!(logits.len(), 6);
        assert!(logits.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn forward_works_without_traces() {
        // The FP head encodes only the specification.
        let net = FitnessNet::new(tiny_config(41), EncodingConfig::new(), &mut rng());
        let spec_encoding = encode_spec(net.encoding(), &spec());
        let logits = &predict(&net, &spec_encoding, &[CandidateEncoding::spec_only()])[0];
        assert_eq!(logits.len(), 41);
    }

    #[test]
    fn different_candidates_get_different_logits() {
        let net = FitnessNet::new(tiny_config(6), EncodingConfig::new(), &mut rng());
        let spec_encoding = encode_spec(net.encoding(), &spec());
        let a = encode_candidate(net.encoding(), &spec(), &target());
        let other = Program::new(vec![Function::Head, Function::Sum, Function::Last]);
        let b = encode_candidate(net.encoding(), &spec(), &other);
        let logits = predict(&net, &spec_encoding, &[a.clone(), b, a]);
        assert_ne!(logits[0], logits[1]);
        assert_eq!(logits[0], logits[2]);
        assert!(predict(&net, &spec_encoding, &[]).is_empty());
    }

    #[test]
    fn warm_trace_cache_is_bit_identical_and_skips_reencoding() {
        let net = FitnessNet::new(tiny_config(6), EncodingConfig::new(), &mut rng());
        let spec_encoding = encode_spec(net.encoding(), &spec());
        let candidates = [
            target(),
            Program::new(vec![Function::Head, Function::Sum, Function::Last]),
            Program::default(),
        ];
        let encodings: Vec<CandidateEncoding> = candidates
            .iter()
            .map(|c| encode_candidate(net.encoding(), &spec(), c))
            .collect();
        let cache = TraceEncodingCache::new();
        let cold = net
            .predict_batch_with(&spec_encoding, &encodings, &cache)
            .unwrap();
        let cold_encodes = cache.encode_count();
        assert!(cold_encodes > 0, "the cold batch encodes its trace values");
        assert_eq!(cache.len(), cold_encodes);
        // The warm pass re-encodes nothing and returns the same bits.
        let warm = net
            .predict_batch_with(&spec_encoding, &encodings, &cache)
            .unwrap();
        assert_eq!(cache.encode_count(), cold_encodes);
        for (a_row, b_row) in cold.iter().zip(warm.iter()) {
            for (a, b) in a_row.iter().zip(b_row.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // A partially overlapping batch encodes only its new values, still
        // bit-identically to the uncached path.
        let fresh_program = Program::new(vec![Function::Reverse, Function::Sort]);
        let mixed: Vec<CandidateEncoding> = [candidates[0].clone(), fresh_program]
            .iter()
            .map(|c| encode_candidate(net.encoding(), &spec(), c))
            .collect();
        let mixed_out = net
            .predict_batch_with(&spec_encoding, &mixed, &cache)
            .unwrap();
        assert!(cache.encode_count() > cold_encodes);
        let uncached = net
            .predict_batch_with(&spec_encoding, &mixed, &TraceEncodingCache::new())
            .unwrap();
        for (a_row, b_row) in mixed_out.iter().zip(uncached.iter()) {
            for (a, b) in a_row.iter().zip(b_row.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn backward_accumulates_gradients_everywhere() {
        let mut net = FitnessNet::new(tiny_config(6), EncodingConfig::new(), &mut rng());
        let spec_encoding = encode_spec(net.encoding(), &spec());
        let candidate = encode_candidate(net.encoding(), &spec(), &target());
        let (logits, cache) = net
            .forward_batch_train(&[(&spec_encoding, &candidate)])
            .unwrap();
        let (_, grad) = softmax_cross_entropy(&logits[0], 3);
        net.zero_grad();
        net.backward_batch(&cache, &[grad]);
        assert!(net.grad_norm() > 0.0);
    }

    /// Numerical gradient check of the batched training pass through the
    /// whole architecture on a tiny configuration.
    #[test]
    fn numerical_gradient_check_end_to_end() {
        let mut net = FitnessNet::new(tiny_config(3), EncodingConfig::new(), &mut rng());
        let spec_encoding = encode_spec(net.encoding(), &spec());
        let candidate = encode_candidate(net.encoding(), &spec(), &target());
        let target_class = 1usize;
        let loss_of = |net: &FitnessNet, candidate: &CandidateEncoding| -> f32 {
            let logits = &predict(net, &spec_encoding, std::slice::from_ref(candidate))[0];
            softmax_cross_entropy(logits, target_class).0
        };
        let (logits, cache) = net
            .forward_batch_train(&[(&spec_encoding, &candidate)])
            .unwrap();
        let (_, grad_logits) = softmax_cross_entropy(&logits[0], target_class);
        net.zero_grad();
        net.backward_batch(&cache, &[grad_logits]);

        let eps = 2e-2_f32;
        // Probe one entry of every non-head parameter (encoders, embeddings,
        // trace and example LSTMs). The ReLU head is excluded here because
        // finite differences are unreliable near its kinks; it has its own
        // numerical gradient check in netsyn-nn's MLP tests.
        let n_params = net.params_mut().len() - 4;
        let probes: Vec<(usize, usize, usize)> =
            (0..n_params).map(|which| (which, 0usize, 0usize)).collect();
        for (which, r, c) in probes {
            let orig = net.params_mut()[which].value.get(r, c);
            net.params_mut()[which].value.set(r, c, orig + eps);
            net.params_mut()[which].invalidate_transpose();
            let lp = loss_of(&net, &candidate);
            net.params_mut()[which].value.set(r, c, orig - eps);
            net.params_mut()[which].invalidate_transpose();
            let lm = loss_of(&net, &candidate);
            net.params_mut()[which].value.set(r, c, orig);
            net.params_mut()[which].invalidate_transpose();
            let num = (lp - lm) / (2.0 * eps);
            let ana = net.params_mut()[which].grad.get(r, c);
            assert!(
                (num - ana).abs() < 2e-2,
                "param {which} [{r},{c}]: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_a_fixed_sample() {
        use netsyn_nn::Adam;
        let mut net = FitnessNet::new(tiny_config(6), EncodingConfig::new(), &mut rng());
        let spec_encoding = encode_spec(net.encoding(), &spec());
        let candidate = encode_candidate(net.encoding(), &spec(), &target());
        let mut optimizer = Adam::new(5e-3);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..60 {
            let (logits, cache) = net
                .forward_batch_train(&[(&spec_encoding, &candidate)])
                .unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits[0], 4);
            net.backward_batch(&cache, &[grad]);
            optimizer.step(&mut net.params_mut());
            net.zero_grad();
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss did not decrease: {first_loss:?} -> {last_loss}"
        );
    }

    #[test]
    fn check_vocab_rejects_tables_that_disagree_with_the_encoding() {
        let mut net = FitnessNet::new(tiny_config(6), EncodingConfig::new(), &mut rng());
        assert_eq!(net.check_vocab(), Ok(()));
        let mut short = net.clone();
        short.function_embedding = Embedding::new(
            net.encoding.function_vocab_size() - 1,
            net.config.function_embed_dim,
            &mut rng(),
        );
        let err = short.check_vocab().unwrap_err().to_string();
        assert!(
            err.contains("function embedding table has 40 rows"),
            "{err}"
        );
        net.encoding.max_abs_value += 1;
        let err = net.check_vocab().unwrap_err().to_string();
        assert!(err.contains("io encoder table"), "{err}");
    }

    #[test]
    fn serde_round_trip() {
        let net = FitnessNet::new(tiny_config(4), EncodingConfig::new(), &mut rng());
        let json = serde_json::to_string(&net).unwrap();
        let back: FitnessNet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, net);
    }
}
