//! The per-sample fitness network: one candidate against one specification
//! at a time, through every stage of Figure 2.

use crate::embedding::{self, EmbeddingOracle};
use crate::encoder::{self, SequenceEncoderCache, SequenceEncoderOracle};
use crate::lstm::{self, LstmCache, LstmOracle};
use crate::mlp::{self, MlpCache, MlpOracle};
use netsyn_fitness::{CandidateEncoding, FitnessNet, SpecEncoding};
use netsyn_nn::{NnError, Parameterized};

/// Cache of one [`FitnessNetOracle::forward`] pass, required by
/// [`FitnessNetOracle::backward`].
#[derive(Debug, Clone)]
pub struct FitnessNetCache {
    example_caches: Vec<ExampleCache>,
    example_lstm_cache: LstmCache,
    head_cache: MlpCache,
}

#[derive(Debug, Clone)]
struct ExampleCache {
    io_cache: SequenceEncoderCache,
    step_caches: Vec<SequenceEncoderCache>,
    step_functions: Vec<usize>,
    trace_cache: LstmCache,
}

/// Per-sample passes of a [`FitnessNet`]: the reference the batched
/// `predict_batch_with`, `forward_batch_train` and `backward_batch` are
/// certified bit-identical against.
pub trait FitnessNetOracle {
    /// Forward pass over one candidate against a specification encoding,
    /// returning the raw output logits and the cache needed for
    /// [`FitnessNetOracle::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::VocabOutOfRange`] if any token exceeds the
    /// configured vocabularies.
    fn forward(
        &self,
        spec: &SpecEncoding,
        candidate: &CandidateEncoding,
    ) -> Result<(Vec<f32>, FitnessNetCache), NnError>;

    /// Forward pass that discards the cache.
    ///
    /// # Errors
    ///
    /// Same as [`FitnessNetOracle::forward`].
    fn predict(
        &self,
        spec: &SpecEncoding,
        candidate: &CandidateEncoding,
    ) -> Result<Vec<f32>, NnError>;

    /// Forward pass over the specification alone (the FP head's input — no
    /// candidate, no traces).
    ///
    /// # Errors
    ///
    /// Same as [`FitnessNetOracle::forward`].
    fn predict_spec(&self, spec: &SpecEncoding) -> Result<Vec<f32>, NnError>;

    /// Backward pass: accumulates gradients in every component given the
    /// gradient of the loss with respect to the output logits.
    fn backward(&mut self, cache: &FitnessNetCache, grad_logits: &[f32]);
}

impl FitnessNetOracle for FitnessNet {
    fn forward(
        &self,
        spec: &SpecEncoding,
        candidate: &CandidateEncoding,
    ) -> Result<(Vec<f32>, FitnessNetCache), NnError> {
        let mut example_vectors = Vec::with_capacity(spec.len());
        let mut example_caches = Vec::with_capacity(spec.len());
        for (index, io_tokens) in spec.io_tokens().iter().enumerate() {
            let steps = candidate.trace(index);
            let (io_hidden, io_cache) = self.io_encoder().forward(io_tokens)?;
            let mut step_inputs = Vec::with_capacity(steps.len());
            let mut step_caches = Vec::with_capacity(steps.len());
            let mut step_functions = Vec::with_capacity(steps.len());
            for step in steps {
                let (step_hidden, step_cache) = self.step_encoder().forward(&step.value_tokens)?;
                let function_vec = self.function_embedding().lookup(step.function)?;
                let mut combined = function_vec;
                combined.extend_from_slice(&step_hidden);
                step_inputs.push(combined);
                step_caches.push(step_cache);
                step_functions.push(step.function);
            }
            let (trace_hidden, trace_cache) = self.trace_lstm().forward(&step_inputs);
            let mut example_vec = io_hidden;
            example_vec.extend_from_slice(&trace_hidden);
            example_vectors.push(example_vec);
            example_caches.push(ExampleCache {
                io_cache,
                step_caches,
                step_functions,
                trace_cache,
            });
        }
        let (summary, example_lstm_cache) = self.example_lstm().forward(&example_vectors);
        let (logits, head_cache) = self.head().forward(&summary);
        Ok((
            logits,
            FitnessNetCache {
                example_caches,
                example_lstm_cache,
                head_cache,
            },
        ))
    }

    fn predict(
        &self,
        spec: &SpecEncoding,
        candidate: &CandidateEncoding,
    ) -> Result<Vec<f32>, NnError> {
        self.forward(spec, candidate).map(|(logits, _)| logits)
    }

    fn predict_spec(&self, spec: &SpecEncoding) -> Result<Vec<f32>, NnError> {
        self.predict(spec, &CandidateEncoding::spec_only())
    }

    fn backward(&mut self, cache: &FitnessNetCache, grad_logits: &[f32]) {
        let io_dim = self.config().encoder_hidden_dim;
        let func_dim = self.config().function_embed_dim;
        let activation = self.head().activation();
        // The components' parameters, in `params_mut` order: io encoder
        // (embedding + LSTM), step encoder (embedding + LSTM), function
        // embedding, trace LSTM, example LSTM, head (weight + bias per
        // layer).
        let mut params = self.params_mut();
        let (io_encoder, rest) = params.split_at_mut(4);
        let (step_encoder, rest) = rest.split_at_mut(4);
        let (function_embedding, rest) = rest.split_at_mut(1);
        let (trace_lstm, rest) = rest.split_at_mut(3);
        let (example_lstm, head) = rest.split_at_mut(3);

        let grad_summary = mlp::backward(head, activation, &cache.head_cache, grad_logits);
        let example_grads = lstm::backward(example_lstm, &cache.example_lstm_cache, &grad_summary);
        for (example_cache, example_grad) in cache.example_caches.iter().zip(example_grads.iter()) {
            let (grad_io, grad_trace) = example_grad.split_at(io_dim);
            encoder::backward(io_encoder, &example_cache.io_cache, grad_io);
            let step_grads = lstm::backward(trace_lstm, &example_cache.trace_cache, grad_trace);
            for ((step_cache, &function), step_grad) in example_cache
                .step_caches
                .iter()
                .zip(example_cache.step_functions.iter())
                .zip(step_grads.iter())
            {
                let (grad_function, grad_step_hidden) = step_grad.split_at(func_dim);
                embedding::backward(
                    function_embedding[0],
                    &[function],
                    &[grad_function.to_vec()],
                );
                encoder::backward(step_encoder, step_cache, grad_step_hidden);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_dsl::{Function, IntPredicate, IoSpec, MapOp, Program, Value};
    use netsyn_fitness::encoding::{encode_candidate, encode_spec};
    use netsyn_fitness::{EncodingConfig, FitnessNetConfig, TraceEncodingCache};
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

    #[test]
    fn batched_predict_is_bit_identical_to_single() {
        let net = FitnessNet::new(tiny_config(6), EncodingConfig::new(), &mut rng());
        let candidates = [
            target(),
            Program::new(vec![Function::Head, Function::Sum, Function::Last]),
            Program::default(),
            // A duplicate must get the identical logits; it shares whole
            // example-trie paths with the first target.
            target(),
            // Shares its first two statements (and so their trace values)
            // with the target, so the trace trie shares their nodes.
            Program::new(vec![
                Function::Filter(IntPredicate::Positive),
                Function::Map(MapOp::Mul2),
                Function::Sum,
            ]),
        ];
        let spec_encoding = encode_spec(net.encoding(), &spec());
        let encodings: Vec<CandidateEncoding> = candidates
            .iter()
            .map(|c| encode_candidate(net.encoding(), &spec(), c))
            .collect();
        let batched = net
            .predict_batch_with(&spec_encoding, &encodings, &TraceEncodingCache::new())
            .unwrap();
        assert_eq!(batched.len(), encodings.len());
        for (candidate, batch_logits) in encodings.iter().zip(batched.iter()) {
            let single = net.predict(&spec_encoding, candidate).unwrap();
            assert_eq!(batch_logits.len(), single.len());
            for (a, b) in batch_logits.iter().zip(single.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert!(net
            .predict_batch_with(&spec_encoding, &[], &TraceEncodingCache::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn batched_predict_handles_spec_only_samples() {
        // The FP head has no traces; batching must cope with trace-less
        // candidates mixed into the same call.
        let net = FitnessNet::new(tiny_config(41), EncodingConfig::new(), &mut rng());
        let spec_encoding = encode_spec(net.encoding(), &spec());
        let with_trace = encode_candidate(net.encoding(), &spec(), &target());
        let spec_only = CandidateEncoding::spec_only();
        let batched = net
            .predict_batch_with(
                &spec_encoding,
                &[spec_only.clone(), with_trace.clone()],
                &TraceEncodingCache::new(),
            )
            .unwrap();
        for (candidate, batch_logits) in [spec_only, with_trace].iter().zip(batched.iter()) {
            let single = net.predict(&spec_encoding, candidate).unwrap();
            for (a, b) in batch_logits.iter().zip(single.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // predict_spec is exactly the spec-only forward pass.
        let fp = net.predict_spec(&spec_encoding).unwrap();
        let manual = net
            .predict(&spec_encoding, &CandidateEncoding::spec_only())
            .unwrap();
        assert_eq!(fp, manual);
    }

    #[test]
    fn batched_train_path_is_bit_identical_to_per_sample() {
        let mut net = FitnessNet::new(tiny_config(6), EncodingConfig::new(), &mut rng());
        // Two specs with different example counts (ragged example LSTM
        // batching) and a spec-only sample (empty traces everywhere).
        let spec_a = spec();
        let spec_b = IoSpec::from_program(
            &target(),
            &[
                vec![Value::List(vec![4, -1])],
                vec![Value::List(vec![7])],
                vec![Value::List(vec![0, 0, 9])],
            ],
        );
        let enc_a = encode_spec(net.encoding(), &spec_a);
        let enc_b = encode_spec(net.encoding(), &spec_b);
        let other = Program::new(vec![Function::Head, Function::Sum, Function::Last]);
        let cands = [
            encode_candidate(net.encoding(), &spec_a, &target()),
            encode_candidate(net.encoding(), &spec_b, &other),
            CandidateEncoding::spec_only(),
            encode_candidate(net.encoding(), &spec_a, &target()),
        ];
        let samples: Vec<(&SpecEncoding, &CandidateEncoding)> = vec![
            (&enc_a, &cands[0]),
            (&enc_b, &cands[1]),
            (&enc_a, &cands[2]),
            (&enc_a, &cands[3]),
        ];

        let (batched_logits, batch_cache) = net.forward_batch_train(&samples).unwrap();
        let grad_logits: Vec<Vec<f32>> = batched_logits
            .iter()
            .map(|logits| softmax_cross_entropy(logits, 2).1)
            .collect();

        // Reference: per-sample forward/backward in input order.
        let mut reference = net.clone();
        reference.zero_grad();
        for (s, ((spec_enc, cand), grad)) in samples.iter().zip(grad_logits.iter()).enumerate() {
            let (logits, cache) = reference.forward(spec_enc, cand).unwrap();
            for (a, b) in batched_logits[s].iter().zip(logits.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "logits of sample {s}");
            }
            reference.backward(&cache, grad);
        }

        net.zero_grad();
        net.backward_batch(&batch_cache, &grad_logits);
        for (p_batched, p_ref) in net.params_mut().iter().zip(reference.params_mut().iter()) {
            for (a, b) in p_batched.grad.data().iter().zip(p_ref.grad.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parameter gradient mismatch");
            }
        }
    }
}
