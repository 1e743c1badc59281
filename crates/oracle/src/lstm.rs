//! The per-sample LSTM with full backpropagation through time.

use crate::tensor::MatrixOracle;
use netsyn_nn::activation::{sigmoid, tanh};
use netsyn_nn::{vecops, Lstm, Param, Parameterized};

/// Cached activations of one LSTM time step (needed for BPTT).
#[derive(Debug, Clone, PartialEq)]
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    c: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// Cache of a full forward pass over a sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LstmCache {
    steps: Vec<StepCache>,
}

impl LstmCache {
    /// Number of time steps in the cached sequence.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the cached sequence was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Hidden state after each time step (h_1 .. h_T).
    #[must_use]
    pub fn hidden_states(&self) -> Vec<Vec<f32>> {
        self.steps
            .iter()
            .map(|s| {
                s.o.iter()
                    .zip(s.tanh_c.iter())
                    .map(|(&o, &tc)| o * tc)
                    .collect()
            })
            .collect()
    }
}

/// Per-sample passes of an [`Lstm`].
pub trait LstmOracle {
    /// Runs the LSTM over `inputs`, returning the final hidden state and the
    /// cache required for [`LstmOracle::backward`]. An empty sequence yields
    /// the all-zero hidden state.
    ///
    /// # Panics
    ///
    /// Panics if any input vector does not have dimension `input_dim`.
    fn forward(&self, inputs: &[Vec<f32>]) -> (Vec<f32>, LstmCache);

    /// Backpropagates a gradient on the final hidden state through the
    /// cached sequence. Parameter gradients are accumulated in place and the
    /// gradient with respect to each input vector is returned (in sequence
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `grad_final_h` does not have dimension `hidden_dim`.
    fn backward(&mut self, cache: &LstmCache, grad_final_h: &[f32]) -> Vec<Vec<f32>>;
}

impl LstmOracle for Lstm {
    fn forward(&self, inputs: &[Vec<f32>]) -> (Vec<f32>, LstmCache) {
        let mut h = vec![0.0; self.hidden_dim()];
        let mut c = vec![0.0; self.hidden_dim()];
        let mut cache = LstmCache::default();
        for x in inputs {
            assert_eq!(x.len(), self.input_dim(), "lstm input dimension mismatch");
            let step = step(self, x, &h, &c);
            h = step
                .o
                .iter()
                .zip(step.tanh_c.iter())
                .map(|(&o, &tc)| o * tc)
                .collect();
            c = step.c.clone();
            cache.steps.push(step);
        }
        (h, cache)
    }

    fn backward(&mut self, cache: &LstmCache, grad_final_h: &[f32]) -> Vec<Vec<f32>> {
        backward(&mut self.params_mut(), cache, grad_final_h)
    }
}

fn step(lstm: &Lstm, x: &[f32], h_prev: &[f32], c_prev: &[f32]) -> StepCache {
    let h = lstm.hidden_dim();
    let mut z = lstm.w_ih().matvec(x);
    vecops::add_assign(&mut z, &lstm.w_hh().matvec(h_prev));
    vecops::add_assign(&mut z, lstm.bias().row(0));
    let i: Vec<f32> = z[0..h].iter().map(|&v| sigmoid(v)).collect();
    let f: Vec<f32> = z[h..2 * h].iter().map(|&v| sigmoid(v)).collect();
    let g: Vec<f32> = z[2 * h..3 * h].iter().map(|&v| tanh(v)).collect();
    let o: Vec<f32> = z[3 * h..4 * h].iter().map(|&v| sigmoid(v)).collect();
    let c: Vec<f32> = (0..h).map(|j| f[j] * c_prev[j] + i[j] * g[j]).collect();
    let tanh_c: Vec<f32> = c.iter().map(|&v| tanh(v)).collect();
    StepCache {
        x: x.to_vec(),
        h_prev: h_prev.to_vec(),
        c_prev: c_prev.to_vec(),
        i,
        f,
        g,
        o,
        c,
        tanh_c,
    }
}

/// [`LstmOracle::backward`] over an LSTM's parameters in
/// [`Parameterized::params_mut`] order: `w_ih`, `w_hh`, `bias`.
pub(crate) fn backward(
    params: &mut [&mut Param],
    cache: &LstmCache,
    grad_final_h: &[f32],
) -> Vec<Vec<f32>> {
    let [w_ih, w_hh, bias] = params else {
        panic!("an LSTM has an input weight, a hidden weight and a bias");
    };
    let h_dim = w_hh.value.cols();
    assert_eq!(
        grad_final_h.len(),
        h_dim,
        "lstm gradient dimension mismatch"
    );
    let mut dh = grad_final_h.to_vec();
    let mut dc = vec![0.0; h_dim];
    let mut input_grads = vec![Vec::new(); cache.steps.len()];
    for (t, step) in cache.steps.iter().enumerate().rev() {
        // h = o * tanh(c)
        let do_: Vec<f32> = (0..h_dim).map(|j| dh[j] * step.tanh_c[j]).collect();
        for j in 0..h_dim {
            dc[j] += dh[j] * step.o[j] * (1.0 - step.tanh_c[j] * step.tanh_c[j]);
        }
        // c = f * c_prev + i * g
        let di: Vec<f32> = (0..h_dim).map(|j| dc[j] * step.g[j]).collect();
        let dg: Vec<f32> = (0..h_dim).map(|j| dc[j] * step.i[j]).collect();
        let df: Vec<f32> = (0..h_dim).map(|j| dc[j] * step.c_prev[j]).collect();
        let dc_prev: Vec<f32> = (0..h_dim).map(|j| dc[j] * step.f[j]).collect();
        // Pre-activation gradients.
        let mut dz = vec![0.0; 4 * h_dim];
        for j in 0..h_dim {
            dz[j] = di[j] * step.i[j] * (1.0 - step.i[j]);
            dz[h_dim + j] = df[j] * step.f[j] * (1.0 - step.f[j]);
            dz[2 * h_dim + j] = dg[j] * (1.0 - step.g[j] * step.g[j]);
            dz[3 * h_dim + j] = do_[j] * step.o[j] * (1.0 - step.o[j]);
        }
        // Parameter gradients.
        w_ih.grad.add_outer(&dz, &step.x, 1.0);
        w_hh.grad.add_outer(&dz, &step.h_prev, 1.0);
        for (b, &d) in bias.grad.row_mut(0).iter_mut().zip(dz.iter()) {
            *b += d;
        }
        // Gradients flowing to the input and the previous step.
        input_grads[t] = w_ih.value.matvec_transposed(&dz);
        dh = w_hh.value.matvec_transposed(&dz);
        dc = dc_prev;
    }
    input_grads
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_nn::{SequenceBatch, SequenceTrie, TimeMajorBatch};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(11)
    }

    fn sample_sequence(len: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..len)
            .map(|t| {
                (0..dim)
                    .map(|d| ((t * dim + d) as f32) * 0.1 - 0.3)
                    .collect()
            })
            .collect()
    }

    fn time_major(sequences: &[Vec<Vec<f32>>], dim: usize) -> TimeMajorBatch {
        let rows: usize = sequences.iter().map(Vec::len).sum();
        let mut batch = SequenceBatch::with_capacity(dim, rows, sequences.len());
        for sequence in sequences {
            batch.begin_sequence();
            for x in sequence {
                batch.push_row().copy_from_slice(x);
            }
        }
        TimeMajorBatch::from_batch(&batch)
    }

    /// A trie giving every step a fresh key: no prefix is shared, so every
    /// step of every sequence is its own node.
    fn unshared_trie(sequences: &[Vec<Vec<f32>>], dim: usize) -> SequenceTrie {
        let mut trie = SequenceTrie::new(dim);
        let mut key = 0u64;
        for sequence in sequences {
            trie.begin_sequence();
            for x in sequence {
                key += 1;
                trie.push_step(key)
                    .expect("a fresh key makes a new node")
                    .copy_from_slice(x);
            }
        }
        trie
    }

    #[test]
    fn forward_shapes_and_empty_sequence() {
        let lstm = Lstm::new(3, 4, &mut rng());
        assert_eq!(lstm.input_dim(), 3);
        assert_eq!(lstm.hidden_dim(), 4);
        let (h, cache) = lstm.forward(&[]);
        assert_eq!(h, vec![0.0; 4]);
        assert!(cache.is_empty());
        let (h, cache) = lstm.forward(&sample_sequence(5, 3));
        assert_eq!(h.len(), 4);
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.hidden_states().len(), 5);
        assert_eq!(cache.hidden_states()[4], h);
    }

    #[test]
    fn backward_returns_one_gradient_per_input() {
        let mut lstm = Lstm::new(3, 4, &mut rng());
        let seq = sample_sequence(5, 3);
        let (h, cache) = lstm.forward(&seq);
        let grads = lstm.backward(&cache, &vec![1.0; h.len()]);
        assert_eq!(grads.len(), 5);
        assert!(grads.iter().all(|g| g.len() == 3));
        // Backward on an empty cache is a no-op.
        let (_, empty_cache) = lstm.forward(&[]);
        let grads = lstm.backward(&empty_cache, &[0.0; 4]);
        assert!(grads.is_empty());
    }

    #[test]
    fn batched_forward_is_bit_identical_to_single() {
        let lstm = Lstm::new(3, 5, &mut rng());
        // Mixed lengths, duplicates, and an empty sequence.
        let sequences: Vec<Vec<Vec<f32>>> = vec![
            sample_sequence(4, 3),
            sample_sequence(7, 3),
            Vec::new(),
            sample_sequence(1, 3),
            sample_sequence(4, 3),
            sample_sequence(2, 3),
        ];
        let batched = lstm.forward_batch_trie(&unshared_trie(&sequences, 3));
        assert_eq!(batched.len(), sequences.len());
        for (seq, batch_h) in sequences.iter().zip(batched.iter()) {
            let (single_h, _) = lstm.forward(seq);
            assert_eq!(batch_h.len(), single_h.len());
            for (a, b) in batch_h.iter().zip(single_h.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "length {}", seq.len());
            }
        }
    }

    #[test]
    fn trie_forward_is_bit_identical_to_single() {
        let lstm = Lstm::new(3, 5, &mut rng());
        // Sequences with shared prefixes, duplicates, and an empty one.
        let base = sample_sequence(6, 3);
        let mut shorter = base.clone();
        shorter.truncate(3);
        let mut diverging = base.clone();
        diverging[4] = vec![9.0, -9.0, 0.5];
        let sequences: Vec<Vec<Vec<f32>>> = vec![
            base.clone(),
            shorter,
            diverging,
            Vec::new(),
            base.clone(),
            sample_sequence(2, 3),
        ];
        // Key steps by their position in a canonical list of distinct rows,
        // mirroring how callers intern inputs before building the trie.
        let mut distinct: Vec<&Vec<f32>> = Vec::new();
        let mut trie = SequenceTrie::new(3);
        for sequence in &sequences {
            trie.begin_sequence();
            for x in sequence {
                let key = match distinct.iter().position(|d| *d == x) {
                    Some(at) => at,
                    None => {
                        distinct.push(x);
                        distinct.len() - 1
                    }
                } as u64;
                if let Some(row) = trie.push_step(key) {
                    row.copy_from_slice(x);
                }
            }
        }
        assert!(trie.node_count() < sequences.iter().map(Vec::len).sum::<usize>());
        let batched = lstm.forward_batch_trie(&trie);
        assert_eq!(batched.len(), sequences.len());
        for (seq, batch_h) in sequences.iter().zip(batched.iter()) {
            let (single_h, _) = lstm.forward(seq);
            for (a, b) in batch_h.iter().zip(single_h.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "length {}", seq.len());
            }
        }
        // An empty trie yields zero states without touching the weights.
        let empty = SequenceTrie::new(7); // wrong dim: fine while empty
        assert!(lstm.forward_batch_trie(&empty).is_empty());
    }

    #[test]
    fn batched_forward_handles_degenerate_batches() {
        let lstm = Lstm::new(2, 3, &mut rng());
        let forward =
            |sequences: &[Vec<Vec<f32>>]| lstm.forward_batch_trie(&unshared_trie(sequences, 2));
        assert!(forward(&[]).is_empty());
        let all_empty = forward(&[Vec::new(), Vec::new()]);
        assert_eq!(all_empty, vec![vec![0.0; 3], vec![0.0; 3]]);
        let one = forward(&[sample_sequence(5, 2)]);
        let (single, _) = lstm.forward(&sample_sequence(5, 2));
        assert_eq!(one[0], single);
    }

    /// Full numerical gradient check of the LSTM through time: parameters,
    /// and inputs, on a small configuration.
    #[test]
    fn numerical_gradient_check() {
        let mut lstm = Lstm::new(2, 3, &mut rng());
        let seq = sample_sequence(4, 2);
        // Loss = 0.5 * ||h_T||^2 so dL/dh_T = h_T.
        let loss = |lstm: &Lstm, seq: &[Vec<f32>]| -> f32 {
            let (h, _) = lstm.forward(seq);
            h.iter().map(|&v| 0.5 * v * v).sum()
        };
        let (h, cache) = lstm.forward(&seq);
        lstm.zero_grad();
        let input_grads = lstm.backward(&cache, &h);
        let eps = 1e-2_f32;

        // Input gradients.
        for t in 0..seq.len() {
            for d in 0..2 {
                let mut sp = seq.clone();
                sp[t][d] += eps;
                let mut sm = seq.clone();
                sm[t][d] -= eps;
                let num = (loss(&lstm, &sp) - loss(&lstm, &sm)) / (2.0 * eps);
                let ana = input_grads[t][d];
                assert!(
                    (num - ana).abs() < 5e-3,
                    "dx[{t}][{d}]: numerical {num} vs analytic {ana}"
                );
            }
        }

        // A sample of parameter gradients from each matrix.
        let param_checks: Vec<(usize, usize, usize)> = vec![
            (0, 0, 0),
            (0, 5, 1),
            (1, 2, 2),
            (1, 11, 0),
            (2, 0, 3),
            (2, 0, 9),
        ];
        for (which, r, c) in param_checks {
            let orig = lstm.params_mut()[which].value.get(r, c);
            lstm.params_mut()[which].value.set(r, c, orig + eps);
            let lp = loss(&lstm, &seq);
            lstm.params_mut()[which].value.set(r, c, orig - eps);
            let lm = loss(&lstm, &seq);
            lstm.params_mut()[which].value.set(r, c, orig);
            let ana = lstm.params_mut()[which].grad.get(r, c);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 5e-3,
                "param {which} [{r},{c}]: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn batched_train_forward_is_bit_identical_to_single() {
        let lstm = Lstm::new(3, 5, &mut rng());
        let sequences: Vec<Vec<Vec<f32>>> = vec![
            sample_sequence(4, 3),
            sample_sequence(7, 3),
            Vec::new(),
            sample_sequence(1, 3),
            sample_sequence(4, 3),
        ];
        let tm = time_major(&sequences, 3);
        let (finals, cache) = lstm.forward_batch_train(&tm);
        assert_eq!(cache.len(), 7);
        assert!(!cache.is_empty());
        for (seq, batch_h) in sequences.iter().zip(finals.iter()) {
            let (single_h, _) = lstm.forward(seq);
            for (a, b) in batch_h.iter().zip(single_h.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "length {}", seq.len());
            }
        }
        // Degenerate batch: all sequences empty.
        let (finals, cache) = lstm.forward_batch_train(&time_major(&[Vec::new()], 3));
        assert_eq!(finals, vec![vec![0.0; 5]]);
        assert!(cache.is_empty());
    }

    #[test]
    fn batched_backward_is_bit_identical_to_per_sample() {
        let init = Lstm::new(3, 5, &mut rng());
        let mut reference = init.clone();
        let mut batched = init;
        let sequences: Vec<Vec<Vec<f32>>> = vec![
            sample_sequence(4, 3),
            sample_sequence(7, 3),
            Vec::new(),
            sample_sequence(1, 3),
            sample_sequence(4, 3),
            sample_sequence(2, 3),
        ];
        let tm = time_major(&sequences, 3);
        let (finals, cache) = batched.forward_batch_train(&tm);
        // dL/dh = h (loss 0.5||h||^2 per sequence).
        let input_grads = batched.backward_batch(&tm, &cache, &finals);

        for (s, seq) in sequences.iter().enumerate() {
            let (h, sample_cache) = reference.forward(seq);
            let ref_grads = reference.backward(&sample_cache, &h);
            let slot = tm.slot_of(s);
            for (t, ref_grad) in ref_grads.iter().enumerate() {
                for (a, b) in input_grads.row(t, slot).iter().zip(ref_grad.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "sequence {s} step {t}");
                }
            }
        }
        for (pr, pb) in reference
            .params_mut()
            .iter()
            .zip(batched.params_mut().iter())
        {
            for (a, b) in pb.grad.data().iter().zip(pr.grad.data().iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "parameter gradients");
            }
        }
    }
}
