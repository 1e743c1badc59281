//! A single-layer LSTM with full backpropagation through time.
//!
//! The paper's fitness-function architecture (Figure 2) encodes each variable
//! -length component (inputs, outputs, execution-trace values, per-example
//! hidden vectors) with LSTM encoders whose final hidden state summarizes the
//! sequence. This module provides exactly that, batched: inference over a
//! prefix-sharing [`SequenceTrie`], and a training forward/backward pair
//! (full backpropagation through time) over a time-major minibatch.

use crate::batch::{SequenceTrie, TimeMajorBatch};
use crate::param::{Param, Parameterized};
use crate::simd;
use crate::tensor::{vecops, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Cached activations of one batched LSTM time step (rows = sequences still
/// active at that step, in slot order of the driving [`TimeMajorBatch`]).
#[derive(Debug, Clone, PartialEq)]
struct BatchStep {
    /// Post-activation gates in PyTorch block order: `i` at `[0, h)`, `f`
    /// at `[h, 2h)`, `g` at `[2h, 3h)`, `o` at `[3h, 4h)`.
    gates: Matrix,
    c: Matrix,
    tanh_c: Matrix,
    h: Matrix,
}

/// Cache of a batched training forward pass ([`Lstm::forward_batch_train`])
/// over a [`TimeMajorBatch`], consumed by [`Lstm::backward_batch`].
///
/// Step `t`'s matrices have `batch.active_rows(t)` rows addressed by slot;
/// a slot's previous hidden/cell state is row `slot` of step `t - 1` (the
/// active prefix only ever shrinks with `t`, so the row exists).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LstmBatchCache {
    steps: Vec<BatchStep>,
}

impl LstmBatchCache {
    /// Number of time steps in the cached batch (its longest sequence).
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the cached batch had no steps.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// A single-layer LSTM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lstm {
    w_ih: Param,
    w_hh: Param,
    bias: Param,
    input_dim: usize,
    hidden_dim: usize,
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized weights. The forget-gate bias
    /// is initialized to 1.0, a standard trick that eases learning of
    /// long-range dependencies.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(input_dim: usize, hidden_dim: usize, rng: &mut R) -> Self {
        let mut bias = Matrix::zeros(1, 4 * hidden_dim);
        for j in hidden_dim..2 * hidden_dim {
            bias.set(0, j, 1.0);
        }
        Lstm {
            w_ih: Param::new(Matrix::xavier(4 * hidden_dim, input_dim, rng)),
            w_hh: Param::new(Matrix::xavier(4 * hidden_dim, hidden_dim, rng)),
            bias: Param::new(bias),
            input_dim,
            hidden_dim,
        }
    }

    /// Input dimension.
    #[must_use]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimension.
    #[must_use]
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Input-to-gates weight, `4 * hidden_dim x input_dim`, gate blocks in
    /// PyTorch order `i, f, g, o`.
    #[must_use]
    pub fn w_ih(&self) -> &Matrix {
        &self.w_ih.value
    }

    /// Hidden-to-gates weight, `4 * hidden_dim x hidden_dim`.
    #[must_use]
    pub fn w_hh(&self) -> &Matrix {
        &self.w_hh.value
    }

    /// Gate bias, a `1 x 4 * hidden_dim` row vector.
    #[must_use]
    pub fn bias(&self) -> &Matrix {
        &self.bias.value
    }

    /// The batched gate pass of the inference path: given the
    /// pre-activations `zx` and `zh` for `active` rows, updates `c_mat`
    /// (holding each row's previous cell state) to the new cell state and
    /// writes the new hidden state into `h_mat`.
    ///
    /// Split in two element-wise sweeps so each can be parallelized across
    /// rows: first `c = f * c_prev + i * g` in place, then
    /// `h = o * tanh(c)`. Both sweeps run through the lane-vectorized
    /// [`simd::lstm_gate_c`]/[`simd::lstm_gate_h`] kernels, whose
    /// transcendentals are bitwise libm-compatible and whose op order is
    /// `z = (x W_ih^T + h W_hh^T) + bias` — exactly the per-sample step — so
    /// results stay bit-identical however the work is split or vectorized.
    fn batched_gate_pass(
        &self,
        zx: &Matrix,
        zh: &Matrix,
        c_mat: &mut Matrix,
        h_mat: &mut Matrix,
        active: usize,
    ) {
        let h_dim = self.hidden_dim;
        let bias = self.bias.value.row(0);
        // The sigmoid/tanh evaluations dominate large batches; spread
        // rows over the worker pool once the batch is big enough to
        // amortize the dispatch. Chunks are over-decomposed (more chunks
        // than pool threads) so the work-stealing scheduler balances them;
        // each row's gate expressions run in a fixed order, so the split is
        // bit-identity-preserving whatever thread takes which chunk.
        const GATE_PAR_THRESHOLD: usize = 1 << 13;
        let tasks = if active * h_dim >= GATE_PAR_THRESHOLD {
            (rayon::current_num_threads() * rayon::TASKS_PER_THREAD)
                .min(active)
                .max(1)
        } else {
            1
        };
        if tasks <= 1 {
            // Single-worker fast path: both sweeps per row while its gate
            // rows are hot.
            for slot in 0..active {
                let zx_row = zx.row(slot);
                let zh_row = zh.row(slot);
                simd::lstm_gate_c(zx_row, zh_row, bias, c_mat.row_mut(slot));
                simd::lstm_gate_h(zx_row, zh_row, bias, c_mat.row(slot), h_mat.row_mut(slot));
            }
            return;
        }
        let rows_per_chunk = active.div_ceil(tasks).max(1);
        {
            use rayon::prelude::ParallelSliceMut;
            c_mat
                .data_mut()
                .par_chunks_mut(rows_per_chunk * h_dim)
                .enumerate()
                .for_each(|(chunk_index, chunk)| {
                    let first_slot = chunk_index * rows_per_chunk;
                    for (local, c_row) in chunk.chunks_mut(h_dim).enumerate() {
                        let slot = first_slot + local;
                        simd::lstm_gate_c(zx.row(slot), zh.row(slot), bias, c_row);
                    }
                });
        }
        let c_ref = &*c_mat;
        {
            use rayon::prelude::ParallelSliceMut;
            h_mat
                .data_mut()
                .par_chunks_mut(rows_per_chunk * h_dim)
                .enumerate()
                .for_each(|(chunk_index, chunk)| {
                    let first_slot = chunk_index * rows_per_chunk;
                    for (local, h_row) in chunk.chunks_mut(h_dim).enumerate() {
                        let slot = first_slot + local;
                        simd::lstm_gate_h(zx.row(slot), zh.row(slot), bias, c_ref.row(slot), h_row);
                    }
                });
        }
    }

    /// Batched inference over a prefix-sharing [`SequenceTrie`]: every
    /// distinct sequence *prefix* is stepped exactly once, and sequences
    /// read their final hidden state off the trie node their last step
    /// landed on.
    ///
    /// An LSTM state is a function of the consumed prefix alone, and every
    /// node's step uses the same matmul row semantics and gate expressions
    /// as the per-sample step, so results are bit-identical to running each
    /// sequence on its own — the trie only removes duplicated work (~30% of
    /// the fitness network's trace-value encoding steps in a GA population
    /// batch). Each depth's input rows feed the input projection straight
    /// from the trie's flat storage. Empty sequences yield the all-zero
    /// hidden state.
    ///
    /// # Panics
    ///
    /// Panics if the trie's row dimension is not `input_dim` (tries with no
    /// nodes are accepted regardless of their dimension).
    #[must_use]
    pub fn forward_batch_trie(&self, trie: &SequenceTrie) -> Vec<Vec<f32>> {
        let h_dim = self.hidden_dim;
        let mut finals = vec![vec![0.0; h_dim]; trie.num_sequences()];
        if trie.node_count() == 0 {
            return finals;
        }
        assert_eq!(trie.dim(), self.input_dim, "lstm input dimension mismatch");

        // Memoized transposed weights, shared with every other batched path
        // (see `Param::transposed`).
        let w_ih_t = self.w_ih.transposed();
        let w_hh_t = self.w_hh.transposed();

        // Hidden states of every level are kept (terminals read them);
        // cell states only feed the next level.
        let mut level_h: Vec<Matrix> = Vec::with_capacity(trie.levels().len());
        let mut prev_c = Matrix::zeros(0, h_dim);
        let mut zx = Matrix::zeros(0, 0);
        let mut zh = Matrix::zeros(0, 0);
        for (depth, level) in trie.levels().iter().enumerate() {
            let nodes = level.parents.len();
            // Gather each node's previous (h, c) from its parent; depth 0
            // starts from the zero state.
            let mut h_prev = Matrix::zeros(nodes, h_dim);
            let mut c_mat = Matrix::zeros(nodes, h_dim);
            if depth > 0 {
                let parent_h = &level_h[depth - 1];
                for (slot, &parent) in level.parents.iter().enumerate() {
                    h_prev.row_mut(slot).copy_from_slice(parent_h.row(parent));
                    c_mat.row_mut(slot).copy_from_slice(prev_c.row(parent));
                }
            }
            w_ih_t.matmul_slab_into(&level.rows, nodes, self.input_dim, &mut zx);
            if depth == 0 {
                // Every depth-0 node starts from the zero state, so its zh
                // row is the same vector: compute it once with the exact
                // per-sequence expression and broadcast.
                let zh_root = self.w_hh.value.matvec(&vec![0.0; h_dim]);
                zh = Matrix::zeros(nodes, 4 * h_dim);
                for slot in 0..nodes {
                    zh.row_mut(slot).copy_from_slice(&zh_root);
                }
            } else {
                h_prev.matmul_into(&w_hh_t, &mut zh);
            }
            // The gate pass overwrites every row of its h output; reuse the
            // gathered h_prev buffer for it.
            let mut h_mat = h_prev;
            self.batched_gate_pass(&zx, &zh, &mut c_mat, &mut h_mat, nodes);
            level_h.push(h_mat);
            prev_c = c_mat;
        }
        for (sequence, terminal) in trie.terminals().iter().enumerate() {
            if let Some((depth, slot)) = *terminal {
                finals[sequence] = level_h[depth].row(slot).to_vec();
            }
        }
        finals
    }

    /// Batched training forward pass over a [`TimeMajorBatch`]: returns
    /// every sequence's final hidden state (in input order) plus the cache
    /// [`Lstm::backward_batch`] needs.
    ///
    /// Per sequence, the finals — and every cached gate/cell activation —
    /// are bit-identical to the per-sample step loop: each step computes
    /// `z = (x W_ih^T + h_prev W_hh^T) + bias` with the blocked batched
    /// matmul (same ascending-`k` accumulation as `matvec`), then applies
    /// the same lane-vectorized sigmoid/tanh sweeps and element-wise cell
    /// update expressions as the scalar step.
    ///
    /// # Panics
    ///
    /// Panics if the batch's row dimension is not `input_dim` (empty batches
    /// are accepted regardless of their dimension).
    #[must_use]
    pub fn forward_batch_train(&self, batch: &TimeMajorBatch) -> (Vec<Vec<f32>>, LstmBatchCache) {
        let h_dim = self.hidden_dim;
        let mut finals = vec![vec![0.0; h_dim]; batch.num_sequences()];
        let mut cache = LstmBatchCache::default();
        if batch.max_len() == 0 {
            return (finals, cache);
        }
        assert_eq!(batch.dim(), self.input_dim, "lstm input dimension mismatch");

        let w_ih_t = self.w_ih.transposed();
        let w_hh_t = self.w_hh.transposed();
        let bias = self.bias.value.row(0);

        let mut zh = Matrix::zeros(0, 0);
        for t in 0..batch.max_len() {
            let active = batch.active_rows(t);
            // z = (zx + zh) + bias, built in place in the gates matrix —
            // the exact op order of the per-sample step.
            let mut gates = Matrix::zeros(0, 0);
            w_ih_t.matmul_slab_into(batch.step_rows(t), active, self.input_dim, &mut gates);
            if t == 0 {
                // The zero initial hidden state contributes `W_hh * 0`,
                // which the per-sample step computes literally.
                let zh_zero = self.w_hh.value.matvec(&vec![0.0; h_dim]);
                for r in 0..active {
                    vecops::add_assign(gates.row_mut(r), &zh_zero);
                }
            } else {
                let h_prev = &cache.steps[t - 1].h;
                w_hh_t.matmul_slab_into(&h_prev.data()[..active * h_dim], active, h_dim, &mut zh);
                for r in 0..active {
                    vecops::add_assign(gates.row_mut(r), zh.row(r));
                }
            }
            gates.add_row_broadcast(bias);
            // Gate activations, block-wise per row: the same lane kernels
            // the inference paths certify bit-identical to the scalar
            // sigmoid/tanh.
            for r in 0..active {
                let row = gates.row_mut(r);
                simd::vsigmoid_slice(&mut row[0..2 * h_dim]);
                simd::vtanh_slice(&mut row[2 * h_dim..3 * h_dim]);
                simd::vsigmoid_slice(&mut row[3 * h_dim..4 * h_dim]);
            }
            // c = f * c_prev + i * g, then tanh(c), then h = o * tanh(c) —
            // element-wise, with the scalar step's expressions verbatim.
            let mut c = Matrix::zeros(active, h_dim);
            for r in 0..active {
                let row = gates.row(r);
                let c_row = c.row_mut(r);
                if t == 0 {
                    for j in 0..h_dim {
                        c_row[j] = row[h_dim + j] * 0.0 + row[j] * row[2 * h_dim + j];
                    }
                } else {
                    let c_prev = cache.steps[t - 1].c.row(r);
                    for j in 0..h_dim {
                        c_row[j] = row[h_dim + j] * c_prev[j] + row[j] * row[2 * h_dim + j];
                    }
                }
            }
            let mut tanh_c = c.clone();
            for r in 0..active {
                simd::vtanh_slice(tanh_c.row_mut(r));
            }
            let mut h = Matrix::zeros(active, h_dim);
            for r in 0..active {
                let h_row = h.row_mut(r);
                let o_row = &gates.row(r)[3 * h_dim..];
                let tc_row = tanh_c.row(r);
                for j in 0..h_dim {
                    h_row[j] = o_row[j] * tc_row[j];
                }
            }
            cache.steps.push(BatchStep {
                gates,
                c,
                tanh_c,
                h,
            });
        }
        // Read each sequence's final hidden state off the last step it was
        // active at.
        for slot in 0..batch.active_rows(0) {
            let len = batch.slot_len(slot);
            finals[batch.sequence_for_slot(slot)] = cache.steps[len - 1].h.row(slot).to_vec();
        }
        (finals, cache)
    }

    /// Batched backward pass through a cached [`Lstm::forward_batch_train`]:
    /// `grad_finals[s]` is the gradient on sequence `s`'s final hidden
    /// state. Parameter gradients are accumulated in place; the returned
    /// batch holds the gradient with respect to every input row, in the
    /// same time-major layout as `batch` (read rows via
    /// `TimeMajorBatch::row(t, slot_of(seq))`).
    ///
    /// Gradients are **bit-identical** to looping the per-sample BPTT over
    /// the sequences in input order. The time recursion runs batched
    /// (t-descending, all active rows at once, each row evaluating the
    /// per-sample expressions verbatim), producing the same per-step gate
    /// pre-activation gradients `dz`; input and hidden-state gradients
    /// come from one blocked GEMM per step over the `dz` slab
    /// ([`Matrix::matmul_slab_to`] — the same dense `k`-ascending chain as
    /// the per-sample `matvec_transposed`). The parameter accumulation is
    /// **deferred and replayed in the reference order** — sequences in
    /// input order, steps descending — by laying the per-step `dz` / input
    /// / previous-hidden rows out flat in exactly that visit order and
    /// accumulating each weight with a single
    /// [`Matrix::add_outer_slab`] GEMM, whose per-element `r`-ascending
    /// chain is the identical op sequence the per-sample
    /// `add_outer`/`axpy` calls produce.
    ///
    /// # Panics
    ///
    /// Panics if the cache does not match the batch or `grad_finals` has
    /// the wrong shape.
    pub fn backward_batch(
        &mut self,
        batch: &TimeMajorBatch,
        cache: &LstmBatchCache,
        grad_finals: &[Vec<f32>],
    ) -> TimeMajorBatch {
        let h_dim = self.hidden_dim;
        assert_eq!(
            grad_finals.len(),
            batch.num_sequences(),
            "lstm batched gradient count mismatch"
        );
        assert_eq!(
            cache.steps.len(),
            batch.max_len(),
            "lstm batched cache does not match batch"
        );
        let mut input_grads = batch.zeros_like(batch.dim());
        let max_len = batch.max_len();
        if max_len == 0 {
            return input_grads;
        }
        let top_active = batch.active_rows(0);

        // Phase 1 — the batched time recursion. dh/dc rows live at their
        // slot index; a slot joins the recursion at the step its sequence
        // ends (t = len - 1) with dh = grad_final and dc = 0.
        let mut dh = vec![0.0_f32; top_active * h_dim];
        let mut dc = vec![0.0_f32; top_active * h_dim];
        let mut dz_steps: Vec<Matrix> = (0..max_len)
            .map(|t| Matrix::zeros(batch.active_rows(t), 4 * h_dim))
            .collect();
        let mut prev_active = 0;
        for t in (0..max_len).rev() {
            let active = batch.active_rows(t);
            for slot in prev_active..active {
                let grad = &grad_finals[batch.sequence_for_slot(slot)];
                assert_eq!(grad.len(), h_dim, "lstm gradient dimension mismatch");
                dh[slot * h_dim..(slot + 1) * h_dim].copy_from_slice(grad);
                // dc rows start (and were left) zeroed.
            }
            prev_active = active;
            let step = &cache.steps[t];
            let dz_mat = &mut dz_steps[t];
            for slot in 0..active {
                let gates = step.gates.row(slot);
                let tanh_c = step.tanh_c.row(slot);
                let dh_row = &dh[slot * h_dim..(slot + 1) * h_dim];
                let dz = dz_mat.row_mut(slot);
                let dc_row = &mut dc[slot * h_dim..(slot + 1) * h_dim];
                for j in 0..h_dim {
                    let i_ = gates[j];
                    let f_ = gates[h_dim + j];
                    let g_ = gates[2 * h_dim + j];
                    let o_ = gates[3 * h_dim + j];
                    let tc = tanh_c[j];
                    let c_prev = if t == 0 {
                        0.0
                    } else {
                        cache.steps[t - 1].c.row(slot)[j]
                    };
                    // The per-sample expressions, verbatim.
                    let do_ = dh_row[j] * tc;
                    let dcj = dc_row[j] + dh_row[j] * o_ * (1.0 - tc * tc);
                    dz[j] = (dcj * g_) * i_ * (1.0 - i_);
                    dz[h_dim + j] = (dcj * c_prev) * f_ * (1.0 - f_);
                    dz[2 * h_dim + j] = (dcj * i_) * (1.0 - g_ * g_);
                    dz[3 * h_dim + j] = do_ * o_ * (1.0 - o_);
                    // dc flows to the previous step: dc_prev = dc * f.
                    dc_row[j] = dcj * f_;
                }
            }
            // Gradients flowing to this step's inputs and previous hidden
            // states: one blocked GEMM per destination over the step's dz
            // slab, straight into the time-major gradient storage and the
            // dh recursion buffer. Per row these are the dense
            // `k`-ascending chains of the per-sample transposed matvec.
            self.w_ih.value.matmul_slab_to(
                dz_mat.data(),
                active,
                4 * h_dim,
                input_grads.step_rows_mut(t),
            );
            self.w_hh.value.matmul_slab_to(
                dz_mat.data(),
                active,
                4 * h_dim,
                &mut dh[..active * h_dim],
            );
        }

        // Phase 2 — deferred parameter accumulation, replayed in the
        // per-sample reference order: sequences in input order, steps
        // descending. The per-step rows are laid out flat in exactly that
        // visit order, so one accumulating GEMM per parameter walks the
        // same per-element op chain as the per-sample `add_outer` calls.
        let total_rows: usize = (0..max_len).map(|t| batch.active_rows(t)).sum();
        let mut dz_flat = Vec::with_capacity(total_rows * 4 * h_dim);
        let mut x_flat = Vec::with_capacity(total_rows * batch.dim());
        let mut h_flat = Vec::with_capacity(total_rows * h_dim);
        for seq in 0..batch.num_sequences() {
            let slot = batch.slot_of(seq);
            let len = batch.slot_len(slot);
            for t in (0..len).rev() {
                dz_flat.extend_from_slice(dz_steps[t].row(slot));
                x_flat.extend_from_slice(batch.row(t, slot));
                if t == 0 {
                    // The step-0 previous hidden state is the zero vector.
                    h_flat.resize(h_flat.len() + h_dim, 0.0);
                } else {
                    h_flat.extend_from_slice(cache.steps[t - 1].h.row(slot));
                }
            }
        }
        self.w_ih.grad.add_outer_slab(&dz_flat, &x_flat, total_rows);
        self.w_hh.grad.add_outer_slab(&dz_flat, &h_flat, total_rows);
        let bias_row = self.bias.grad.row_mut(0);
        for dz in dz_flat.chunks_exact(4 * h_dim) {
            for (b, &d) in bias_row.iter_mut().zip(dz.iter()) {
                *b += d;
            }
        }
        input_grads
    }
}

impl Parameterized for Lstm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_ih, &mut self.w_hh, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SequenceBatch;
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

    /// Final hidden states of `sequences` through the batched training
    /// forward.
    fn finals(lstm: &Lstm, sequences: &[Vec<Vec<f32>>]) -> Vec<Vec<f32>> {
        lstm.forward_batch_train(&time_major(sequences, lstm.input_dim()))
            .0
    }

    #[test]
    fn hidden_state_is_bounded_by_one() {
        // h = o * tanh(c) with o in (0,1) and |tanh| < 1.
        let lstm = Lstm::new(2, 6, &mut rng());
        let big_inputs: Vec<Vec<f32>> = (0..20).map(|_| vec![5.0, -5.0]).collect();
        let h = &finals(&lstm, &[big_inputs])[0];
        assert!(h.iter().all(|&v| v.abs() < 1.0));
    }

    #[test]
    fn forward_is_deterministic_and_order_sensitive() {
        let lstm = Lstm::new(3, 4, &mut rng());
        let seq = sample_sequence(4, 3);
        let mut reversed = seq.clone();
        reversed.reverse();
        let h = finals(&lstm, &[seq.clone(), seq, reversed]);
        assert_eq!(h[0], h[1]);
        assert_ne!(h[0], h[2], "an LSTM should be sensitive to sequence order");
    }

    #[test]
    fn batched_backward_numerical_gradient_check() {
        let mut lstm = Lstm::new(2, 3, &mut rng());
        let sequences: Vec<Vec<Vec<f32>>> =
            vec![sample_sequence(3, 2), sample_sequence(1, 2), Vec::new()];
        let tm = time_major(&sequences, 2);
        // Loss = sum over sequences of 0.5 * ||h_final||^2.
        let loss = |lstm: &Lstm, sequences: &[Vec<Vec<f32>>]| -> f32 {
            finals(lstm, sequences)
                .iter()
                .map(|h| h.iter().map(|&v| 0.5 * v * v).sum::<f32>())
                .sum()
        };
        let (finals, cache) = lstm.forward_batch_train(&tm);
        lstm.zero_grad();
        let input_grads = lstm.backward_batch(&tm, &cache, &finals);
        let eps = 1e-2_f32;

        for (s, seq) in sequences.iter().enumerate() {
            let slot = tm.slot_of(s);
            for t in 0..seq.len() {
                for d in 0..2 {
                    let mut sp = sequences.clone();
                    sp[s][t][d] += eps;
                    let mut sm = sequences.clone();
                    sm[s][t][d] -= eps;
                    let num = (loss(&lstm, &sp) - loss(&lstm, &sm)) / (2.0 * eps);
                    let ana = input_grads.row(t, slot)[d];
                    assert!(
                        (num - ana).abs() < 5e-3,
                        "dx[{s}][{t}][{d}]: numerical {num} vs analytic {ana}"
                    );
                }
            }
        }
        let param_checks: Vec<(usize, usize, usize)> =
            vec![(0, 0, 0), (0, 5, 1), (1, 2, 2), (1, 11, 0), (2, 0, 3)];
        for (which, r, c) in param_checks {
            let orig = lstm.params_mut()[which].value.get(r, c);
            lstm.params_mut()[which].value.set(r, c, orig + eps);
            lstm.params_mut()[which].invalidate_transpose();
            let lp = loss(&lstm, &sequences);
            lstm.params_mut()[which].value.set(r, c, orig - eps);
            lstm.params_mut()[which].invalidate_transpose();
            let lm = loss(&lstm, &sequences);
            lstm.params_mut()[which].value.set(r, c, orig);
            lstm.params_mut()[which].invalidate_transpose();
            let ana = lstm.params_mut()[which].grad.get(r, c);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - ana).abs() < 5e-3,
                "param {which} [{r},{c}]: numerical {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let lstm = Lstm::new(3, 2, &mut rng());
        let json = serde_json::to_string(&lstm).unwrap();
        let back: Lstm = serde_json::from_str(&json).unwrap();
        assert_eq!(back, lstm);
    }
}
