//! # netsyn-nn
//!
//! A minimal, dependency-free neural-network substrate used to *learn* the
//! fitness functions of the NetSyn reproduction ("Learning Fitness Functions
//! for Machine Programming", MLSys 2021).
//!
//! The paper trains its fitness networks with TensorFlow; no deep-learning
//! framework is available in this reproduction's dependency budget, so this
//! crate implements the required pieces from scratch:
//!
//! * [`Matrix`] — a dense row-major `f32` matrix with the handful of BLAS-like
//!   operations the layers need;
//! * [`Linear`], [`Embedding`], [`Lstm`], [`Mlp`], [`SequenceEncoder`] —
//!   layers with hand-derived backward passes (verified by numerical gradient
//!   checks in the test-suite);
//! * [`loss`] — softmax cross-entropy and binary cross-entropy;
//! * [`Sgd`] / [`Adam`] — optimizers over [`Param`] collections;
//! * [`ConfusionMatrix`] and accuracy metrics for Figure 7 of the paper.
//!
//! Everything is deterministic given an explicit RNG and serializable with
//! serde, so trained fitness models can be checkpointed to JSON and reloaded.
//!
//! ## Batched inference
//!
//! The genetic algorithm *scores whole populations per generation*, so
//! every layer ships one batched path per operation. Inference runs on:
//!
//! * [`Matrix::matmul`] / [`Matrix::matmul_into`] — a cache-blocked matrix
//!   product, parallelized across output rows for large operands, with a
//!   reusable-output-buffer variant for hot loops;
//! * [`Linear::forward_batch`] and [`Mlp::forward_batch`] — one GEMM per
//!   layer over a `batch x dim` matrix instead of `batch` GEMVs;
//! * [`SequenceTrie`] and [`Lstm::forward_batch_trie`] — prefix-sharing
//!   batched inference, the one LSTM inference kernel: an LSTM state
//!   depends only on the consumed prefix, so sequences sharing a prefix
//!   (interned trace values in a GA population share ~30% of their steps)
//!   compute it exactly once, and each depth's input rows feed the blocked
//!   matmul straight from the trie's flat storage.
//!   [`SequenceEncoder::forward_batch`] builds such a trie keyed by token;
//! * [`hash::FxHasher`] — the fast interning hasher behind the trie edge
//!   and token-sequence maps;
//! * [`simd`] — the 8-lane kernels under all of the above: a column-lane
//!   matmul and bitwise libm-compatible `vexp`/`vtanh`/`vsigmoid` sweeps
//!   (runtime-dispatched to AVX2+FMA, `NETSYN_SIMD=0` falls back to the
//!   scalar loops);
//! * [`Param::transposed`] — the batched paths consume weights transposed;
//!   the transpose is memoized on the parameter (interior mutability, cold
//!   on `Clone`, ignored by `PartialEq`/serde) and recomputed only after a
//!   weight update ([`Sgd::step`]/[`Adam::step`] invalidate it; any other
//!   in-place mutation of [`Param::value`] must call
//!   [`Param::invalidate_transpose`]).
//!
//! The batched paths are **bit-identical** to per-sample evaluation: the
//! accumulation order over the inner dimension is the same in `matmul` and
//! `matvec`, every gate uses the same scalar expression, and prefix sharing
//! only removes duplicated work. The per-sample reference passes live in
//! the dev-only `netsyn-oracle` crate, whose tests assert this per layer
//! and end-to-end with `==` on the bits.
//!
//! ## Batched training
//!
//! The trainer drives whole minibatches through batched backward passes —
//! [`Linear::backward_batch`], [`Mlp::backward_batch`],
//! [`Lstm::backward_batch`] and [`SequenceEncoder::backward_batch`], fed by
//! the matching `forward_batch_train` cache types ([`MlpBatchCache`],
//! [`LstmBatchCache`], [`SequenceEncoderBatchCache`]) over the time-major
//! [`SequenceBatch`] → [`TimeMajorBatch`] layout, where all rows of time
//! step `t` are one contiguous slab and the still-active sequences are a
//! contiguous prefix of it — under the same contract: **gradients are
//! bit-identical to looping the per-sample backward over the batch in input
//! order.** Three design rules make that hold:
//!
//! * Input-gradient rows come from one GEMM per step/layer
//!   ([`Matrix::matmul_slab_to`]) whose strictly `k`-ascending, unfused
//!   accumulation is exactly the dense per-sample transposed-matvec chain.
//! * Weight gradients accumulate through [`Matrix::add_outer_slab`] — a
//!   whole batch of outer products in one blocked GEMM whose per-element
//!   `r`-ascending chain replays the per-sample rank-one updates. The LSTM
//!   defers its per-(sequence, step) contributions and lays them out flat
//!   in the reference visit order (sequences in input order, steps
//!   descending) before the single accumulating GEMM.
//! * Contributions to *different* parameters commute freely, so batched
//!   stages may interleave updates across parameters — only the op order
//!   *within* each parameter element matters, and that is preserved.
//!
//! Unlike the batched forward (which consumes the memoized
//! [`Param::transposed`] weight), the backward GEMMs read each weight in
//! its native layout — `grad_in = grad_out × W` needs `W` itself — so no
//! transpose is computed or invalidated on the gradient path; the memo
//! stays warm across a whole forward/backward/step minibatch cycle until
//! the optimizer actually changes the weights.
//!
//! First-layer/gradient-only loops can use
//! [`Linear::backward_batch_params_only`] to skip dead input-gradient work.
//! The oracle's per-layer `batched_backward_is_bit_identical_to_per_sample`
//! tests compare every gradient bit under both `NETSYN_SIMD` modes, and the
//! fitness trainer pins byte-identical checkpoints end-to-end.
//!
//! ## Why column-lane SIMD preserves the bit-identity contract
//!
//! Vectorization usually changes float results by reassociating
//! reductions; this crate's kernels are designed so it cannot:
//!
//! * The matmul kernel assigns each **output column** to a SIMD lane and
//!   broadcasts `a[i][k]` across the lane, so every output element still
//!   accumulates its products over `k` in strictly ascending order with
//!   separate mul/add roundings (no FMA). The lanes partition *independent*
//!   accumulations instead of splitting one accumulation — per element it
//!   is the scalar op sequence, verbatim.
//! * The activation sweeps need `exp`/`tanh` values equal to libm's, so
//!   [`simd::scalar`] ports the host libm's `expf`/`expm1f`/`tanhf`
//!   bit-for-bit (validated exhaustively over all 2^32 inputs by
//!   `simd_validate`, cross-checked at startup, and re-verified on boundary
//!   sets plus >10^6 seeded samples in the test-suite). The lane versions
//!   apply the same per-element operations structure-of-arrays, with the
//!   fdlibm branch ladders if-converted into fully 8-wide mask/select
//!   vector ops (every lane evaluates every arm, masks pick the scalar
//!   path's result) — same values, no reassociation.
//!
//! ## Example
//!
//! ```
//! use netsyn_nn::{Activation, Adam, Matrix, Mlp, Parameterized};
//! use netsyn_nn::loss::softmax_cross_entropy;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let mut model = Mlp::new(&[4, 16, 3], Activation::Relu, &mut rng);
//! let mut optimizer = Adam::new(1e-2);
//!
//! // One training step on a minibatch of one (input, class) pair.
//! let x = Matrix::from_vec(1, 4, vec![0.1, -0.2, 0.3, 0.4]);
//! let (logits, cache) = model.forward_batch_train(&x);
//! let (loss, grad) = softmax_cross_entropy(logits.row(0), 2);
//! model.backward_batch(&cache, &Matrix::from_vec(1, 3, grad));
//! optimizer.step(&mut model.params_mut());
//! model.zero_grad();
//! assert!(loss.is_finite());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(rust_2018_idioms)]

pub mod activation;
mod batch;
mod embedding;
mod encoder;
mod error;
pub mod hash;
mod linear;
pub mod loss;
mod lstm;
pub mod metrics;
mod mlp;
mod optim;
mod param;
pub mod simd;
pub(crate) mod sync_select;
mod tensor;

pub use activation::Activation;
pub use batch::{SequenceBatch, SequenceTrie, TimeMajorBatch};
pub use embedding::Embedding;
pub use encoder::{SequenceEncoder, SequenceEncoderBatchCache};
pub use error::NnError;
pub use hash::{FxHashMap, FxHasher};
pub use linear::Linear;
pub use lstm::{Lstm, LstmBatchCache};
pub use metrics::ConfusionMatrix;
pub use mlp::{Mlp, MlpBatchCache};
pub use optim::{Adam, Sgd};
pub use param::{Param, Parameterized};
pub use tensor::{vecops, Matrix};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matrix>();
        assert_send_sync::<Linear>();
        assert_send_sync::<Lstm>();
        assert_send_sync::<Mlp>();
        assert_send_sync::<SequenceEncoder>();
        assert_send_sync::<Adam>();
        assert_send_sync::<ConfusionMatrix>();
    }
}
