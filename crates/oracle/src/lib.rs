//! # netsyn-oracle
//!
//! The per-sample reference passes of the NetSyn fitness network, kept out
//! of the shipped crates. `netsyn-nn` and `netsyn-fitness` ship one batched
//! path per network operation — a whole GA generation, or a whole training
//! minibatch, per call. Each of those paths promises results
//! **bit-identical** to running the samples one at a time; this crate holds
//! the one-at-a-time code that promise is checked against, and the tests
//! that check it:
//!
//! * [`MatrixOracle`] — the naive product, the transposed matvec and the
//!   rank-one update the batched GEMMs replay element for element;
//! * [`LinearOracle`], [`MlpOracle`], [`EmbeddingOracle`], [`LstmOracle`]
//!   and [`SequenceEncoderOracle`] — per-sample forward and backward passes
//!   of every layer, as extension traits on the shipped types;
//! * [`FitnessNetOracle`] — the whole Figure 2 network, one candidate at a
//!   time;
//! * [`train_fitness_model_reference`] — the shipped trainer's loop driven
//!   by per-sample kernels, which must train a byte-identical model.
//!
//! The oracle reads the layers through their read-only accessors for
//! forward passes and through [`netsyn_nn::Parameterized::params_mut`] —
//! the stable parameter order `FitnessNet::weight_fingerprint` hashes — for
//! gradient accumulation, so the shipped types expose no mutable internals
//! for it.
//!
//! It is a crate rather than a cargo feature of the shipped crates: a
//! feature would be one more build configuration for every lint, doc and
//! test step, and `netsyn-fitness`'s own integration tests could only
//! reach feature-gated code through `required-features`, which skips them
//! silently when the feature is off. Crates name `netsyn-oracle` only under
//! `[dev-dependencies]`; `tests/dev_only.rs` enforces that.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod embedding;
mod encoder;
mod linear;
mod lstm;
mod mlp;
mod model;
mod tensor;
mod trainer;

pub use embedding::EmbeddingOracle;
pub use encoder::{SequenceEncoderCache, SequenceEncoderOracle};
pub use linear::LinearOracle;
pub use lstm::{LstmCache, LstmOracle};
pub use mlp::{MlpCache, MlpOracle};
pub use model::{FitnessNetCache, FitnessNetOracle};
pub use tensor::MatrixOracle;
pub use trainer::train_fitness_model_reference;
