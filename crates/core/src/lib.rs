//! # netsyn-core
//!
//! NetSyn — genetic-algorithm program synthesis with *learned* fitness
//! functions — as described in "Learning Fitness Functions for Machine
//! Programming" (MLSys 2021), together with the evaluation harness that
//! regenerates the paper's tables and figures.
//!
//! The crate wires together the workspace's substrates:
//!
//! * [`netsyn_dsl`] — the list DSL, interpreter and program generators;
//! * [`netsyn_nn`] / [`netsyn_fitness`] — the learned CF / LCS / FP fitness
//!   functions and their training pipeline;
//! * [`netsyn_ga`] — the genetic algorithm with FP-guided mutation and
//!   restricted local neighborhood search;
//! * [`netsyn_baselines`] — DeepCoder, PCCoder, RobustFill and PushGP on the
//!   same DSL and budget accounting.
//!
//! The central type is [`NetSyn`], which implements the shared
//! [`Synthesizer`](netsyn_baselines::Synthesizer) trait. The [`evaluation`]
//! module runs any set of synthesizers over a generated [`TestSuite`] and
//! aggregates the paper's metrics.
//!
//! ## Example
//!
//! ```
//! use netsyn_core::{FitnessChoice, NetSyn, NetSynConfig};
//! use netsyn_baselines::{SynthesisProblem, Synthesizer};
//! use netsyn_dsl::{IoSpec, Program, Value};
//! use netsyn_ga::SearchBudget;
//! use rand::SeedableRng;
//!
//! // Hidden target: keep the positive values and sort them.
//! let target: Program = "FILTER(>0), SORT".parse()?;
//! let spec = IoSpec::from_program(&target, &[
//!     vec![Value::List(vec![3, -1, 7, 0, 2])],
//!     vec![Value::List(vec![-4, 9, 1])],
//!     vec![Value::List(vec![5, 5, -2, 8])],
//! ]);
//!
//! // The oracle configuration needs no trained models.
//! let config = NetSynConfig::small(FitnessChoice::OracleCommonFunctions, 2);
//! let netsyn = NetSyn::new(config, None).with_oracle_target(target);
//! let mut budget = SearchBudget::new(100_000);
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let result = netsyn.synthesize(&SynthesisProblem::new(spec.clone(), 2), &mut budget, &mut rng);
//! assert!(result.is_success());
//! assert!(spec.is_satisfied_by(&result.solution.unwrap()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
pub mod evaluation;
mod models;
pub mod portfolio;
pub mod report;
mod suite;
mod synthesizer;

pub use config::{FitnessChoice, NetSynConfig};
pub use evaluation::{evaluate_method, MethodEvaluation, MethodSpec, MethodSummary, RunRecord};
pub use models::{BundleTrainingConfig, ModelBundle};
pub use portfolio::{race, PortfolioOutcome, PortfolioSynthesizer, StrategyReport};
pub use report::Table;
pub use suite::{SuiteConfig, TestSuite};
pub use synthesizer::NetSyn;

/// Convenience re-exports for downstream binaries and examples.
pub mod prelude {
    pub use crate::{
        evaluate_method, BundleTrainingConfig, FitnessChoice, MethodEvaluation, MethodSpec,
        ModelBundle, NetSyn, NetSynConfig, PortfolioSynthesizer, SuiteConfig, Table, TestSuite,
    };
    pub use netsyn_baselines::{
        DeepCoder, PcCoder, PushGp, RobustFill, SynthesisProblem, SynthesisResult, Synthesizer,
        UniformGuidance,
    };
    pub use netsyn_dsl::{Function, IoSpec, Program, ProgramKind, SynthesisTask, Value};
    pub use netsyn_fitness::{
        ClosenessMetric, EditDistanceFitness, FitnessCache, FitnessFunction,
        LearnedProbabilityModel, OracleFitness, ProbabilityMap,
    };
    pub use netsyn_ga::{
        GaConfig, GeneticEngine, MutationMode, NeighborhoodStrategy, SearchBudget,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetSyn>();
        assert_send_sync::<ModelBundle>();
        assert_send_sync::<TestSuite>();
        assert_send_sync::<MethodEvaluation>();
    }
}
