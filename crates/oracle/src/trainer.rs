//! The per-sample reference trainer.

use crate::model::FitnessNetOracle;
use netsyn_fitness::dataset::FitnessSample;
use netsyn_fitness::trainer::{
    train_fitness_model_with, FitnessModelKind, TrainedFitnessModel, TrainerConfig,
};
use netsyn_fitness::{CandidateEncoding, FitnessNet, SpecEncoding};
use rand::Rng;

/// The message of the oracle's `expect`s: the trainer encodes its samples
/// with the net's own encoding, so every token is in range.
const IN_RANGE: &str = "samples encoded with the net's own EncodingConfig are in range";

/// The scalar per-sample training loop the shipped
/// [`netsyn_fitness::trainer::train_fitness_model`] is certified against:
/// the same loop ([`train_fitness_model_with`]) with forward, loss and
/// backward — and validation — run one sample at a time in minibatch order
/// on the per-sample [`FitnessNetOracle`] passes. The batched trainer must
/// produce a byte-identical model.
pub fn train_fitness_model_reference<R: Rng + ?Sized>(
    kind: FitnessModelKind,
    samples: &[FitnessSample],
    program_length: usize,
    config: &TrainerConfig,
    rng: &mut R,
) -> TrainedFitnessModel {
    train_fitness_model_with(
        kind,
        samples,
        program_length,
        config,
        rng,
        per_sample_step,
        per_sample_logits,
    )
}

/// The per-sample minibatch step: forward, loss gradient and backward for
/// each sample in turn.
fn per_sample_step(
    net: &mut FitnessNet,
    batch: &[(&SpecEncoding, &CandidateEncoding)],
    grad_of: &mut dyn FnMut(usize, &[f32]) -> Vec<f32>,
) {
    for (i, (spec, candidate)) in batch.iter().enumerate() {
        let (logits, cache) = net.forward(spec, candidate).expect(IN_RANGE);
        let grad = grad_of(i, &logits);
        net.backward(&cache, &grad);
    }
}

/// The per-sample validation sweep.
fn per_sample_logits(
    net: &FitnessNet,
    batch: &[(&SpecEncoding, &CandidateEncoding)],
) -> Vec<Vec<f32>> {
    batch
        .iter()
        .map(|(spec, candidate)| net.predict(spec, candidate).expect(IN_RANGE))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsyn_fitness::dataset::{
        generate_dataset, generate_fp_dataset, BalanceMetric, DatasetConfig,
    };
    use netsyn_fitness::trainer::train_fitness_model;
    use netsyn_fitness::FitnessNetConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn tiny_trainer_config() -> TrainerConfig {
        let mut config = TrainerConfig::small();
        config.net = FitnessNetConfig {
            value_embed_dim: 4,
            encoder_hidden_dim: 6,
            function_embed_dim: 4,
            trace_hidden_dim: 6,
            example_hidden_dim: 8,
            head_hidden_dim: 8,
            output_dim: 1,
        };
        config.epochs = 2;
        config.batch_size = 8;
        config
    }

    fn tiny_dataset_config(length: usize) -> DatasetConfig {
        let mut config = DatasetConfig::for_length(length);
        config.num_target_programs = 8;
        config.examples_per_program = 2;
        config
    }

    #[test]
    fn batched_trainer_matches_reference_byte_for_byte() {
        // The batched minibatch path must reproduce the scalar per-sample
        // trajectory exactly — same weights, same loss curve, same report —
        // for both a classification head (CF, real traces) and the
        // trace-less FP head. JSON compares every f32 bit-faithfully.
        for fp in [false, true] {
            let make = |batched: bool| {
                let mut r = rng(11);
                let (kind, samples) = if fp {
                    (
                        FitnessModelKind::FunctionProbability,
                        generate_fp_dataset(&tiny_dataset_config(3), &mut r).unwrap(),
                    )
                } else {
                    (
                        FitnessModelKind::CommonFunctions,
                        generate_dataset(
                            &tiny_dataset_config(3),
                            BalanceMetric::CommonFunctions,
                            &mut r,
                        )
                        .unwrap(),
                    )
                };
                if batched {
                    train_fitness_model(kind, &samples, 3, &tiny_trainer_config(), &mut r)
                } else {
                    train_fitness_model_reference(kind, &samples, 3, &tiny_trainer_config(), &mut r)
                }
            };
            let batched = make(true);
            let reference = make(false);
            assert_eq!(
                serde_json::to_string(&batched).unwrap(),
                serde_json::to_string(&reference).unwrap(),
                "batched and reference trainers diverged (fp = {fp})"
            );
        }
    }
}
