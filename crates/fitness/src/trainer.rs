//! Training loops for the neural fitness functions and their evaluation
//! (confusion matrices for CF/LCS, accuracy-over-epochs for FP — Figure 7).

use crate::dataset::FitnessSample;
use crate::encoding::{
    encode_candidate, CandidateEncoding, EncodingConfig, SpecEncoding, SpecEncodingMap,
};
use crate::model::{FitnessNet, FitnessNetConfig};
use netsyn_nn::loss::{argmax, binary_cross_entropy_with_logits, softmax_cross_entropy};
use netsyn_nn::metrics::thresholded_accuracy;
use netsyn_nn::{Adam, ConfusionMatrix, Parameterized};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Which fitness quantity a model predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FitnessModelKind {
    /// Multiclass classifier over the number of common functions.
    CommonFunctions,
    /// Multiclass classifier over the longest common subsequence.
    LongestCommonSubsequence,
    /// Multilabel (sigmoid) predictor of the per-function probability map.
    FunctionProbability,
}

impl std::fmt::Display for FitnessModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitnessModelKind::CommonFunctions => write!(f, "CF"),
            FitnessModelKind::LongestCommonSubsequence => write!(f, "LCS"),
            FitnessModelKind::FunctionProbability => write!(f, "FP"),
        }
    }
}

/// Hyper-parameters of the training loop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Network hyper-parameters (the output dimension is overridden to match
    /// the model kind and program length).
    pub net: FitnessNetConfig,
    /// Token-encoding configuration.
    pub encoding: EncodingConfig,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Number of samples per gradient step.
    pub batch_size: usize,
    /// Global gradient-norm clip applied before each step.
    pub grad_clip: f32,
    /// Fraction of the corpus held out for validation.
    pub validation_fraction: f64,
}

impl TrainerConfig {
    /// A compact configuration that trains in seconds-to-minutes on a CPU.
    #[must_use]
    pub fn small() -> Self {
        TrainerConfig {
            net: FitnessNetConfig::small(1),
            encoding: EncodingConfig::new(),
            epochs: 5,
            learning_rate: 2e-3,
            batch_size: 16,
            grad_clip: 5.0,
            validation_fraction: 0.2,
        }
    }
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig::small()
    }
}

/// Loss / accuracy statistics of one training epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch number, starting at 1.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Validation accuracy at the end of the epoch (classification accuracy
    /// for CF/LCS, thresholded multi-label accuracy for FP).
    pub validation_accuracy: f64,
}

/// Full training history plus final validation artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Per-epoch statistics (Figure 7(c) plots `validation_accuracy`).
    pub epochs: Vec<EpochStats>,
    /// Final confusion matrix on the validation split (Figures 7(a)/(b)).
    /// `None` for the FP model.
    pub confusion: Option<ConfusionMatrix>,
}

/// A trained fitness network together with its metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedFitnessModel {
    /// What the model predicts.
    pub kind: FitnessModelKind,
    /// Program length the model was trained for.
    pub program_length: usize,
    /// The trained network.
    pub net: FitnessNet,
    /// Training history and validation artifacts.
    pub report: TrainingReport,
}

impl TrainedFitnessModel {
    /// Serializes the model to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn save_json<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a model previously written by [`TrainedFitnessModel::save_json`].
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be read or parsed, or if the
    /// network's embedding tables disagree with its encoding
    /// ([`FitnessNet::check_vocab`]) — a corrupt or hand-edited checkpoint.
    pub fn load_json<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let model: Self = serde_json::from_str(&json).map_err(std::io::Error::other)?;
        model.check_vocab()?;
        Ok(model)
    }

    /// [`FitnessNet::check_vocab`] as an [`std::io::ErrorKind::InvalidData`]
    /// error, for loaders that reject inconsistent checkpoints.
    ///
    /// # Errors
    ///
    /// Returns an error naming the model kind and the mismatched table.
    pub fn check_vocab(&self) -> std::io::Result<()> {
        self.net.check_vocab().map_err(|err| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} model: {err}", self.kind),
            )
        })
    }
}

/// The message of the trainer's `expect`s: the net is built from the very
/// encoding its samples are encoded with, so every token is in range.
const IN_RANGE: &str = "samples encoded with the net's own EncodingConfig are in range";

fn loss_and_grad(
    kind: FitnessModelKind,
    logits: &[f32],
    sample: &FitnessSample,
) -> (f32, Vec<f32>) {
    match kind {
        FitnessModelKind::FunctionProbability => {
            binary_cross_entropy_with_logits(logits, &sample.fp_target)
        }
        _ => softmax_cross_entropy(logits, classification_label(kind, sample)),
    }
}

/// Encodes the samples at `chunk` as the net consumes them: the memoized
/// spec encoding plus the candidate's traces (none for the FP head).
fn encode_chunk(
    kind: FitnessModelKind,
    samples: &[FitnessSample],
    chunk: &[usize],
    encoding: &EncodingConfig,
    spec_encodings: &SpecEncodingMap,
) -> Vec<(SpecEncoding, CandidateEncoding)> {
    chunk
        .iter()
        .map(|&idx| {
            let sample = &samples[idx];
            let candidate = match kind {
                FitnessModelKind::FunctionProbability => CandidateEncoding::spec_only(),
                _ => encode_candidate(encoding, &sample.spec, &sample.candidate),
            };
            (
                spec_encodings.get_or_encode(encoding, &sample.spec),
                candidate,
            )
        })
        .collect()
}

fn as_pairs(
    encodings: &[(SpecEncoding, CandidateEncoding)],
) -> Vec<(&SpecEncoding, &CandidateEncoding)> {
    encodings.iter().map(|(s, c)| (s, c)).collect()
}

/// The kernels under one training minibatch: runs `net` forward over
/// `batch`, asks `grad_of(i, logits)` for sample `i`'s loss gradient (in
/// batch order) and accumulates the parameter gradients.
pub type MinibatchStep = fn(
    net: &mut FitnessNet,
    batch: &[(&SpecEncoding, &CandidateEncoding)],
    grad_of: &mut dyn FnMut(usize, &[f32]) -> Vec<f32>,
);

/// The kernels under one validation chunk: the logits of every sample of
/// `batch`, in order.
pub type LogitSweep =
    fn(net: &FitnessNet, batch: &[(&SpecEncoding, &CandidateEncoding)]) -> Vec<Vec<f32>>;

/// The shipped [`MinibatchStep`]: the whole chunk through
/// [`FitnessNet::forward_batch_train`] and [`FitnessNet::backward_batch`].
fn batched_step(
    net: &mut FitnessNet,
    batch: &[(&SpecEncoding, &CandidateEncoding)],
    grad_of: &mut dyn FnMut(usize, &[f32]) -> Vec<f32>,
) {
    let (logits, cache) = net.forward_batch_train(batch).expect(IN_RANGE);
    let grads: Vec<Vec<f32>> = logits
        .iter()
        .enumerate()
        .map(|(i, row)| grad_of(i, row))
        .collect();
    net.backward_batch(&cache, &grads);
}

/// The shipped [`LogitSweep`]: the kernels and peak memory of a training
/// minibatch, with the gradient cache dropped.
fn batched_logits(
    net: &FitnessNet,
    batch: &[(&SpecEncoding, &CandidateEncoding)],
) -> Vec<Vec<f32>> {
    net.forward_batch_train(batch).expect(IN_RANGE).0
}

/// The logits of the samples at `indices`, in order: `encode` turns each
/// chunk of `chunk_size` indices into network inputs, `sweep` runs them.
fn sample_logits(
    net: &FitnessNet,
    indices: &[usize],
    chunk_size: usize,
    sweep: LogitSweep,
    encode: impl Fn(&[usize]) -> Vec<(SpecEncoding, CandidateEncoding)>,
) -> Vec<Vec<f32>> {
    let mut logits = Vec::with_capacity(indices.len());
    for chunk in indices.chunks(chunk_size) {
        logits.extend(sweep(net, &as_pairs(&encode(chunk))));
    }
    logits
}

fn classification_label(kind: FitnessModelKind, sample: &FitnessSample) -> usize {
    match kind {
        FitnessModelKind::CommonFunctions => sample.cf,
        FitnessModelKind::LongestCommonSubsequence => sample.lcs,
        FitnessModelKind::FunctionProbability => 0,
    }
}

/// Trains a fitness model of the given kind on `samples`.
///
/// For CF/LCS the network is a `(program_length + 1)`-way classifier over the
/// candidate + trace encoding; for FP it is a 41-way sigmoid predictor over
/// the specification encoding only.
///
/// Each minibatch runs through the batched SIMD training kernels
/// ([`FitnessNet::forward_batch_train`] / [`FitnessNet::backward_batch`]),
/// which are bit-identical to the per-sample path — the returned model is
/// byte-for-byte the one the per-sample reference trainer of the dev-only
/// `netsyn-oracle` crate produces from the same inputs and seed. The
/// per-epoch validation passes run the same kernels in minibatches of
/// `config.batch_size`.
pub fn train_fitness_model<R: Rng + ?Sized>(
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
        batched_step,
        batched_logits,
    )
}

/// [`train_fitness_model`] with the kernels under each minibatch (`step`)
/// and each validation chunk (`sweep`) supplied by the caller. The loop —
/// split, shuffles, losses, clipping, optimizer steps, accuracy and
/// confusion matrix — is the same, so two kernel sets that compute the
/// same bits train the same model; `netsyn-oracle` passes its per-sample
/// kernels here to certify the batched ones.
pub fn train_fitness_model_with<R: Rng + ?Sized>(
    kind: FitnessModelKind,
    samples: &[FitnessSample],
    program_length: usize,
    config: &TrainerConfig,
    rng: &mut R,
    step: MinibatchStep,
    sweep: LogitSweep,
) -> TrainedFitnessModel {
    let output_dim = match kind {
        FitnessModelKind::FunctionProbability => config.encoding.function_vocab_size(),
        _ => program_length + 1,
    };
    let mut net_config = config.net;
    net_config.output_dim = output_dim;
    let mut net = FitnessNet::new(net_config, config.encoding, rng);
    let mut optimizer = Adam::new(config.learning_rate);

    let mut indices: Vec<usize> = (0..samples.len()).collect();
    indices.shuffle(rng);
    let validation_len = ((samples.len() as f64) * config.validation_fraction).round() as usize;
    let (validation_idx, train_idx) = indices.split_at(validation_len.min(samples.len()));

    let mut epochs = Vec::with_capacity(config.epochs);
    let mut order: Vec<usize> = train_idx.to_vec();
    // Samples sharing a specification (every candidate of one target, in
    // every epoch, in training and validation sweeps alike) reuse one
    // encoding: specs are encoded once per distinct spec per training run,
    // not once per sample per epoch. Encoding is deterministic, so the
    // training trajectory is unchanged.
    let spec_encodings = SpecEncodingMap::new();
    let batch_size = config.batch_size.max(1);
    let encode =
        |chunk: &[usize]| encode_chunk(kind, samples, chunk, &config.encoding, &spec_encodings);
    let validation_logits =
        |net: &FitnessNet| sample_logits(net, validation_idx, batch_size, sweep, encode);
    // The last epoch's validation logits come from the final net, so the
    // confusion matrix reuses them.
    let mut final_logits = None;
    for epoch in 1..=config.epochs {
        order.shuffle(rng);
        let mut total_loss = 0.0;
        for chunk in order.chunks(batch_size) {
            step(&mut net, &as_pairs(&encode(chunk)), &mut |i, logits| {
                let (loss, grad) = loss_and_grad(kind, logits, &samples[chunk[i]]);
                total_loss += f64::from(loss);
                grad
            });
            net.clip_grad_norm(config.grad_clip);
            optimizer.step(&mut net.params_mut());
            net.zero_grad();
        }
        let train_loss = if order.is_empty() {
            0.0
        } else {
            total_loss / order.len() as f64
        };
        let logits = validation_logits(&net);
        epochs.push(EpochStats {
            epoch,
            train_loss,
            validation_accuracy: accuracy(kind, samples, validation_idx, &logits),
        });
        final_logits = Some(logits);
    }

    let confusion = (kind != FitnessModelKind::FunctionProbability).then(|| {
        let logits = final_logits.unwrap_or_else(|| validation_logits(&net));
        confusion_matrix(kind, samples, validation_idx, &logits, program_length)
    });

    TrainedFitnessModel {
        kind,
        program_length,
        net,
        report: TrainingReport { epochs, confusion },
    }
}

/// Validation accuracy of `logits`, the rows of the samples at `indices`:
/// classification accuracy for CF/LCS, thresholded multi-label accuracy for
/// FP.
fn accuracy(
    kind: FitnessModelKind,
    samples: &[FitnessSample],
    indices: &[usize],
    logits: &[Vec<f32>],
) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (&idx, row) in indices.iter().zip(logits) {
        let sample = &samples[idx];
        total += match kind {
            FitnessModelKind::FunctionProbability => {
                let probs: Vec<f32> = row
                    .iter()
                    .map(|&z| netsyn_nn::activation::sigmoid(z))
                    .collect();
                thresholded_accuracy(&probs, &sample.fp_target, 0.5)
            }
            _ => f64::from(u8::from(argmax(row) == classification_label(kind, sample))),
        };
    }
    total / indices.len() as f64
}

/// Builds the confusion matrix of a CF/LCS model from `logits`, the rows of
/// the samples at `indices` (Figure 7(a)/(b)).
fn confusion_matrix(
    kind: FitnessModelKind,
    samples: &[FitnessSample],
    indices: &[usize],
    logits: &[Vec<f32>],
    program_length: usize,
) -> ConfusionMatrix {
    let mut matrix = ConfusionMatrix::new(program_length + 1);
    for (&idx, row) in indices.iter().zip(logits) {
        let predicted = argmax(row).min(program_length);
        let actual = classification_label(kind, &samples[idx]).min(program_length);
        matrix.record(actual, predicted);
    }
    matrix
}

/// Evaluates a trained CF/LCS model on an arbitrary set of samples, returning
/// its confusion matrix. The samples run through the batched kernels in
/// minibatches of [`TrainerConfig::small`]'s size.
///
/// # Panics
///
/// Panics if `encoding` produces a token outside the model's vocabularies
/// (pass the encoding the model was trained with).
#[must_use]
pub fn evaluate_confusion(
    model: &TrainedFitnessModel,
    samples: &[FitnessSample],
    encoding: &EncodingConfig,
) -> ConfusionMatrix {
    let indices: Vec<usize> = (0..samples.len()).collect();
    let spec_encodings = SpecEncodingMap::new();
    let logits = sample_logits(
        &model.net,
        &indices,
        TrainerConfig::small().batch_size,
        batched_logits,
        |chunk| encode_chunk(model.kind, samples, chunk, encoding, &spec_encodings),
    );
    confusion_matrix(model.kind, samples, &indices, &logits, model.program_length)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_dataset, generate_fp_dataset, BalanceMetric, DatasetConfig};
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
    fn trains_a_cf_model_end_to_end() {
        let mut r = rng(1);
        let samples = generate_dataset(
            &tiny_dataset_config(3),
            BalanceMetric::CommonFunctions,
            &mut r,
        )
        .unwrap();
        let model = train_fitness_model(
            FitnessModelKind::CommonFunctions,
            &samples,
            3,
            &tiny_trainer_config(),
            &mut r,
        );
        assert_eq!(model.kind, FitnessModelKind::CommonFunctions);
        assert_eq!(model.net.output_dim(), 4);
        assert_eq!(model.report.epochs.len(), 2);
        assert!(model.report.epochs.iter().all(|e| e.train_loss.is_finite()));
        let confusion = model.report.confusion.as_ref().unwrap();
        assert_eq!(confusion.classes(), 4);
        assert!(confusion.total() > 0);
    }

    #[test]
    fn trains_an_fp_model_end_to_end() {
        let mut r = rng(2);
        let samples = generate_fp_dataset(&tiny_dataset_config(3), &mut r).unwrap();
        let model = train_fitness_model(
            FitnessModelKind::FunctionProbability,
            &samples,
            3,
            &tiny_trainer_config(),
            &mut r,
        );
        assert_eq!(model.net.output_dim(), 41);
        assert!(model.report.confusion.is_none());
        assert!(model
            .report
            .epochs
            .iter()
            .all(|e| (0.0..=1.0).contains(&e.validation_accuracy)));
        // Even after a couple of tiny epochs the model should not be worse
        // than chance on the sparse multi-label targets.
        let final_acc = model.report.epochs.last().unwrap().validation_accuracy;
        assert!(final_acc > 0.4, "final FP accuracy {final_acc}");
    }

    #[test]
    fn training_loss_decreases_over_epochs() {
        let mut r = rng(3);
        let samples = generate_dataset(
            &tiny_dataset_config(3),
            BalanceMetric::CommonFunctions,
            &mut r,
        )
        .unwrap();
        let mut config = tiny_trainer_config();
        config.epochs = 6;
        config.learning_rate = 1e-2;
        config.batch_size = 4;
        let model = train_fitness_model(
            FitnessModelKind::CommonFunctions,
            &samples,
            3,
            &config,
            &mut r,
        );
        let first = model.report.epochs.first().unwrap().train_loss;
        let last = model.report.epochs.last().unwrap().train_loss;
        assert!(
            last < first,
            "training loss should decrease: {first} -> {last}"
        );
    }

    #[test]
    fn spec_map_encodes_once_per_distinct_spec_across_epochs() {
        // The counting pattern behind the trainer's hoisted spec encoding:
        // epoch sweeps over shuffled samples (many samples share one target
        // program's spec) must encode each distinct spec exactly once in
        // total, not once per sample per epoch.
        let mut r = rng(8);
        let samples = generate_dataset(
            &tiny_dataset_config(3),
            BalanceMetric::CommonFunctions,
            &mut r,
        )
        .unwrap();
        let map = SpecEncodingMap::new();
        let encoding = EncodingConfig::new();
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _epoch in 0..3 {
            order.shuffle(&mut r);
            for &idx in &order {
                let _ = map.get_or_encode(&encoding, &samples[idx].spec);
            }
        }
        let distinct: std::collections::HashSet<_> = samples.iter().map(|s| &s.spec).collect();
        assert_eq!(map.encode_count(), distinct.len());
        assert!(
            distinct.len() < samples.len(),
            "samples of one target share a spec"
        );
    }

    #[test]
    fn training_is_deterministic_with_the_spec_memo() {
        // Memoized spec encodings are bit-identical to re-encoding, so two
        // identical training runs produce identical models and reports.
        let make = |seed: u64| {
            let mut r = rng(seed);
            let samples = generate_dataset(
                &tiny_dataset_config(3),
                BalanceMetric::CommonFunctions,
                &mut r,
            )
            .unwrap();
            train_fitness_model(
                FitnessModelKind::CommonFunctions,
                &samples,
                3,
                &tiny_trainer_config(),
                &mut r,
            )
        };
        assert_eq!(make(9), make(9));
    }

    #[test]
    fn model_save_and_load_round_trip() {
        let mut r = rng(4);
        let samples = generate_fp_dataset(&tiny_dataset_config(3), &mut r).unwrap();
        let mut config = tiny_trainer_config();
        config.epochs = 1;
        let model = train_fitness_model(
            FitnessModelKind::FunctionProbability,
            &samples,
            3,
            &config,
            &mut r,
        );
        let dir = std::env::temp_dir().join("netsyn_fitness_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fp_model.json");
        model.save_json(&path).unwrap();
        let loaded = TrainedFitnessModel::load_json(&path).unwrap();
        assert_eq!(loaded, model);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_json_rejects_tables_that_disagree_with_the_encoding() {
        // A checkpoint whose net was built for the list domain (41 function
        // tokens) but whose encoding says string domain (18): every batched
        // pass over it would fail, so loading does.
        let mut r = rng(6);
        let samples = generate_fp_dataset(&tiny_dataset_config(3), &mut r).unwrap();
        let mut config = tiny_trainer_config();
        config.epochs = 1;
        let model = train_fitness_model(
            FitnessModelKind::FunctionProbability,
            &samples,
            3,
            &config,
            &mut r,
        );
        let json = serde_json::to_string(&model).unwrap();
        let relabeled = json.replace(r#""domain":"List""#, r#""domain":"Str""#);
        assert_ne!(json, relabeled);
        let dir = std::env::temp_dir().join("netsyn_fitness_relabeled_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fp_model.json");
        std::fs::write(&path, relabeled).unwrap();
        let err = TrainedFitnessModel::load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("FP model: could not deserialize model: the function embedding table has 41 rows but the encoding has 18 tokens"),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evaluate_confusion_on_fresh_samples() {
        let mut r = rng(5);
        let samples = generate_dataset(
            &tiny_dataset_config(3),
            BalanceMetric::LongestCommonSubsequence,
            &mut r,
        )
        .unwrap();
        let mut config = tiny_trainer_config();
        config.epochs = 1;
        let model = train_fitness_model(
            FitnessModelKind::LongestCommonSubsequence,
            &samples,
            3,
            &config,
            &mut r,
        );
        let fresh = generate_dataset(
            &tiny_dataset_config(3),
            BalanceMetric::LongestCommonSubsequence,
            &mut r,
        )
        .unwrap();
        let confusion = evaluate_confusion(&model, &fresh, &config.encoding);
        assert_eq!(confusion.total() as usize, fresh.len());
    }
}
