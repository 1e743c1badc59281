//! Bundles of trained fitness models (CF, LCS, FP) for a program length,
//! with training and disk caching helpers.

use netsyn_dsl::{DomainId, DslError};
use netsyn_fitness::dataset::{
    generate_dataset, generate_fp_dataset, BalanceMetric, DatasetConfig,
};
use netsyn_fitness::trainer::{train_fitness_model, FitnessModelKind, TrainerConfig};
use netsyn_fitness::TrainedFitnessModel;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The three trained fitness networks NetSyn can use for one program length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelBundle {
    /// Program length the bundle was trained for.
    pub program_length: usize,
    /// Common-functions classifier.
    pub cf: TrainedFitnessModel,
    /// Longest-common-subsequence classifier.
    pub lcs: TrainedFitnessModel,
    /// Function-probability (FP) model.
    pub fp: TrainedFitnessModel,
}

/// Configuration of bundle training: corpus size and trainer settings shared
/// by the three models.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BundleTrainingConfig {
    /// Corpus generation parameters.
    pub dataset: DatasetConfig,
    /// Training-loop parameters.
    pub trainer: TrainerConfig,
}

impl BundleTrainingConfig {
    /// A small configuration that trains a usable bundle in roughly a minute
    /// of CPU time for length-5 programs. The paper uses 4.2 million training
    /// programs; see EXPERIMENTS.md for the scaling discussion.
    #[must_use]
    pub fn small(program_length: usize) -> Self {
        let mut dataset = DatasetConfig::for_length(program_length);
        dataset.num_target_programs = 150;
        dataset.examples_per_program = 5;
        let mut trainer = TrainerConfig::small();
        trainer.epochs = 4;
        BundleTrainingConfig { dataset, trainer }
    }

    /// A tiny configuration for unit tests (seconds of CPU time).
    #[must_use]
    pub fn tiny(program_length: usize) -> Self {
        let mut config = BundleTrainingConfig::small(program_length);
        config.dataset.num_target_programs = 10;
        config.dataset.examples_per_program = 2;
        config.trainer.epochs = 1;
        config.trainer.net = netsyn_fitness::FitnessNetConfig {
            value_embed_dim: 4,
            encoder_hidden_dim: 6,
            function_embed_dim: 4,
            trace_hidden_dim: 6,
            example_hidden_dim: 8,
            head_hidden_dim: 8,
            output_dim: 1,
        };
        config
    }

    /// Retargets corpus generation and token encoding at `domain`, keeping
    /// the two in sync (a bundle trained on one domain's vocabulary is only
    /// meaningful for specs and candidates from that same domain).
    #[must_use]
    pub fn for_domain(mut self, domain: DomainId) -> Self {
        self.dataset.generator.domain = domain;
        self.dataset.generator.input_types = domain.default_input_types().to_vec();
        self.trainer.encoding = netsyn_fitness::EncodingConfig::for_domain(domain);
        self
    }
}

impl ModelBundle {
    /// Trains CF, LCS and FP models from freshly generated corpora.
    ///
    /// # Errors
    ///
    /// Returns [`DslError::GenerationExhausted`] if corpus generation fails.
    pub fn train<R: Rng + ?Sized>(
        config: &BundleTrainingConfig,
        rng: &mut R,
    ) -> Result<Self, DslError> {
        let length = config.dataset.program_length;
        let cf_samples = generate_dataset(&config.dataset, BalanceMetric::CommonFunctions, rng)?;
        let cf = train_fitness_model(
            FitnessModelKind::CommonFunctions,
            &cf_samples,
            length,
            &config.trainer,
            rng,
        );
        let lcs_samples = generate_dataset(
            &config.dataset,
            BalanceMetric::LongestCommonSubsequence,
            rng,
        )?;
        let lcs = train_fitness_model(
            FitnessModelKind::LongestCommonSubsequence,
            &lcs_samples,
            length,
            &config.trainer,
            rng,
        );
        let mut fp_dataset = config.dataset.clone();
        // The FP corpus needs only one sample per target; reuse the same
        // number of targets as the classifiers for comparable coverage.
        fp_dataset.num_target_programs = config.dataset.num_target_programs
            * (config.dataset.program_length + 1)
            * config.dataset.candidates_per_value;
        let fp_samples = generate_fp_dataset(&fp_dataset, rng)?;
        let fp = train_fitness_model(
            FitnessModelKind::FunctionProbability,
            &fp_samples,
            length,
            &config.trainer,
            rng,
        );
        Ok(ModelBundle {
            program_length: length,
            cf,
            lcs,
            fp,
        })
    }

    /// Serializes the bundle to a JSON file.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn save_json<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a bundle previously written with [`ModelBundle::save_json`].
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be read or parsed, or if any
    /// model's embedding tables disagree with its encoding
    /// ([`TrainedFitnessModel::check_vocab`]).
    pub fn load_json<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let bundle: Self = serde_json::from_str(&json).map_err(std::io::Error::other)?;
        for model in [&bundle.cf, &bundle.lcs, &bundle.fp] {
            model.check_vocab()?;
        }
        Ok(bundle)
    }

    /// Loads the bundle from `path` if it exists and [`ModelBundle::load_json`]
    /// accepts it, otherwise trains a new one with `config` and saves it to
    /// `path`.
    ///
    /// A cached file that no longer parses (for example one written by an
    /// older build with a different bundle schema) or whose models fail the
    /// vocabulary check is treated as stale: the bundle is retrained from
    /// `rng` and the file is overwritten, so neither wedges a cache
    /// directory.
    ///
    /// # Errors
    ///
    /// Returns an error if training or file IO fails.
    pub fn load_or_train<P: AsRef<Path>, R: Rng + ?Sized>(
        path: P,
        config: &BundleTrainingConfig,
        rng: &mut R,
    ) -> std::io::Result<Self> {
        let path = path.as_ref();
        if path.exists() {
            match Self::load_json(path) {
                Ok(bundle) => return Ok(bundle),
                Err(err) => {
                    eprintln!(
                        "netsyn: cached model bundle {} is unreadable ({err}); retraining",
                        path.display()
                    );
                }
            }
        }
        let bundle = Self::train(config, rng).map_err(std::io::Error::other)?;
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        bundle.save_json(path)?;
        Ok(bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn trains_a_tiny_bundle() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let bundle = ModelBundle::train(&BundleTrainingConfig::tiny(3), &mut rng).unwrap();
        assert_eq!(bundle.program_length, 3);
        assert_eq!(bundle.cf.kind, FitnessModelKind::CommonFunctions);
        assert_eq!(bundle.lcs.kind, FitnessModelKind::LongestCommonSubsequence);
        assert_eq!(bundle.fp.kind, FitnessModelKind::FunctionProbability);
        assert_eq!(bundle.cf.net.output_dim(), 4);
        assert_eq!(bundle.fp.net.output_dim(), 41);
    }

    #[test]
    fn load_or_train_round_trips_through_disk() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let dir = std::env::temp_dir().join("netsyn_core_bundle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle_len3.json");
        std::fs::remove_file(&path).ok();
        let config = BundleTrainingConfig::tiny(3);
        let trained = ModelBundle::load_or_train(&path, &config, &mut rng).unwrap();
        assert!(path.exists());
        let loaded = ModelBundle::load_or_train(&path, &config, &mut rng).unwrap();
        // Network weights are f32 and round-trip exactly through JSON; the
        // f64 training-history statistics may lose their last digit, so the
        // comparison is on the models themselves.
        assert_eq!(trained.program_length, loaded.program_length);
        assert_eq!(trained.cf.net, loaded.cf.net);
        assert_eq!(trained.lcs.net, loaded.lcs.net);
        assert_eq!(trained.fp.net, loaded.fp.net);
        assert_eq!(trained.fp.kind, loaded.fp.kind);
        std::fs::remove_file(&path).ok();
    }

    /// Drops the last row of the first function-embedding table in a
    /// serialized bundle (the CF net's value and gradient matrices), so the
    /// table is one row short of the net's `EncodingConfig`.
    fn drop_last_function_row(json: &str) -> String {
        let table = json.find(r#""function_embedding":"#).unwrap();
        let (mut out, mut rest) = (json[..table].to_string(), &json[table..]);
        for _matrix in ["value", "grad"] {
            let at = rest.find(r#"{"rows":"#).unwrap();
            out.push_str(&rest[..at]);
            let end = at + rest[at..].find(']').unwrap();
            // `{"rows":R,"cols":C,"data":[x,x,...`
            let (shape, data) = rest[at..end].split_once(r#","data":["#).unwrap();
            let (rows, cols) = shape[r#"{"rows":"#.len()..]
                .split_once(r#","cols":"#)
                .unwrap();
            let (rows, cols): (usize, usize) = (rows.parse().unwrap(), cols.parse().unwrap());
            let kept: Vec<&str> = data.split(',').take((rows - 1) * cols).collect();
            let rows = rows - 1;
            out.push_str(&format!(
                r#"{{"rows":{rows},"cols":{cols},"data":[{}"#,
                kept.join(",")
            ));
            rest = &rest[end..];
        }
        out.push_str(rest);
        out
    }

    #[test]
    fn a_bundle_with_a_short_function_table_is_stale() {
        // A corrupt or hand-edited checkpoint: the CF net's function
        // embedding has one row fewer than its encoding's vocabulary. Loaded
        // as is, the batched network rejects the whole batch of any
        // candidate using the missing operator.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let config = BundleTrainingConfig::tiny(2);
        let dir = std::env::temp_dir().join("netsyn_core_short_table_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle_len2.json");
        let bundle = ModelBundle::train(&config, &mut rng).unwrap();
        let json = serde_json::to_string(&bundle).unwrap();
        std::fs::write(&path, drop_last_function_row(&json)).unwrap();

        let err = ModelBundle::load_json(&path).unwrap_err().to_string();
        assert!(
            err.contains(
                "CF model: could not deserialize model: the function embedding table has 40 rows"
            ),
            "{err}"
        );
        let retrained = ModelBundle::load_or_train(&path, &config, &mut rng).unwrap();
        for model in [&retrained.cf, &retrained.lcs, &retrained.fp] {
            model.check_vocab().unwrap();
        }
        // The stale file was overwritten with a consistent bundle.
        let reloaded = ModelBundle::load_json(&path).unwrap();
        assert_eq!(reloaded.cf.net, retrained.cf.net);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_or_train_retrains_over_a_stale_bundle_file() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let dir = std::env::temp_dir().join("netsyn_core_stale_bundle_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle_len2.json");
        std::fs::write(&path, r#"{"schema": "from an older build"}"#).unwrap();
        let config = BundleTrainingConfig::tiny(2);
        let bundle = ModelBundle::load_or_train(&path, &config, &mut rng).unwrap();
        assert_eq!(bundle.program_length, 2);
        // The stale file was overwritten with a parseable bundle.
        let reloaded = ModelBundle::load_json(&path).unwrap();
        assert_eq!(reloaded.program_length, 2);
        std::fs::remove_file(&path).ok();
    }
}
