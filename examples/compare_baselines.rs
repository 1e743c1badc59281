//! Compare NetSyn against the paper's baselines (DeepCoder, PCCoder,
//! RobustFill, PushGP and the edit-distance GA) on a small generated suite,
//! using the paper's "search space used" metric.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example compare_baselines
//! ```
//!
//! Set `NETSYN_CACHE_DIR=/some/dir` to persist fitness scores across runs:
//! `evaluate_method` warm-starts every method from the durable cache (shards
//! are keyed per model fingerprint and specification, so methods never alias
//! each other's scores).

use netsyn_core::prelude::*;
use netsyn_dsl::SynthesisTask;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program_length = 3;
    let budget_cap = 15_000;
    let runs_per_task = 2;

    // A small evaluation suite: 4 singleton-output + 4 list-output programs.
    let suite_config = SuiteConfig::small(program_length, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let suite = TestSuite::generate(&suite_config, &mut rng)?;
    println!(
        "Evaluation suite: {} programs of length {}, {} IO examples each, cap {} candidates\n",
        suite.len(),
        program_length,
        suite_config.examples_per_task,
        budget_cap
    );

    // Guidance for the neural baselines: the oracle probability map stands in
    // for a trained FP model so this example stays fast; run the
    // `fig4_search_space` benchmark binary for the fully learned pipeline.
    let methods: Vec<MethodSpec<'_>> = vec![
        MethodSpec::new("PushGP", |_task: &SynthesisTask| {
            Box::new(PushGp::new()) as Box<dyn Synthesizer>
        }),
        MethodSpec::new("Edit (GA)", move |_task: &SynthesisTask| {
            let mut config =
                NetSynConfig::paper_defaults(FitnessChoice::EditDistance, program_length);
            config.ga.mutation_mode = MutationMode::UniformRandom;
            Box::new(NetSyn::new(config, None)) as Box<dyn Synthesizer>
        }),
        MethodSpec::new("DeepCoder", |task: &SynthesisTask| {
            let guidance = ProbabilityMap::from_target(&task.target, 0.05);
            Box::new(DeepCoder::new(guidance)) as Box<dyn Synthesizer>
        }),
        MethodSpec::new("PCCoder", |task: &SynthesisTask| {
            let guidance = ProbabilityMap::from_target(&task.target, 0.05);
            Box::new(PcCoder::new(guidance)) as Box<dyn Synthesizer>
        }),
        MethodSpec::new("RobustFill", |task: &SynthesisTask| {
            let guidance = ProbabilityMap::from_target(&task.target, 0.05);
            Box::new(RobustFill::new(guidance)) as Box<dyn Synthesizer>
        }),
        MethodSpec::new("NetSyn (Oracle_CF)", move |task: &SynthesisTask| {
            let config =
                NetSynConfig::paper_defaults(FitnessChoice::OracleCommonFunctions, program_length);
            Box::new(NetSyn::new(config, None).with_oracle_target(task.target.clone()))
                as Box<dyn Synthesizer>
        }),
        MethodSpec::new("Portfolio (GA+DFS+Beam)", move |task: &SynthesisTask| {
            let config =
                NetSynConfig::paper_defaults(FitnessChoice::OracleCommonFunctions, program_length);
            let netsyn = NetSyn::new(config, None).with_oracle_target(task.target.clone());
            Box::new(PortfolioSynthesizer::new(netsyn).with_name("Portfolio (GA+DFS+Beam)"))
                as Box<dyn Synthesizer>
        }),
    ];

    let mut table = Table::new(
        "Search-space comparison (smaller is better; '-' means not all programs were synthesized)",
        &[
            "method",
            "programs synthesized",
            "median search space",
            "mean synthesis rate",
        ],
    );
    for method in &methods {
        println!("running {} ...", method.name);
        let evaluation = evaluate_method(method, &suite, budget_cap, runs_per_task, 4242);
        let deciles = evaluation.search_space_deciles();
        let median = deciles[4]
            .map(|f| format!("{:.1}%", f * 100.0))
            .unwrap_or_else(|| "-".to_string());
        let summary = evaluation.summary();
        table.push_row(vec![
            summary.method,
            format!("{}/{}", summary.programs_synthesized, suite.len()),
            median,
            format!("{:.0}%", summary.avg_synthesis_rate_percent),
        ]);
    }
    println!("\n{table}");
    Ok(())
}
