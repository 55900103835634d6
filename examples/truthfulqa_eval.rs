//! A reduced version of the paper's Chapter-8 evaluation: compare the three
//! single-model baselines against LLM-MS OUA and LLM-MS MAB on a slice of
//! the synthetic TruthfulQA benchmark, printing Figures 8.1–8.3.
//!
//! The full-size run lives in `llmms-bench` (`cargo run --release -p
//! llmms-bench --bin paper fig8_1_reward`); this example keeps the dataset
//! small so it finishes in seconds even in debug builds.
//!
//! ```sh
//! cargo run --example truthfulqa_eval --release
//! ```

use llmms::eval::{generate, report, run_eval, GeneratorConfig, HarnessConfig};

fn main() {
    let dataset = generate(&GeneratorConfig {
        items: 60,
        seed: 7,
        ..Default::default()
    });
    println!(
        "dataset: {} ({} questions, categories: {})\n",
        dataset.name,
        dataset.len(),
        dataset.categories().join(", ")
    );

    let config = HarnessConfig {
        token_budget: 2048,
        temperature: 0.7,
        ..Default::default()
    };
    let summary = run_eval(&dataset, &config).expect("evaluation must run");

    println!("{}", report::figure_8_1(&summary));
    println!("{}", report::figure_8_2(&summary));
    println!("{}", report::figure_8_3(&summary));
    println!("{}", report::markdown_table(&summary));
    println!(
        "per-category accuracy:\n{}",
        report::category_breakdown(&summary)
    );
}
