//! Tour of the implemented §9.5 / §8.4 extensions: semantic routing with
//! feedback learning, the OUA+MAB hybrid, natural-language configuration,
//! and contextual memory graphs.
//!
//! ```sh
//! cargo run --example extensions_tour
//! ```

use llmms::core::{HybridConfig, OrchestratorConfig, RouterConfig, Strategy, TaskIndex};
use llmms::platform::AskOptions;
use llmms::Platform;

fn main() {
    let platform = Platform::evaluation_default();

    // --- 1. Natural-language configuration --------------------------------
    println!("== natural-language configuration ==");
    let directives = platform.instruct("use the hybrid, budget 600 tokens, avoid slow models");
    println!(
        "applied: strategy={:?} budget={:?} avoid_slow={} (pool is now {:?})\n",
        directives.strategy,
        directives.token_budget,
        directives.avoid_slow,
        platform
            .active_pool()
            .iter()
            .map(|m| m.name().to_owned())
            .collect::<Vec<_>>(),
    );
    platform.reset_pool();

    // --- 2. Hybrid strategy (§8.4) ----------------------------------------
    println!("== hybrid: OUA probe + MAB exploitation ==");
    platform.set_orchestrator_config(OrchestratorConfig {
        strategy: Strategy::Hybrid(HybridConfig::default()),
        ..OrchestratorConfig::default()
    });
    let r = platform
        .ask("Did Thomas Edison invent the first light bulb?")
        .unwrap();
    println!(
        "{} answered via {} ({} total tokens): {}\n",
        r.best_outcome().model,
        r.strategy,
        r.total_tokens,
        r.response()
    );

    // --- 3. Semantic routing with learned feedback (§9.5) ------------------
    println!("== semantic routing ==");
    let embedder = llmms::embed::default_embedder();
    let mut index = TaskIndex::build(
        &[
            (
                "geography",
                &["what is the capital of this country"][..],
                "mistral-7b",
            ),
            (
                "fiction",
                &[
                    "what happens in this novel or film",
                    "who is this character in the famous story",
                    "what does the monster say in the book",
                ][..],
                "mistral-7b", // wrong on purpose; feedback will fix it
            ),
        ],
        &embedder,
    );
    // Simulated user feedback: llama keeps winning fiction questions.
    for _ in 0..6 {
        index.record_feedback("fiction", "llama3-8b", 0.9);
        index.record_feedback("fiction", "mistral-7b", 0.3);
    }
    platform.set_orchestrator_config(OrchestratorConfig {
        strategy: Strategy::Routed(RouterConfig::new(index)),
        ..OrchestratorConfig::default()
    });
    let r = platform
        .ask("Who is Frankenstein in Mary Shelley's novel?")
        .unwrap();
    println!(
        "router sent the fiction question to {} (single-model cost: {} tokens)\n",
        r.best_outcome().model,
        r.total_tokens
    );

    // --- 4. Contextual memory graph (§9.5) ----------------------------------
    println!("== contextual memory graph ==");
    platform.set_orchestrator_config(OrchestratorConfig::default());
    let session = platform.sessions().create();
    let sid = session.read().id.clone();
    platform
        .ask_with(
            "What is the capital of France?",
            &AskOptions {
                session_id: Some(sid),
                ..Default::default()
            },
        )
        .unwrap();
    for (session_id, question, answer) in
        platform.recall_related("tell me again about france's capital", 1)
    {
        println!("remembered from {session_id}: Q: {question} -> A: {answer}\n");
    }
}
