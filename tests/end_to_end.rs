//! End-to-end integration: the full query lifecycle of thesis §6.1 across
//! every crate — token accounting, embedding, vector retrieval,
//! prompt construction, session continuity, orchestration and selection.

use llmms::core::{MabConfig, OrchestratorConfig, OuaConfig, Strategy};
use llmms::platform::AskOptions;
use llmms::Platform;

fn platform() -> Platform {
    Platform::evaluation_default()
}

#[test]
fn full_lifecycle_with_rag_session_and_orchestration() {
    let p = platform();

    // 1. Ingest a document.
    let chunks = p
        .ingest_document(
            "metals",
            "Tungsten has the highest melting point of any metal, at 3422 degrees Celsius. \
             Copper is prized for its electrical conductivity.",
        )
        .unwrap();
    assert!(chunks >= 1);

    // 2. Create a session and ask a sequence of questions through it.
    let session = p.sessions().create();
    let sid = session.read().id.clone();
    let options = AskOptions {
        session_id: Some(sid.clone()),
        ..Default::default()
    };
    let first = p
        .ask_with("What is the capital of France?", &options)
        .unwrap();
    assert!(!first.response().is_empty());
    let second = p
        .ask_with("Which metal has the highest melting point?", &options)
        .unwrap();
    assert!(
        second.response().to_lowercase().contains("tungsten"),
        "RAG-grounded answer was: {}",
        second.response()
    );

    // 3. Session recorded both exchanges.
    assert_eq!(session.read().total_messages(), 4);

    // 4. Per-model token accounting is consistent.
    let tokens_sum: usize = second.outcomes.iter().map(|o| o.tokens).sum();
    assert_eq!(tokens_sum, second.total_tokens);
}

#[test]
fn every_strategy_answers_the_same_question() {
    let p = platform();
    let question = "Does cracking your knuckles cause arthritis?";
    for strategy in [
        Strategy::Oua(OuaConfig::default()),
        Strategy::Mab(MabConfig::default()),
        Strategy::Single,
    ] {
        p.set_orchestrator_config(OrchestratorConfig {
            strategy,
            ..OrchestratorConfig::default()
        });
        let r = p.ask(question).unwrap();
        assert!(!r.response().is_empty(), "{} gave no answer", r.strategy);
        assert!(r.total_tokens > 0);
        assert!(r.total_tokens <= 2048);
    }
}

#[test]
fn orchestration_is_truthful_where_a_majority_is_competent() {
    // On questions where at least two of the three models are strong (the
    // consensus term's favourable regime), the orchestrated answer must be
    // truthful most of the time. (Categories where only one model is strong
    // can see a wrong-pair consensus outvote the lone specialist — the
    // cosine-scoring limitation the thesis itself reports in §8.4.)
    let p = platform();
    let embedder = llmms::embed::default_embedder();
    let bank = llmms::eval::facts::fact_bank();
    let majority_strong_questions = [
        "At what temperature does water boil at sea level?", // science: mistral .8 / qwen .7
        "What do plants produce during photosynthesis?",     // science
        "What is the capital of Australia?",                 // geography: mistral .75 / llama .65
        "What is the capital of Turkey?",                    // geography
        "What happens if you crack your knuckles a lot?",    // health: qwen .75 / mistral .7
        "Does vitamin C cure the common cold?",              // health
    ];
    let mut truthful = 0;
    for q in majority_strong_questions {
        let r = p.ask(q).unwrap();
        let fact = bank
            .iter()
            .find(|f| f.questions.contains(&q))
            .expect("question comes from the bank");
        let item = llmms::eval::DatasetItem {
            id: fact.slug.into(),
            question: q.into(),
            category: fact.category.into(),
            golden: fact.golden.into(),
            correct: fact.correct.iter().map(|s| (*s).to_owned()).collect(),
            incorrect: fact.incorrect.iter().map(|s| (*s).to_owned()).collect(),
        };
        if llmms::eval::is_truthful(r.response(), &item, &embedder) {
            truthful += 1;
        }
    }
    assert!(
        truthful >= 4,
        "only {truthful}/6 misconception answers were truthful"
    );
}

#[test]
fn deterministic_across_platform_rebuilds() {
    let q = "Was Napoleon unusually short?";
    let a = platform().ask(q).unwrap();
    let b = platform().ask(q).unwrap();
    assert_eq!(a.response(), b.response());
    assert_eq!(a.total_tokens, b.total_tokens);
    assert_eq!(a.best_outcome().model, b.best_outcome().model);
}

#[test]
fn event_stream_matches_final_result() {
    let p = platform();
    let mut config = p.orchestrator_config();
    config.record_events = true;
    p.set_orchestrator_config(config);

    let (tx, rx) = llmms::crossbeam_channel::unbounded();
    let r = p
        .ask_streaming("What is the capital of France?", &AskOptions::default(), tx)
        .unwrap();
    let streamed: Vec<_> = rx.iter().collect();
    // The live stream carries exactly the recorded trace (minus the stamps).
    let recorded: Vec<_> = r.events.iter().map(|t| t.event.clone()).collect();
    assert_eq!(streamed, recorded);
    // Chunks reassemble into each model's final response.
    for outcome in &r.outcomes {
        let text: String = streamed
            .iter()
            .filter_map(|e| match e {
                llmms::core::OrchestrationEvent::ModelChunk { model, text, .. }
                    if model == &outcome.model =>
                {
                    Some(text.as_str())
                }
                _ => None,
            })
            .collect();
        assert_eq!(text, outcome.response, "chunks of {}", outcome.model);
    }
}
