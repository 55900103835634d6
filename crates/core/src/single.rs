//! The static single-model baseline mode (§8.1: "each query was answered by
//! one model without orchestration").

use crate::budget::TokenBudget;
use crate::config::OrchestratorConfig;
use crate::deadline::Deadline;
use crate::events::{EventRecorder, OrchestrationEvent};
use crate::result::OrchestrationResult;
use crate::reward::{combined_score, RewardWeights};
use crate::runpool::{self, outcomes_of, ModelRun};
use llmms_embed::SharedEmbedder;
use llmms_models::{DoneReason, GenOptions, HealthRegistry, SharedModel};
use std::sync::Arc;

/// Run one model to completion under the token budget.
pub(crate) fn run(
    model: &SharedModel,
    prompt: &str,
    embedder: &SharedEmbedder,
    orch: &OrchestratorConfig,
    health: &Arc<HealthRegistry>,
    mut recorder: EventRecorder,
) -> OrchestrationResult {
    let mut budget = TokenBudget::new(orch.token_budget);
    let options = GenOptions {
        max_tokens: orch.token_budget,
        temperature: orch.temperature,
        seed: orch.seed,
    };
    let tctx = llmms_obs::trace::current();
    let pool = [model.clone()];
    let mut runs = ModelRun::start_all(&pool, prompt, &options, orch.retry, health);
    runpool::emit_preexisting_failures(&runs, &mut recorder, &tctx);
    let query_deadline = Deadline::new(orch.query_deadline_ms);
    let mut deadline_exceeded = false;

    // Stream in reasonable chunks until done, failed, or budget-exhausted.
    // Empty non-final chunks are left to `generate`'s stall counter, which
    // fails the run after the configured streak.
    while runs[0].is_active() && !budget.exhausted() {
        if query_deadline.exceeded() {
            deadline_exceeded = true;
            recorder.emit_with(|| OrchestrationEvent::DeadlineExceeded {
                scope: "query".into(),
                elapsed_ms: query_deadline.elapsed_ms(),
            });
            runpool::abort_all(&mut runs);
            break;
        }
        let chunk = runpool::traced_generate(&mut runs[0], 64, &mut budget, &tctx);
        recorder.emit_with(|| OrchestrationEvent::ModelChunk {
            model: runs[0].name.clone(),
            text: chunk.text.clone(),
            tokens: chunk.tokens,
            done: chunk.done,
        });
        if chunk.done == Some(DoneReason::Failed) {
            recorder.emit_with(|| OrchestrationEvent::ModelFailed {
                model: runs[0].name.clone(),
                error: runs[0].error.clone().unwrap_or_default(),
            });
        }
    }

    // Score with the α term only (there are no other models to agree with).
    let query_embedding = {
        let espan = tctx.span("embed_query");
        let e = embedder.embed(prompt);
        espan.end();
        e
    };
    let score = if runs[0].has_output() {
        let response = runs[0].embedding(embedder);
        combined_score(&RewardWeights::default(), &query_embedding, &response, &[])
    } else {
        0.0
    };

    recorder.emit_with(|| OrchestrationEvent::Finished {
        winner: runs[0].name.clone(),
        total_tokens: budget.used(),
    });

    let degraded = runpool::any_failed(&runs) || deadline_exceeded;
    OrchestrationResult {
        strategy: "single".to_owned(),
        best: 0,
        outcomes: outcomes_of(runs, &[score]),
        total_tokens: budget.used(),
        rounds: 1,
        budget_exhausted: budget.exhausted(),
        degraded,
        deadline_exceeded,
        brownout_level: 0,
        events: recorder.into_events(),
    }
}
