//! The Multi-Armed Bandit strategy (thesis Algorithm 2, UCB1).
//!
//! Each model is an arm. A pull grants the chosen model
//! [`MabConfig::pull_tokens`] tokens; the resulting partial response is
//! scored with Eq. 6.1 and the score is the pull's reward. Arm selection
//! maximizes the upper confidence bound
//!
//! ```text
//! UCB_i = rewards_i / pulls_i + γ · sqrt(2 · ln(totalPulls) / pulls_i)
//! ```
//!
//! with the paper's budget-coupled decay γ = γ₀ · (1 − usedTokens / λ_max)
//! (Algorithm 2, line 11): exploration shrinks as the budget drains, so late
//! tokens concentrate on the best arm — "models with persistently low
//! rewards naturally receive fewer tokens and are phased out" (§4.3.1).
//!
//! Termination: unpulled arms are pulled first (UCB = ∞ by convention); the
//! loop ends when the budget is exhausted, when every arm has finished, or
//! when the current mean-reward leader has finished naturally (its response
//! can no longer change, and exploitation would pick it anyway).
//!
//! Unlike the OUA round loop and the hybrid probe phase, MAB does not fan
//! its generation out: the strategy is inherently sequential. Each pull's
//! reward scores the pulled arm's text against *every other arm's current
//! text* (the agreement term of Eq. 6.1), and the next UCB selection
//! depends on that reward — so pull t+1 cannot start until pull t has
//! generated and been scored. There is no intra-pull fan-out to exploit.

use crate::budget::TokenBudget;
use crate::config::{MabConfig, MabSelection, OrchestratorConfig};
use crate::deadline::Deadline;
use crate::events::{EventRecorder, OrchestrationEvent};
use crate::result::OrchestrationResult;
use crate::runpool::{self, outcomes_of, ModelRun};
use crate::scoring::{self, ScoreCache};
use llmms_embed::SharedEmbedder;
use llmms_models::{DoneReason, GenOptions, HealthRegistry, SharedModel};
use std::sync::Arc;

/// Run Algorithm 2 over `models` for `prompt`.
pub(crate) fn run(
    models: &[SharedModel],
    prompt: &str,
    embedder: &SharedEmbedder,
    cfg: &MabConfig,
    orch: &OrchestratorConfig,
    health: &Arc<HealthRegistry>,
    mut recorder: EventRecorder,
) -> OrchestrationResult {
    let n = models.len();
    let mut budget = TokenBudget::new(orch.token_budget);
    let options = GenOptions {
        max_tokens: orch.token_budget,
        temperature: orch.temperature,
        seed: orch.seed,
    };
    // Stalled backends (empty, non-final chunks — the analogue of a request
    // timeout against Ollama) are detected inside `ModelRun::generate` and
    // surface here as `DoneReason::Failed` chunks.
    let tctx = llmms_obs::trace::current();
    let mut runs = ModelRun::start_all(models, prompt, &options, orch.retry, health);
    runpool::emit_preexisting_failures(&runs, &mut recorder, &tctx);
    let query_embedding = {
        let espan = tctx.scope("embed_query");
        let e = Arc::new(embedder.embed(prompt));
        espan.end();
        e
    };
    let mut cache = ScoreCache::new(n, query_embedding, cfg.weights);
    let query_deadline = Deadline::new(orch.query_deadline_ms);
    let mut deadline_exceeded = false;

    let mut rewards = vec![0.0f64; n];
    let mut pulls = vec![0usize; n];
    let mut total_pulls = 0usize;
    let mut rounds_capped = false;

    // Handle resolved once so per-pull timing stays allocation-free.
    let registry = llmms_obs::Registry::global();
    let round_timer = registry.histogram_with("orchestrator_round_us", &[("strategy", "mab")]);

    while !budget.exhausted() {
        if query_deadline.exceeded() {
            deadline_exceeded = true;
            break;
        }
        // Hard pull cap (brownout level 2 installs one per query).
        if orch.max_rounds.is_some_and(|cap| total_pulls >= cap) {
            rounds_capped = true;
            break;
        }
        // Arms that can still produce tokens.
        let active: Vec<usize> = (0..n).filter(|&i| runs[i].is_active()).collect();
        if active.is_empty() {
            break;
        }
        // Optional early exploitation stop: the current leader has finished,
        // so its (winning) response can no longer change.
        if cfg.early_stop {
            let leader = match cfg.selection {
                MabSelection::FinalScore => argmax(&final_scores(&mut cache, &mut runs, embedder)),
                _ => leader_of(&rewards, &pulls, cfg.selection),
            };
            if let Some(leader) = leader {
                if runs[leader].stopped_naturally() && pulls[leader] > 0 {
                    break;
                }
            }
        }

        let _pull_span = registry.span_on(&round_timer);
        let gamma = if cfg.decay {
            cfg.gamma0 * (1.0 - budget.consumed_fraction())
        } else {
            cfg.gamma0
        };

        // UCB1 selection (lines 3–6); unpulled arms first.
        let chosen = *active
            .iter()
            .max_by(|&&a, &&b| {
                ucb(&rewards, &pulls, total_pulls, gamma, a)
                    .partial_cmp(&ucb(&rewards, &pulls, total_pulls, gamma, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("active is non-empty");

        total_pulls += 1;
        recorder.emit_with(|| OrchestrationEvent::RoundStarted { round: total_pulls });
        let mut round_tspan = tctx.scope("round");
        round_tspan.set_attr("round", total_pulls);
        let round_ctx = round_tspan.context();
        let pull_deadline = Deadline::new(orch.round_deadline_ms);

        // Pull: generate the next token chunk (line 7).
        let chunk = runpool::traced_generate(
            &mut runs[chosen],
            cfg.pull_tokens.max(1),
            &mut budget,
            &round_ctx,
        );
        if pull_deadline.exceeded() {
            recorder.emit_with(|| OrchestrationEvent::DeadlineExceeded {
                scope: "round".into(),
                elapsed_ms: pull_deadline.elapsed_ms(),
            });
        }
        if chunk.done == Some(DoneReason::Failed) {
            recorder.emit_with(|| OrchestrationEvent::ModelFailed {
                model: runs[chosen].name.clone(),
                error: runs[chosen].error.clone().unwrap_or_default(),
            });
            continue;
        }
        if chunk.tokens == 0 && chunk.done.is_none() {
            // Empty pull: the stall counter in `generate` will fail the arm
            // if this keeps up; no reward to record meanwhile.
            continue;
        }
        recorder.emit_with(|| OrchestrationEvent::ModelChunk {
            model: runs[chosen].name.clone(),
            text: chunk.text.clone(),
            tokens: chunk.tokens,
            done: chunk.done,
        });

        // Reward (lines 8–9): Eq. 6.1 on the updated partial response.
        let score_span = round_ctx.scope("score");
        // Only the pulled arm grew, so the cache refresh is a rank-1 update.
        let reward = final_scores(&mut cache, &mut runs, embedder)[chosen];
        score_span.end();
        rewards[chosen] += reward;
        pulls[chosen] += 1;

        recorder.emit_with(|| OrchestrationEvent::ScoresUpdated {
            scores: runs
                .iter()
                .enumerate()
                .map(|(i, r)| (r.name.clone(), mean_reward(&rewards, &pulls, i)))
                .collect(),
        });
    }

    if deadline_exceeded {
        recorder.emit_with(|| OrchestrationEvent::DeadlineExceeded {
            scope: "query".into(),
            elapsed_ms: query_deadline.elapsed_ms(),
        });
        runpool::abort_all(&mut runs);
    }
    if budget.exhausted() {
        recorder.emit_with(|| OrchestrationEvent::BudgetExhausted {
            used: budget.used(),
        });
    }

    // Final selection (line 16): the arm with the highest reward under the
    // configured reading of "reward".
    let selection_scores: Vec<f64> = match cfg.selection {
        MabSelection::FinalScore => final_scores(&mut cache, &mut runs, embedder),
        _ => (0..n)
            .map(|i| selection_score(&rewards, &pulls, i, cfg.selection))
            .collect(),
    };
    let best = runpool::select_best(&runs, &selection_scores);

    recorder.emit_with(|| OrchestrationEvent::Finished {
        winner: runs[best].name.clone(),
        total_tokens: budget.used(),
    });

    let degraded = runpool::any_failed(&runs) || deadline_exceeded || rounds_capped;
    OrchestrationResult {
        strategy: "LLM-MS MAB".to_owned(),
        best,
        outcomes: outcomes_of(runs, &selection_scores),
        total_tokens: budget.used(),
        rounds: total_pulls,
        budget_exhausted: budget.exhausted(),
        degraded,
        deadline_exceeded,
        brownout_level: 0,
        events: recorder.into_events(),
    }
}

/// UCB value for arm `i`; unpulled arms get +∞ so each arm is tried once.
pub(crate) fn ucb(
    rewards: &[f64],
    pulls: &[usize],
    total_pulls: usize,
    gamma: f64,
    i: usize,
) -> f64 {
    if pulls[i] == 0 {
        return f64::INFINITY;
    }
    let mean = rewards[i] / pulls[i] as f64;
    let bonus = gamma * (2.0 * (total_pulls.max(1) as f64).ln() / pulls[i] as f64).sqrt();
    mean + bonus
}

fn mean_reward(rewards: &[f64], pulls: &[usize], i: usize) -> f64 {
    if pulls[i] == 0 {
        0.0
    } else {
        rewards[i] / pulls[i] as f64
    }
}

/// Score used for final selection / leader identification.
fn selection_score(rewards: &[f64], pulls: &[usize], i: usize, selection: MabSelection) -> f64 {
    match selection {
        MabSelection::Cumulative => rewards[i],
        // FinalScore is handled by `final_scores` before reaching here; the
        // mean is the sensible fallback for leader tracking.
        MabSelection::Mean | MabSelection::FinalScore => mean_reward(rewards, pulls, i),
    }
}

/// Index of the current leader under the configured selection rule
/// (pulled arms only).
fn leader_of(rewards: &[f64], pulls: &[usize], selection: MabSelection) -> Option<usize> {
    (0..rewards.len())
        .filter(|&i| pulls[i] > 0)
        .max_by(|&a, &b| {
            selection_score(rewards, pulls, a, selection)
                .partial_cmp(&selection_score(rewards, pulls, b, selection))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
}

/// Eq. 6.1 score of every arm's current response against the others —
/// OUA-style final scoring, except that pruned and failed arms still count
/// (arms without output score 0).
pub(crate) fn final_scores(
    cache: &mut ScoreCache,
    runs: &mut [ModelRun],
    embedder: &SharedEmbedder,
) -> Vec<f64> {
    let mut scores = vec![0.0; runs.len()];
    scoring::score_where(cache, runs, embedder, |_| true, &mut scores);
    scores
}

fn argmax(scores: &[f64]) -> Option<usize> {
    scores
        .iter()
        .enumerate()
        .filter(|(_, s)| **s > 0.0)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
}
