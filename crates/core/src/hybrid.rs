//! The hybrid strategy sketched in thesis §8.4: "The primary trade-off
//! observed was between early pruning (OUA) and adaptive allocation (MAB).
//! ... A hybrid approach could potentially leverage the advantages of both
//! methods."
//!
//! Phase 1 (**probe**, OUA-flavoured): every model generates a few
//! round-robin chunks; any model trailing the current best by more than
//! `prune_margin` is pruned immediately — more decisive than Algorithm 1's
//! worst-vs-second-worst rule, because the probe exists precisely to cut
//! losers early.
//!
//! Phase 2 (**exploit**, MAB-flavoured): the survivors compete for the
//! remaining budget under UCB1 with the γ decay of Algorithm 2; the final
//! answer is the best Eq. 6.1-scoring response among all models that
//! produced output (pruned partials included, as in OUA line 25).

use crate::budget::TokenBudget;
use crate::config::{MabConfig, OrchestratorConfig};
use crate::deadline::Deadline;
use crate::events::{EventRecorder, OrchestrationEvent};
use crate::mab::{final_scores, ucb};
use crate::result::OrchestrationResult;
use crate::reward::RewardWeights;
use crate::runpool::{self, outcomes_of, ModelRun};
use crate::scoring::{self, ScoreCache};
use llmms_embed::SharedEmbedder;
use llmms_models::{DoneReason, GenOptions, HealthRegistry, SharedModel};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Parameters of the hybrid strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// Eq. 6.1 weights (shared by both phases).
    pub weights: RewardWeights,
    /// Number of probe rounds before pruning locks in.
    pub probe_rounds: usize,
    /// Tokens per model per probe round.
    pub probe_tokens: usize,
    /// A model trailing the best by more than this after the probe is
    /// pruned.
    pub prune_margin: f64,
    /// Phase-2 bandit parameters (γ₀, decay, pull size).
    pub mab: MabConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            weights: RewardWeights::default(),
            probe_rounds: 2,
            probe_tokens: 4,
            prune_margin: 0.15,
            mab: MabConfig::default(),
        }
    }
}

/// Run the hybrid strategy.
pub(crate) fn run(
    models: &[SharedModel],
    prompt: &str,
    embedder: &SharedEmbedder,
    cfg: &HybridConfig,
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
    let tctx = llmms_obs::trace::current();
    let mut runs = ModelRun::start_all(models, prompt, &options, orch.retry, health);
    runpool::emit_preexisting_failures(&runs, &mut recorder, &tctx);
    let query_embedding = {
        let espan = tctx.scope("embed_query");
        let e = Arc::new(embedder.embed(prompt));
        espan.end();
        e
    };
    // One cache spans both phases: phase 2 scores with the hybrid's own
    // Eq. 6.1 weights, not `cfg.mab.weights`.
    let mut cache = ScoreCache::new(n, query_embedding, cfg.weights);
    let query_deadline = Deadline::new(orch.query_deadline_ms);
    let mut deadline_exceeded = false;
    let mut rounds = 0usize;
    let mut rounds_capped = false;

    // ---- Phase 1: probe + decisive pruning --------------------------------
    let mut scores = vec![0.0f64; n];
    for _ in 0..cfg.probe_rounds.max(1) {
        if budget.exhausted() || !runs.iter().any(ModelRun::is_active) {
            break;
        }
        if query_deadline.exceeded() {
            deadline_exceeded = true;
            break;
        }
        // Hard round cap (brownout level 2): covers probe + exploit rounds.
        if orch.max_rounds.is_some_and(|cap| rounds >= cap) {
            rounds_capped = true;
            break;
        }
        rounds += 1;
        recorder.emit_with(|| OrchestrationEvent::RoundStarted { round: rounds });
        let mut round_tspan = tctx.scope("round");
        round_tspan.set_attr("round", rounds);
        let round_ctx = round_tspan.context();
        let round_deadline = Deadline::new(orch.round_deadline_ms);
        // Probe generation, fanned out on the executor under budget leases
        // (deadlines are checked here, at the batch boundary).
        if query_deadline.exceeded() {
            deadline_exceeded = true;
        } else if round_deadline.exceeded() {
            recorder.emit_with(|| OrchestrationEvent::DeadlineExceeded {
                scope: "round".into(),
                elapsed_ms: round_deadline.elapsed_ms(),
            });
        } else {
            let targets: Vec<(usize, usize)> = runs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_active())
                .map(|(i, _)| (i, cfg.probe_tokens.max(1)))
                .collect();
            let chunks =
                runpool::generate_round(&mut runs, &targets, &mut budget, embedder, &round_ctx);
            runpool::emit_round_chunks(&runs, &chunks, &mut recorder);
        }
        if deadline_exceeded {
            break;
        }
        let score_span = round_ctx.scope("score");
        scoring::score_where(
            &mut cache,
            &mut runs,
            embedder,
            |r| !r.eliminated(),
            &mut scores,
        );
        score_span.end();
        recorder.emit_with(|| OrchestrationEvent::ScoresUpdated {
            scores: runs
                .iter()
                .zip(&scores)
                .map(|(r, &s)| (r.name.clone(), s))
                .collect(),
        });
    }
    // Prune everything trailing the probe leader by more than the margin.
    // Models with no output yet are spared: they are either about to fail
    // (the stall counter attributes that to the backend) or merely slow,
    // and a prune here would mask the difference.
    if let Some(best) = scores
        .iter()
        .cloned()
        .fold(None::<f64>, |acc, s| Some(acc.map_or(s, |a| a.max(s))))
    {
        for i in 0..n {
            if runs[i].is_active() && runs[i].has_output() && best - scores[i] > cfg.prune_margin {
                recorder.emit_with(|| OrchestrationEvent::ModelPruned {
                    model: runs[i].name.clone(),
                    score: scores[i],
                    second_worst: best,
                });
                runs[i].prune();
            }
        }
    }

    // ---- Phase 2: UCB1 exploitation among survivors ------------------------
    let mut rewards = vec![0.0f64; n];
    let mut pulls = vec![0usize; n];
    let mut total_pulls = 0usize;
    while !budget.exhausted() && !deadline_exceeded && !rounds_capped {
        if query_deadline.exceeded() {
            deadline_exceeded = true;
            break;
        }
        if orch.max_rounds.is_some_and(|cap| rounds >= cap) {
            rounds_capped = true;
            break;
        }
        let active: Vec<usize> = (0..n).filter(|&i| runs[i].is_active()).collect();
        if active.is_empty() {
            break;
        }
        let gamma = if cfg.mab.decay {
            cfg.mab.gamma0 * (1.0 - budget.consumed_fraction())
        } else {
            cfg.mab.gamma0
        };
        let chosen = *active
            .iter()
            .max_by(|&&a, &&b| {
                ucb(&rewards, &pulls, total_pulls, gamma, a)
                    .partial_cmp(&ucb(&rewards, &pulls, total_pulls, gamma, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("active is non-empty");
        total_pulls += 1;
        rounds += 1;
        let mut round_tspan = tctx.scope("round");
        round_tspan.set_attr("round", rounds);
        let round_ctx = round_tspan.context();
        let pull_deadline = Deadline::new(orch.round_deadline_ms);
        let chunk = runpool::traced_generate(
            &mut runs[chosen],
            cfg.mab.pull_tokens.max(1),
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
            // Stalled backend — `generate` fails the arm after the
            // configured streak; skip the reward meanwhile.
            continue;
        }
        recorder.emit_with(|| OrchestrationEvent::ModelChunk {
            model: runs[chosen].name.clone(),
            text: chunk.text.clone(),
            tokens: chunk.tokens,
            done: chunk.done,
        });
        let score_span = round_ctx.scope("score");
        let fresh = final_scores(&mut cache, &mut runs, embedder);
        score_span.end();
        rewards[chosen] += fresh[chosen];
        pulls[chosen] += 1;
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

    // Final selection: best current Eq. 6.1 score among everything with
    // output (pruned partials included, failed partials last-resort only).
    let selection = final_scores(&mut cache, &mut runs, embedder);
    let best = runpool::select_best(&runs, &selection);
    recorder.emit_with(|| OrchestrationEvent::Finished {
        winner: runs[best].name.clone(),
        total_tokens: budget.used(),
    });

    let degraded = runpool::any_failed(&runs) || deadline_exceeded || rounds_capped;
    OrchestrationResult {
        strategy: "LLM-MS Hybrid".to_owned(),
        best,
        outcomes: outcomes_of(runs, &selection),
        total_tokens: budget.used(),
        rounds,
        budget_exhausted: budget.exhausted(),
        degraded,
        deadline_exceeded,
        brownout_level: 0,
        events: recorder.into_events(),
    }
}
