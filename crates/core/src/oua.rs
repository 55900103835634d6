//! The Overperformers–Underperformers Algorithm (thesis Algorithm 1).
//!
//! Faithful construction:
//!
//! 1. λ ← λ_max / N: the budget is split evenly; each model may generate at
//!    most λ tokens while all N models remain in play (line 2).
//! 2. Models generate **partial outputs in round-robin** chunks (§6.3); each
//!    round, every active model extends its response by
//!    [`OuaConfig::round_tokens`] tokens.
//! 3. After each round every response is embedded and scored with Eq. 6.1
//!    (lines 10–15).
//! 4. **Early win** (lines 16–19): if the best model leads the runner-up by
//!    more than `win_margin` *and* finished with done reason `stop`, its
//!    response is returned immediately.
//! 5. **Pruning** (lines 20–23): if the second-worst active model outscores
//!    the worst by more than `prune_margin`, the worst is pruned and its
//!    remaining allowance is redistributed — "models ... are pruned to
//!    conserve tokens and allocate them to [the] rest beyond each model's
//!    maximum allowance" (§4.2.1).
//! 6. When no model can generate further (all stopped or pruned, or λ_max is
//!    exhausted), the best-scoring response wins (line 25).

use crate::budget::TokenBudget;
use crate::config::{OrchestratorConfig, OuaConfig};
use crate::deadline::Deadline;
use crate::events::{EventRecorder, OrchestrationEvent};
use crate::result::OrchestrationResult;
use crate::runpool::{self, outcomes_of, ModelRun};
use crate::scoring::{self, ScoreCache};
use llmms_embed::SharedEmbedder;
use llmms_models::{GenOptions, HealthRegistry, SharedModel};
use std::sync::Arc;

/// Run Algorithm 1 over `models` for `prompt`.
pub(crate) fn run(
    models: &[SharedModel],
    prompt: &str,
    embedder: &SharedEmbedder,
    cfg: &OuaConfig,
    orch: &OrchestratorConfig,
    health: &Arc<HealthRegistry>,
    mut recorder: EventRecorder,
) -> OrchestrationResult {
    let n = models.len();
    let mut budget = TokenBudget::new(orch.token_budget);
    let options = GenOptions {
        // The global TokenBudget enforces λ_max; per-model allowances are
        // enforced by the loop so they can grow after pruning.
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
    let mut cache = ScoreCache::new(n, query_embedding, cfg.weights);
    let query_deadline = Deadline::new(orch.query_deadline_ms);
    let mut deadline_exceeded = false;

    let mut scores = vec![0.0f64; n];
    let mut rounds = 0usize;
    let mut rounds_capped = false;
    let mut early_winner: Option<usize> = None;

    // Handle resolved once so per-round timing stays allocation-free.
    let registry = llmms_obs::Registry::global();
    let round_timer = registry.histogram_with("orchestrator_round_us", &[("strategy", "oua")]);

    while early_winner.is_none() && !budget.exhausted() && runs.iter().any(ModelRun::is_active) {
        if query_deadline.exceeded() {
            deadline_exceeded = true;
            break;
        }
        // Hard round cap (brownout level 2 installs one per query): stop
        // generating, keep the best response so far, and mark it degraded.
        if orch.max_rounds.is_some_and(|cap| rounds >= cap) {
            rounds_capped = true;
            break;
        }
        rounds += 1;
        let _round_span = registry.span_on(&round_timer);
        let mut round_tspan = tctx.scope("round");
        round_tspan.set_attr("round", rounds);
        let round_ctx = round_tspan.context();
        recorder.emit_with(|| OrchestrationEvent::RoundStarted { round: rounds });
        let round_deadline = Deadline::new(orch.round_deadline_ms);

        // λ per surviving model: pruned and failed models return their
        // allowance.
        let survivors = runs.iter().filter(|r| !r.eliminated()).count().max(1);
        let allowance = orch.token_budget / survivors;

        // Round-robin generation (lines 5–9), fanned out on the executor
        // under budget leases. A deadline cannot interrupt off-thread arms,
        // so both are checked here, at the batch boundary.
        let mut attempted = false;
        let mut round_cut = false;
        if query_deadline.exceeded() {
            deadline_exceeded = true;
        } else if round_deadline.exceeded() {
            round_cut = true;
        } else {
            let targets: Vec<(usize, usize)> = runs
                .iter()
                .enumerate()
                .filter(|(_, r)| r.is_active())
                .filter_map(|(i, r)| {
                    let room = allowance.saturating_sub(r.tokens());
                    let request = cfg.round_tokens.min(room);
                    (request > 0).then_some((i, request))
                })
                .collect();
            attempted = !targets.is_empty();
            let chunks =
                runpool::generate_round(&mut runs, &targets, &mut budget, embedder, &round_ctx);
            runpool::emit_round_chunks(&runs, &chunks, &mut recorder);
        }
        if deadline_exceeded {
            break;
        }
        if round_cut {
            recorder.emit_with(|| OrchestrationEvent::DeadlineExceeded {
                scope: "round".into(),
                elapsed_ms: round_deadline.elapsed_ms(),
            });
        }
        // Every active model is pinned at its allowance (integer-division
        // slack can leave the budget un-exhausted): nothing can change any
        // more, stop scoring rounds. Stalling models keep getting polled —
        // their stall counter fails them after a bounded streak.
        if !attempted {
            break;
        }

        // Scoring (lines 10–15): every non-pruned response participates.
        let score_span = round_ctx.scope("score");
        // Pruned and failed runs keep their last score (the `scores` dict
        // of Algorithm 1 is never erased).
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

        // Early win (lines 16–19).
        if let Some((best, second)) = best_and_second(&runs, &scores, |r| !r.eliminated()) {
            let margin_ok = match second {
                Some(s) => scores[best] > scores[s] + cfg.win_margin,
                // Last one standing (§4.2.1) — but only once every rival is
                // actually out of the race. A zero-output model may still be
                // mid-stall; pruning it here would mask the backend failure
                // the stall counter is about to attribute.
                None => !runs
                    .iter()
                    .enumerate()
                    .any(|(i, r)| i != best && r.is_active()),
            };
            if margin_ok && runs[best].stopped_naturally() {
                recorder.emit_with(|| OrchestrationEvent::EarlyWinner {
                    model: runs[best].name.clone(),
                    score: scores[best],
                });
                if registry.enabled() {
                    registry
                        .counter_with("model_early_win_total", &[("model", &runs[best].name)])
                        .metric
                        .inc();
                }
                early_winner = Some(best);
                // Abort the losers' in-flight sessions.
                for (i, run) in runs.iter_mut().enumerate() {
                    if i != best && run.is_active() {
                        run.prune();
                    }
                }
                break;
            }
        }

        // Pruning (lines 20–23): compare the two worst *active* models.
        if let Some((worst, Some(sw))) = worst_and_second(&runs, &scores, ModelRun::is_active) {
            if scores[sw] - scores[worst] > cfg.prune_margin {
                recorder.emit_with(|| OrchestrationEvent::ModelPruned {
                    model: runs[worst].name.clone(),
                    score: scores[worst],
                    second_worst: scores[sw],
                });
                runs[worst].prune();
            }
        }
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

    // Final selection (line 25): argmax over every recorded score, pruned
    // partials included — a failed model's truncated output is only a
    // last resort.
    let best = early_winner.unwrap_or_else(|| runpool::select_best(&runs, &scores));
    recorder.emit_with(|| OrchestrationEvent::Finished {
        winner: runs[best].name.clone(),
        total_tokens: budget.used(),
    });

    let degraded = runpool::any_failed(&runs) || deadline_exceeded || rounds_capped;
    OrchestrationResult {
        strategy: "LLM-MS OUA".to_owned(),
        best,
        outcomes: outcomes_of(runs, &scores),
        total_tokens: budget.used(),
        rounds,
        budget_exhausted: budget.exhausted(),
        degraded,
        deadline_exceeded,
        brownout_level: 0,
        events: recorder.into_events(),
    }
}

/// `(best, second_best)` among runs satisfying `keep`.
fn best_and_second(
    runs: &[ModelRun],
    scores: &[f64],
    keep: impl Fn(&ModelRun) -> bool,
) -> Option<(usize, Option<usize>)> {
    let mut eligible: Vec<usize> = (0..runs.len())
        .filter(|&i| keep(&runs[i]) && runs[i].has_output())
        .collect();
    if eligible.is_empty() {
        return None;
    }
    eligible.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Some((eligible[0], eligible.get(1).copied()))
}

/// `(worst, second_worst)` among runs satisfying `keep`.
fn worst_and_second(
    runs: &[ModelRun],
    scores: &[f64],
    keep: impl Fn(&ModelRun) -> bool,
) -> Option<(usize, Option<usize>)> {
    let mut eligible: Vec<usize> = (0..runs.len())
        .filter(|&i| keep(&runs[i]) && runs[i].has_output())
        .collect();
    if eligible.is_empty() {
        return None;
    }
    eligible.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Some((eligible[0], eligible.get(1).copied()))
}
