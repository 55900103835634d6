//! The round engine: the one orchestration loop every strategy runs on.
//!
//! The thesis's Algorithms 1 and 2 are the same loop under two policies:
//! generate partial outputs, score them with Eq. 6.1, and move the λ_max
//! budget toward the better arms. [`run`] owns everything the strategies
//! share — the sessions, the token budget, the score cache, the query
//! deadline, the round cap, the round spans, timer and events, generation
//! through [`runpool::generate_round`], and the result. A [`Policy`]
//! decides only what differs: how much each arm generates, how a round is
//! scored, who is pruned or wins early, when to stop, and which answer is
//! selected.
//!
//! Each round, in order:
//! 1. stop if the budget is spent or no arm is active;
//! 2. stop if the query deadline has passed;
//! 3. stop at the `max_rounds` cap;
//! 4. stop if [`Policy::stop`] says so;
//! 5. emit `RoundStarted`;
//! 6. [`Policy::plan`] the round's targets — an empty plan ends the run;
//! 7. generate the targets and emit what they produced;
//! 8. [`Policy::score`] the round, reported as `ScoresUpdated`;
//! 9. apply [`Policy::decide`]'s prunes and early win.
//!
//! When the loop ends: [`Policy::wrap_up`]'s decisions, then
//! `DeadlineExceeded`, `BudgetExhausted`, [`Policy::select`] and
//! `Finished`. Every event of a run is emitted here; policies return
//! values and decisions, never events.

use crate::budget::TokenBudget;
use crate::config::OrchestratorConfig;
use crate::deadline::Deadline;
use crate::events::{EventRecorder, OrchestrationEvent};
use crate::result::OrchestrationResult;
use crate::reward::RewardWeights;
use crate::runpool::{self, outcomes_of, ModelRun};
use crate::scoring::{self, ScoreCache};
use llmms_embed::{Embedding, SharedEmbedder};
use llmms_models::{Chunk, GenOptions, HealthRegistry, SharedModel};
use std::sync::Arc;

/// One query as the orchestrator hands it to the engine.
pub(crate) struct Query<'a> {
    pub prompt: &'a str,
    /// The prompt's embedding, made once per query by the orchestrator.
    pub embedding: Arc<Embedding>,
    /// The query deadline, checked at every round boundary.
    pub deadline: Deadline,
    /// The configuration with the query's overrides applied.
    pub config: &'a OrchestratorConfig,
    pub embedder: &'a SharedEmbedder,
    pub health: &'a Arc<HealthRegistry>,
}

/// A policy's verdict after a round's scores went out.
pub(crate) enum Decision {
    /// Stop `arm`; `rival` is the score whose margin condemned it.
    Prune { arm: usize, score: f64, rival: f64 },
    /// `arm` wins outright: every other active arm stops and the run ends.
    Win { arm: usize, score: f64 },
}

/// The arms of one query plus the budget and score cache they share.
pub(crate) struct Arms<'a> {
    pub runs: Vec<ModelRun>,
    pub budget: TokenBudget,
    cache: ScoreCache,
    embedder: &'a SharedEmbedder,
}

impl Arms<'_> {
    /// Indices of the arms that can still generate.
    pub fn active(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.runs.len()).filter(|&i| self.runs[i].is_active())
    }

    /// Eq. 6.1 scores of the arms with output that satisfy `participates`,
    /// with exactly those arms as each other's agreement term, written into
    /// `scores`; other entries keep their value.
    pub fn score_where(&mut self, participates: impl Fn(&ModelRun) -> bool, scores: &mut [f64]) {
        #[cfg(test)]
        if crate::reference::current().scratch_scoring {
            return scoring::score_from_scratch(
                &self.cache,
                &self.runs,
                self.embedder,
                participates,
                scores,
            );
        }
        scoring::score_where(&mut self.cache, &self.runs, participates, scores);
    }

    /// Eq. 6.1 score of every arm's current response against every other
    /// arm with output — pruned and failed arms included; arms without
    /// output score 0.
    pub fn final_scores(&mut self) -> Vec<f64> {
        let mut scores = vec![0.0; self.runs.len()];
        self.score_where(|_| true, &mut scores);
        scores
    }
}

/// What differs between strategies. The engine calls the hooks in the
/// order the module documentation lists.
pub(crate) trait Policy {
    /// The `strategy` label of the `orchestrator_round_us` timer.
    fn name(&self) -> &'static str;

    /// Eq. 6.1 weights of the run's score cache.
    fn weights(&self) -> RewardWeights;

    /// End the run before the next round starts.
    fn stop(&mut self, _arms: &mut Arms) -> bool {
        false
    }

    /// The round's `(arm, tokens)` targets, in arm order. An empty plan
    /// ends the run.
    fn plan(&mut self, arms: &Arms) -> Vec<(usize, usize)>;

    /// Score the round's `(arm, chunk)` results. `Some` values, one per
    /// arm, go out as `ScoresUpdated`.
    fn score(&mut self, _arms: &mut Arms, _chunks: &[(usize, Chunk)]) -> Option<Vec<f64>> {
        None
    }

    /// Prunes and an early win, applied in order after the scores.
    fn decide(&mut self, _arms: &Arms) -> Vec<Decision> {
        Vec::new()
    }

    /// Decisions still owed when the loop ends, applied before the
    /// deadline and budget events.
    fn wrap_up(&mut self, _arms: &Arms) -> Vec<Decision> {
        Vec::new()
    }

    /// One selection score per arm. The best-scoring arm with output is
    /// the answer, unless the policy declared an early winner.
    fn select(&mut self, arms: &mut Arms) -> Vec<f64>;
}

/// The static single-model baseline (§8.1: "each query was answered by one
/// model without orchestration"): one arm generating in 64-token rounds
/// until it is done, scored on the α term alone — there is no other arm to
/// agree with.
pub(crate) struct Single;

impl Policy for Single {
    fn name(&self) -> &'static str {
        "single"
    }

    fn weights(&self) -> RewardWeights {
        RewardWeights::default()
    }

    fn plan(&mut self, arms: &Arms) -> Vec<(usize, usize)> {
        arms.active().map(|i| (i, 64)).collect()
    }

    fn select(&mut self, arms: &mut Arms) -> Vec<f64> {
        arms.final_scores()
    }
}

/// Run `policy` over `models` for `query`.
pub(crate) fn run(
    query: &Query,
    models: &[SharedModel],
    policy: &mut dyn Policy,
    mut recorder: EventRecorder,
) -> OrchestrationResult {
    let orch = query.config;
    let options = GenOptions {
        // The TokenBudget enforces λ_max; per-arm limits are the policy's.
        max_tokens: orch.token_budget,
        temperature: orch.temperature,
        seed: orch.seed,
    };
    let tctx = llmms_obs::trace::current();
    let runs = ModelRun::start_all(models, query.prompt, &options, query.health);
    runpool::emit_preexisting_failures(&runs, &mut recorder, &tctx);
    let mut arms = Arms {
        cache: ScoreCache::new(runs.len(), Arc::clone(&query.embedding), policy.weights()),
        runs,
        budget: TokenBudget::new(orch.token_budget),
        embedder: query.embedder,
    };

    // Handle resolved once so per-round timing stays allocation-free.
    let registry = llmms_obs::Registry::global();
    let round_timer =
        registry.histogram_with("orchestrator_round_us", &[("strategy", policy.name())]);
    let mut rounds = 0usize;
    let mut deadline_exceeded = false;
    let mut rounds_capped = false;
    let mut winner = None;
    // What fan-outs cost this query; `generate_round` measures and reads it.
    let mut placement = runpool::Placement::default();
    while winner.is_none() {
        if arms.budget.exhausted() || arms.active().next().is_none() {
            break;
        }
        // A deadline cannot interrupt an arm mid-chunk, so it is checked
        // here, at the round boundary.
        if query.deadline.exceeded() {
            deadline_exceeded = true;
            break;
        }
        // Hard round cap (brownout level 2 installs one per query): stop
        // generating, keep the best response so far, mark it degraded.
        if orch.max_rounds.is_some_and(|cap| rounds >= cap) {
            rounds_capped = true;
            break;
        }
        if policy.stop(&mut arms) {
            break;
        }
        rounds += 1;
        let _round_span = registry.span_on(&round_timer);
        let mut round_tspan = tctx.scope("round");
        round_tspan.set_attr("round", rounds);
        let round_ctx = round_tspan.context();
        recorder.emit_with(|| OrchestrationEvent::RoundStarted { round: rounds });
        let targets = policy.plan(&arms);
        if targets.is_empty() {
            break;
        }
        let chunks = runpool::generate_round(
            &mut arms.runs,
            &targets,
            &mut arms.budget,
            arms.embedder,
            &round_ctx,
            &mut placement,
        );
        runpool::emit_round_chunks(&arms.runs, &chunks, &mut recorder);
        let score_span = round_ctx.scope("score");
        let scores = policy.score(&mut arms, &chunks);
        score_span.end();
        if let Some(scores) = scores {
            recorder.emit_with(|| OrchestrationEvent::ScoresUpdated {
                scores: arms
                    .runs
                    .iter()
                    .zip(scores)
                    .map(|(r, s)| (r.name.clone(), s))
                    .collect(),
            });
        }
        let decisions = policy.decide(&arms);
        winner = apply(&decisions, &mut arms.runs, &mut recorder);
    }
    let decisions = policy.wrap_up(&arms);
    apply(&decisions, &mut arms.runs, &mut recorder);

    if deadline_exceeded {
        recorder.emit_with(|| OrchestrationEvent::DeadlineExceeded {
            scope: "query".into(),
            elapsed_ms: query.deadline.elapsed_ms(),
        });
        arms.runs.iter_mut().for_each(ModelRun::force_abort);
    }
    if arms.budget.exhausted() {
        recorder.emit_with(|| OrchestrationEvent::BudgetExhausted {
            used: arms.budget.used(),
        });
    }

    let scores = policy.select(&mut arms);
    let best = winner.unwrap_or_else(|| runpool::select_best(&arms.runs, &scores));
    recorder.emit_with(|| OrchestrationEvent::Finished {
        winner: arms.runs[best].name.clone(),
        total_tokens: arms.budget.used(),
    });

    let degraded = arms.runs.iter().any(|r| r.failed) || deadline_exceeded || rounds_capped;
    OrchestrationResult {
        strategy: orch.strategy.label().to_owned(),
        best,
        outcomes: outcomes_of(arms.runs, &scores),
        total_tokens: arms.budget.used(),
        rounds,
        budget_exhausted: arms.budget.exhausted(),
        degraded,
        deadline_exceeded,
        brownout_level: 0,
        events: recorder.into_events(),
    }
}

/// Apply `decisions` in order, emitting their events. Returns the early
/// winner, if one was declared.
fn apply(
    decisions: &[Decision],
    runs: &mut [ModelRun],
    recorder: &mut EventRecorder,
) -> Option<usize> {
    for decision in decisions {
        match *decision {
            Decision::Prune { arm, score, rival } => {
                recorder.emit_with(|| OrchestrationEvent::ModelPruned {
                    model: runs[arm].name.clone(),
                    score,
                    second_worst: rival,
                });
                runs[arm].prune();
            }
            Decision::Win { arm, score } => {
                recorder.emit_with(|| OrchestrationEvent::EarlyWinner {
                    model: runs[arm].name.clone(),
                    score,
                });
                let registry = llmms_obs::Registry::global();
                if registry.enabled() {
                    registry
                        .counter_with("model_early_win_total", &[("model", &runs[arm].name)])
                        .metric
                        .inc();
                }
                // Abort the losers' in-flight sessions.
                for (i, run) in runs.iter_mut().enumerate() {
                    if i != arm && run.is_active() {
                        run.prune();
                    }
                }
                return Some(arm);
            }
        }
    }
    None
}
