//! The [`Orchestrator`] — the platform's computation-layer entry point.

use crate::config::{OrchestratorConfig, Strategy};
use crate::deadline::Deadline;
use crate::engine::{self, Policy, Single};
use crate::error::OrchestratorError;
use crate::events::{EventRecorder, EventSink};
use crate::hybrid::Hybrid;
use crate::mab::Mab;
use crate::oua::Oua;
use crate::result::OrchestrationResult;
use llmms_embed::SharedEmbedder;
use llmms_exec::Priority as QueryPriority;
use llmms_models::{HealthRegistry, SharedModel};
use std::sync::Arc;

/// Per-query adjustments the serving layer stacks on top of the base
/// configuration: the client's remaining deadline, the brownout level the
/// admission plane decided this query runs under, and the scheduling
/// identity (tenant + priority class) the query's jobs dispatch under on
/// the shared executor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryOverrides {
    /// Remaining client deadline in milliseconds (from
    /// `X-LLMMS-Deadline-Ms`); combined with any configured query deadline
    /// by taking the smaller of the two, and propagated into the shared
    /// executor's earliest-deadline-first dispatch order.
    pub deadline_ms: Option<u64>,
    /// Brownout level `0..=`[`crate::brownout::MAX_LEVEL`]; see
    /// [`crate::brownout`] for the degradation ladder.
    pub brownout_level: u8,
    /// Tenant the query's executor jobs are attributed to (from
    /// `X-LLMMS-Tenant`); `None` schedules under the shared default
    /// tenant. Weighted shares are configured with
    /// [`llmms_exec::set_tenant_share`].
    pub tenant: Option<String>,
    /// Scheduling priority class (from `X-LLMMS-Priority`); partitions the
    /// deadline order within the tenant's share.
    pub priority: QueryPriority,
}

/// Drives a pool of candidate models through the configured strategy for
/// each query, mirroring the thesis's "orchestration engine" (§7.2, step 5):
/// it evaluates partial outputs, allocates token budgets, and decides which
/// models keep generating.
pub struct Orchestrator {
    embedder: SharedEmbedder,
    config: OrchestratorConfig,
    /// Per-model circuit breakers, shared across every query this
    /// orchestrator serves — breaker state must survive between queries.
    health: Arc<HealthRegistry>,
}

impl Orchestrator {
    /// Build an orchestrator using `embedder` for all similarity scoring.
    pub fn new(embedder: SharedEmbedder, config: OrchestratorConfig) -> Self {
        let health = Arc::new(HealthRegistry::new(config.breaker));
        Self {
            embedder,
            config,
            health,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &OrchestratorConfig {
        &self.config
    }

    /// Replace the configuration (e.g. the user switched strategy in the
    /// settings panel). Breaker thresholds are updated in place; accumulated
    /// breaker state is preserved.
    pub fn set_config(&mut self, config: OrchestratorConfig) {
        self.health.set_config(config.breaker);
        self.config = config;
    }

    /// The per-model health/breaker registry (the `/stats` endpoint
    /// surfaces its snapshot).
    pub fn health(&self) -> &Arc<HealthRegistry> {
        &self.health
    }

    /// Answer `prompt` with the model pool under the configured strategy.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::NoModels`] on an empty pool,
    /// [`OrchestratorError::ZeroBudget`] on a zero λ_max, and
    /// [`OrchestratorError::SingleNeedsOneModel`] when `Strategy::Single` is
    /// given more than one model.
    pub fn run(
        &self,
        models: &[SharedModel],
        prompt: &str,
    ) -> Result<OrchestrationResult, OrchestratorError> {
        self.run_with(models, prompt, QueryOverrides::default())
    }

    /// Like [`Orchestrator::run`] with per-query overrides: a client
    /// deadline and/or a brownout level that cheapens the run (smaller
    /// pool, fewer rounds, tighter budget). Any nonzero brownout level
    /// marks the result `degraded`.
    ///
    /// # Errors
    ///
    /// As [`Orchestrator::run`].
    pub fn run_with(
        &self,
        models: &[SharedModel],
        prompt: &str,
        overrides: QueryOverrides,
    ) -> Result<OrchestrationResult, OrchestratorError> {
        let recorder = EventRecorder::new(self.config.record_events);
        self.run_inner(models, prompt, recorder, overrides)
    }

    /// Like [`Orchestrator::run_with`], additionally handing every
    /// [`crate::OrchestrationEvent`] to `sink` as it happens, on the calling
    /// thread — the feed the application layer turns into Server-Sent
    /// Events. A sink whose receiver is gone does not abort the run.
    ///
    /// # Errors
    ///
    /// As [`Orchestrator::run`].
    pub fn run_streaming_with(
        &self,
        models: &[SharedModel],
        prompt: &str,
        sink: impl EventSink + 'static,
        overrides: QueryOverrides,
    ) -> Result<OrchestrationResult, OrchestratorError> {
        let recorder = EventRecorder::with_sink(self.config.record_events, sink);
        self.run_inner(models, prompt, recorder, overrides)
    }

    /// The configuration a query actually runs under after layering
    /// `overrides` on the base config: the client deadline is min'd into
    /// the query deadline, and the brownout level applies its ladder of
    /// caps (level ≥ 2 caps rounds, level ≥ 3 caps the token budget;
    /// level ≥ 1's pool cut happens in `run_inner` because it shrinks the
    /// model slice, not the config).
    fn effective_config(&self, overrides: &QueryOverrides) -> OrchestratorConfig {
        let mut cfg = self.config.clone();
        if let Some(client_ms) = overrides.deadline_ms {
            cfg.query_deadline_ms = Some(match cfg.query_deadline_ms {
                Some(configured) => configured.min(client_ms),
                None => client_ms,
            });
        }
        if overrides.brownout_level >= 2 {
            let cap = cfg.brownout.level2_max_rounds.max(1);
            cfg.max_rounds = Some(cfg.max_rounds.map_or(cap, |m| m.min(cap)));
        }
        if overrides.brownout_level >= 3 {
            // Never brown out into ZeroBudget: a capped budget of at least
            // one token keeps the query answerable.
            cfg.token_budget = cfg
                .token_budget
                .min(cfg.brownout.level3_token_budget.max(1));
        }
        cfg
    }

    /// Record the run's per-model aggregates into the global metrics
    /// registry: tokens, prune/win counts, and final reward distribution,
    /// plus strategy-level run duration via the stage histogram.
    fn record_metrics(&self, result: &OrchestrationResult) {
        let registry = llmms_obs::Registry::global();
        if !registry.enabled() {
            return;
        }
        for (i, outcome) in result.outcomes.iter().enumerate() {
            let labels = [("model", outcome.model.as_str())];
            registry
                .counter_with("model_tokens_total", &labels)
                .metric
                .add(outcome.tokens as u64);
            if outcome.pruned {
                registry
                    .counter_with("model_pruned_total", &labels)
                    .metric
                    .inc();
            }
            if outcome.retries > 0 {
                registry
                    .counter_with("model_retries_total", &labels)
                    .metric
                    .add(u64::from(outcome.retries));
            }
            if i == result.best {
                registry
                    .counter_with("model_wins_total", &labels)
                    .metric
                    .inc();
            }
            registry
                .histogram_with("model_reward", &labels)
                .metric
                .record(outcome.score);
        }
        registry
            .counter_with(
                "orchestrator_rounds_total",
                &[("strategy", &result.strategy)],
            )
            .metric
            .add(result.rounds as u64);
        if result.budget_exhausted {
            registry
                .counter("orchestrator_budget_exhausted_total")
                .metric
                .inc();
        }
        if result.degraded {
            registry.counter("orchestrator_degraded_total").metric.inc();
        }
        if result.deadline_exceeded {
            registry
                .counter("orchestrator_deadline_exceeded_total")
                .metric
                .inc();
        }
        if result.brownout_level > 0 {
            let level = result.brownout_level.to_string();
            registry
                .counter_with("brownout_queries_total", &[("level", &level)])
                .metric
                .inc();
        }
    }

    fn run_inner(
        &self,
        models: &[SharedModel],
        prompt: &str,
        recorder: EventRecorder,
        overrides: QueryOverrides,
    ) -> Result<OrchestrationResult, OrchestratorError> {
        if models.is_empty() {
            return Err(OrchestratorError::NoModels);
        }
        if self.config.token_budget == 0 {
            return Err(OrchestratorError::ZeroBudget);
        }
        let config = self.effective_config(&overrides);
        // Brownout level ≥ 1: cut the arm pool to its top-k prefix (pool
        // order is the operator's preference order). Never below one arm.
        let models = if overrides.brownout_level >= 1 {
            let keep = config.brownout.level1_max_arms.max(1).min(models.len());
            &models[..keep]
        } else {
            models
        };
        if matches!(config.strategy, Strategy::Single) && models.len() != 1 {
            return Err(OrchestratorError::SingleNeedsOneModel { got: models.len() });
        }
        let span = llmms_obs::Registry::global().span("orchestrate");
        // Request-scoped tracing: hang the orchestration subtree off the
        // caller's current span (the HTTP request span when serving) and
        // make it current for the strategy/runpool/rag layers below.
        let mut tspan = llmms_obs::trace::current().span("orchestrate");
        let tguard = llmms_obs::trace::set_current(tspan.context());
        let query_deadline = Deadline::new(config.query_deadline_ms);
        // Register this query with the cross-query scheduler so its
        // generation/embed/segment-search jobs dispatch under the right
        // tenant share, priority class and deadline. When the serving layer
        // already registered (platform scopes the whole request, RAG
        // included), reuse its ambient handle instead of double-counting.
        let _sched_scope = llmms_exec::enter_query(
            overrides.tenant.as_deref(),
            overrides.priority,
            query_deadline.expires_at(),
        );
        let embedding = {
            let tctx = llmms_obs::trace::current();
            let _span = tctx.scope("embed_query");
            Arc::new(self.embedder.embed(prompt))
        };
        // The one place strategies become policies over the round engine.
        let n = models.len();
        let (pool, mut policy): (&[SharedModel], Box<dyn Policy>) = match &config.strategy {
            Strategy::Single => (models, Box::new(Single)),
            Strategy::Oua(cfg) => (models, Box::new(Oua::new(cfg, n))),
            Strategy::Mab(cfg) => (models, Box::new(Mab::new(cfg, n))),
            Strategy::Hybrid(cfg) => (models, Box::new(Hybrid::new(cfg, n))),
            Strategy::Routed(cfg) => cfg.route(models, &embedding, &self.health),
        };
        let query = engine::Query {
            prompt,
            embedding,
            deadline: query_deadline,
            config: &config,
            embedder: &self.embedder,
            health: &self.health,
        };
        let mut result = engine::run(&query, pool, policy.as_mut(), recorder);
        result.brownout_level = overrides.brownout_level;
        if overrides.brownout_level > 0 {
            result.degraded = true;
        }
        drop(tguard);
        if tspan.is_recording() {
            tspan.attr_with("strategy", || result.strategy.clone());
            tspan.set_attr("rounds", result.rounds);
            tspan.set_attr("total_tokens", result.total_tokens);
            // Arm spans carry a numeric `arm` index; this comma-joined list
            // (in arm order) is the per-trace index→model binding.
            tspan.attr_with("arms", || {
                result
                    .outcomes
                    .iter()
                    .map(|o| o.model.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            });
            if result.best < result.outcomes.len() {
                tspan.attr_with("winner", || result.best_outcome().model.clone());
            }
            if result.brownout_level > 0 {
                tspan.set_attr("brownout_level", usize::from(result.brownout_level));
            }
            if result.outcomes.iter().all(|o| o.failed) {
                tspan.set_status(llmms_obs::SpanStatus::Error);
            } else if result.degraded || result.deadline_exceeded || result.budget_exhausted {
                tspan.set_status(llmms_obs::SpanStatus::Degraded);
            }
        }
        tspan.end();
        span.finish();
        self.record_metrics(&result);
        // A degraded result is still a result — but a run where *nothing*
        // produced output is an error the caller must see.
        if result.outcomes.iter().all(|o| o.response.is_empty()) {
            if result.outcomes.iter().all(|o| o.failed) {
                return Err(OrchestratorError::AllModelsFailed);
            }
            if result.deadline_exceeded {
                return Err(OrchestratorError::DeadlineExceeded);
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MabConfig, OuaConfig};
    use llmms_models::{
        DoneReason, KnowledgeEntry, KnowledgeStore, ModelProfile, SimLlm, CATEGORIES,
    };
    use std::sync::Arc;

    fn knowledge() -> Arc<KnowledgeStore> {
        Arc::new(KnowledgeStore::build(
            vec![
                KnowledgeEntry {
                    id: "q1".into(),
                    question: "What is the capital of France?".into(),
                    category: "geography".into(),
                    golden: "The capital of France is Paris".into(),
                    correct: vec!["Paris is the capital of France".into()],
                    incorrect: vec!["Lyon became the seat of government after the revolution \
                         and remains the administrative center to this day"
                        .into()],
                },
                KnowledgeEntry {
                    id: "q2".into(),
                    question: "Can you see the Great Wall of China from space?".into(),
                    category: "misconceptions".into(),
                    golden: "No, the Great Wall is not visible from space with the naked eye"
                        .into(),
                    correct: vec![],
                    incorrect: vec!["Yes, the Great Wall is visible from space".into()],
                },
            ],
            llmms_embed::default_embedder(),
        ))
    }

    fn skilled(name: &str, skill: f64, store: &Arc<KnowledgeStore>) -> SharedModel {
        let mut p = ModelProfile::llama3_8b();
        p.name = name.to_owned();
        p.skills.clear();
        for c in CATEGORIES {
            p.skills.insert(c.into(), skill);
        }
        p.default_skill = skill;
        p.hedging = 0.0;
        p.verbosity = 0.0;
        Arc::new(SimLlm::new(p, Arc::clone(store))) as SharedModel
    }

    fn config(strategy: Strategy) -> OrchestratorConfig {
        OrchestratorConfig::builder()
            .strategy(strategy)
            .temperature(0.0)
            .record_events(true)
            .build()
    }

    fn orchestrator(strategy: Strategy) -> Orchestrator {
        Orchestrator::new(llmms_embed::default_embedder(), config(strategy))
    }

    #[test]
    fn empty_pool_is_an_error() {
        let o = orchestrator(Strategy::Oua(OuaConfig::default()));
        assert_eq!(o.run(&[], "q").unwrap_err(), OrchestratorError::NoModels);
    }

    #[test]
    fn zero_budget_is_an_error() {
        let store = knowledge();
        let mut cfg = config(Strategy::Oua(OuaConfig::default()));
        cfg.token_budget = 0;
        let o = Orchestrator::new(llmms_embed::default_embedder(), cfg);
        let pool = [skilled("m", 0.9, &store)];
        assert_eq!(
            o.run(&pool, "q").unwrap_err(),
            OrchestratorError::ZeroBudget
        );
    }

    #[test]
    fn single_mode_requires_exactly_one_model() {
        let store = knowledge();
        let o = orchestrator(Strategy::Single);
        let pool = [skilled("a", 0.9, &store), skilled("b", 0.9, &store)];
        assert_eq!(
            o.run(&pool, "q").unwrap_err(),
            OrchestratorError::SingleNeedsOneModel { got: 2 }
        );
    }

    #[test]
    fn single_mode_runs_to_completion() {
        let store = knowledge();
        let o = orchestrator(Strategy::Single);
        let pool = [skilled("solo", 0.95, &store)];
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        assert_eq!(r.strategy, "single");
        assert!(r.response().to_lowercase().contains("paris"));
        assert_eq!(r.best_outcome().done, Some(DoneReason::Stop));
        assert_eq!(r.total_tokens, r.best_outcome().tokens);
    }

    #[test]
    fn oua_selects_the_truthful_majority() {
        let store = knowledge();
        // Two experts + one dunce: consensus + query similarity must pick an
        // expert's answer.
        let pool = [
            skilled("expert-1", 0.98, &store),
            skilled("expert-2", 0.98, &store),
            skilled("dunce", 0.02, &store),
        ];
        let o = orchestrator(Strategy::Oua(OuaConfig::default()));
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        assert!(
            r.response().to_lowercase().contains("paris"),
            "OUA picked: {} ({})",
            r.response(),
            r.best_outcome().model
        );
    }

    #[test]
    fn mab_selects_the_truthful_majority() {
        let store = knowledge();
        let pool = [
            skilled("expert-1", 0.98, &store),
            skilled("expert-2", 0.98, &store),
            skilled("dunce", 0.02, &store),
        ];
        let o = orchestrator(Strategy::Mab(MabConfig::default()));
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        assert!(
            r.response().to_lowercase().contains("paris"),
            "MAB picked: {} ({})",
            r.response(),
            r.best_outcome().model
        );
        assert_eq!(r.strategy, "LLM-MS MAB");
    }

    #[test]
    fn budget_is_never_exceeded() {
        let store = knowledge();
        let pool = [
            skilled("a", 0.9, &store),
            skilled("b", 0.5, &store),
            skilled("c", 0.1, &store),
        ];
        for strategy in [
            Strategy::Oua(OuaConfig::default()),
            Strategy::Mab(MabConfig::default()),
        ] {
            let mut cfg = config(strategy);
            cfg.token_budget = 10;
            let o = Orchestrator::new(llmms_embed::default_embedder(), cfg);
            let r = o.run(&pool, "What is the capital of France?").unwrap();
            assert!(
                r.total_tokens <= 10,
                "{}: used {}",
                r.strategy,
                r.total_tokens
            );
            let sum: usize = r.outcomes.iter().map(|o| o.tokens).sum();
            assert_eq!(sum, r.total_tokens, "per-model tokens must sum to total");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let store = knowledge();
        let pool = [
            skilled("a", 0.9, &store),
            skilled("b", 0.5, &store),
            skilled("c", 0.3, &store),
        ];
        for strategy in [
            Strategy::Oua(OuaConfig::default()),
            Strategy::Mab(MabConfig::default()),
        ] {
            let o = orchestrator(strategy);
            let r1 = o
                .run(&pool, "Can you see the Great Wall of China from space?")
                .unwrap();
            let r2 = o
                .run(&pool, "Can you see the Great Wall of China from space?")
                .unwrap();
            assert_eq!(r1.response(), r2.response());
            assert_eq!(r1.total_tokens, r2.total_tokens);
            assert_eq!(r1.rounds, r2.rounds);
        }
    }

    #[test]
    fn oua_prunes_with_tight_margin() {
        let store = knowledge();
        let pool = [
            skilled("expert-1", 0.98, &store),
            skilled("expert-2", 0.98, &store),
            skilled("dunce", 0.02, &store),
        ];
        // TruthfulQA misconceptions are lexically close to the truth, so
        // embedding score gaps are small (the paper's own §8.4 limitation);
        // an aggressive margin is needed to see the mechanism fire.
        let oua_cfg = OuaConfig {
            prune_margin: 0.005,
            // Fine-grained rounds keep models in flight long enough for the
            // pruning window to exist at all.
            round_tokens: 2,
            ..OuaConfig::default()
        };
        let o = orchestrator(Strategy::Oua(oua_cfg));
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        let pruned: Vec<&str> = r
            .outcomes
            .iter()
            .filter(|o| o.pruned)
            .map(|o| o.model.as_str())
            .collect();
        assert!(
            pruned.contains(&"dunce")
                || r.events.iter().any(|e| matches!(
                    e.event,
                    crate::events::OrchestrationEvent::EarlyWinner { .. }
                )),
            "expected the dunce to be pruned or an early winner; outcomes: {:?}",
            r.outcomes
                .iter()
                .map(|o| (&o.model, o.score, o.pruned))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn mab_allocates_more_pulls_to_better_arms() {
        let store = knowledge();
        let pool = [
            skilled("strong", 0.98, &store),
            skilled("strong-2", 0.98, &store),
            skilled("weak", 0.02, &store),
        ];
        // Exploitation is observable when the loop stops at the leader and
        // selection tracks the mean per-pull reward; with run-to-completion
        // (the default) pull counts track answer length instead.
        let mab_cfg = MabConfig {
            pull_tokens: 2,
            early_stop: true,
            selection: crate::config::MabSelection::Mean,
            ..MabConfig::default()
        };
        let o = orchestrator(Strategy::Mab(mab_cfg));
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        let pulls_of = |name: &str| {
            r.outcomes
                .iter()
                .find(|o| o.model == name)
                .map(|o| o.rounds)
                .unwrap()
        };
        let strong = pulls_of("strong").max(pulls_of("strong-2"));
        let weak = pulls_of("weak");
        assert!(
            strong >= weak,
            "strong={strong} pulls, weak={weak} pulls; outcomes: {:?}",
            r.outcomes
                .iter()
                .map(|o| (&o.model, o.rounds, o.score))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn event_trace_is_recorded_when_enabled() {
        let store = knowledge();
        let pool = [skilled("a", 0.9, &store), skilled("b", 0.4, &store)];
        let o = orchestrator(Strategy::Oua(OuaConfig::default()));
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        assert!(!r.events.is_empty());
        assert!(matches!(
            r.events.last().unwrap().event,
            crate::events::OrchestrationEvent::Finished { .. }
        ));
    }

    #[test]
    fn run_records_per_model_metrics() {
        let registry = llmms_obs::Registry::global();
        let store = knowledge();
        let pool = [
            skilled("metrics-a", 0.9, &store),
            skilled("metrics-b", 0.4, &store),
        ];
        let o = orchestrator(Strategy::Oua(OuaConfig::default()));
        let r = o.run(&pool, "What is the capital of France?").unwrap();

        let snap = registry.snapshot();
        let tokens_a = snap.counter_value("model_tokens_total", &[("model", "metrics-a")]);
        let tokens_b = snap.counter_value("model_tokens_total", &[("model", "metrics-b")]);
        assert_eq!(
            tokens_a + tokens_b,
            r.total_tokens as u64,
            "per-model token counters must sum to the run total"
        );
        let winner = &r.best_outcome().model;
        assert!(snap.counter_value("model_wins_total", &[("model", winner)]) >= 1);
        assert!(
            snap.histogram_named("model_reward", &[("model", "metrics-a")])
                .is_some_and(|h| h.count >= 1),
            "reward histogram must record"
        );
        assert!(
            snap.histogram_named("orchestrator_round_us", &[("strategy", "oua")])
                .is_some_and(|h| h.count >= 1),
            "per-round wall time must record"
        );
        assert!(
            snap.histogram_named("stage_duration_us", &[("stage", "orchestrate")])
                .is_some_and(|h| h.count >= 1),
            "orchestrate stage timer must record"
        );
    }

    #[test]
    fn routed_strategy_dispatches_to_indexed_specialist() {
        let store = knowledge();
        let pool = [
            skilled("geo-expert", 0.98, &store),
            skilled("other", 0.98, &store),
        ];
        let embedder = llmms_embed::default_embedder();
        let index = crate::router::TaskIndex::build(
            &[(
                "geography",
                &["what is the capital of france", "which city is the capital"][..],
                "geo-expert",
            )],
            &embedder,
        );
        let o = orchestrator(Strategy::Routed(crate::router::RouterConfig::new(index)));
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        assert_eq!(r.strategy, "LLM-MS Router");
        assert_eq!(r.best_outcome().model, "geo-expert");
        // Router cost = single-model cost: only the routed model generated.
        assert_eq!(r.total_tokens, r.best_outcome().tokens);
        assert_eq!(r.outcomes.len(), 1);
    }

    #[test]
    fn routed_strategy_falls_back_when_model_missing() {
        let store = knowledge();
        let pool = [skilled("a", 0.9, &store), skilled("b", 0.9, &store)];
        let embedder = llmms_embed::default_embedder();
        let index = crate::router::TaskIndex::build(
            &[("geography", &["capital city"][..], "not-in-pool")],
            &embedder,
        );
        let o = orchestrator(Strategy::Routed(crate::router::RouterConfig::new(index)));
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        assert_eq!(r.strategy, "LLM-MS Router");
        // Fallback ran full OUA: every model participated.
        assert_eq!(r.outcomes.len(), 2);
        assert!(r.outcomes.iter().all(|o| o.tokens > 0));
    }

    #[test]
    fn hybrid_probes_prunes_and_answers() {
        let store = knowledge();
        let pool = [
            skilled("expert-1", 0.98, &store),
            skilled("expert-2", 0.98, &store),
            skilled("dunce", 0.02, &store),
        ];
        let o = orchestrator(Strategy::Hybrid(crate::hybrid::HybridConfig::default()));
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        assert_eq!(r.strategy, "LLM-MS Hybrid");
        assert!(
            r.response().to_lowercase().contains("paris"),
            "hybrid picked: {}",
            r.response()
        );
        let sum: usize = r.outcomes.iter().map(|o| o.tokens).sum();
        assert_eq!(sum, r.total_tokens);
    }

    #[test]
    fn hybrid_respects_budget() {
        let store = knowledge();
        let pool = [
            skilled("a", 0.9, &store),
            skilled("b", 0.5, &store),
            skilled("c", 0.1, &store),
        ];
        let mut cfg = config(Strategy::Hybrid(crate::hybrid::HybridConfig::default()));
        cfg.token_budget = 9;
        let o = Orchestrator::new(llmms_embed::default_embedder(), cfg);
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        assert!(r.total_tokens <= 9);
    }

    #[test]
    fn brownout_level1_shrinks_the_pool_to_a_prefix() {
        let store = knowledge();
        let pool = [
            skilled("keep-1", 0.9, &store),
            skilled("keep-2", 0.9, &store),
            skilled("cut", 0.9, &store),
        ];
        let o = orchestrator(Strategy::Oua(OuaConfig::default()));
        let r = o
            .run_with(
                &pool,
                "What is the capital of France?",
                QueryOverrides {
                    deadline_ms: None,
                    brownout_level: 1,
                    ..QueryOverrides::default()
                },
            )
            .unwrap();
        assert_eq!(r.outcomes.len(), 2, "level 1 keeps the top-k prefix");
        assert!(r.outcomes.iter().all(|o| o.model.starts_with("keep")));
        assert_eq!(r.brownout_level, 1);
        assert!(r.degraded, "browned-out answers are degraded by definition");
    }

    #[test]
    fn brownout_level2_caps_rounds() {
        let store = knowledge();
        let pool = [skilled("a", 0.9, &store), skilled("b", 0.5, &store)];
        let mut cfg = config(Strategy::Oua(OuaConfig::default()));
        cfg.brownout.level1_max_arms = 2;
        cfg.brownout.level2_max_rounds = 2;
        let o = Orchestrator::new(llmms_embed::default_embedder(), cfg);
        let r = o
            .run_with(
                &pool,
                "What is the capital of France?",
                QueryOverrides {
                    deadline_ms: None,
                    brownout_level: 2,
                    ..QueryOverrides::default()
                },
            )
            .unwrap();
        assert!(r.rounds <= 2, "level 2 capped rounds, got {}", r.rounds);
        assert_eq!(r.brownout_level, 2);
        assert!(r.degraded);
    }

    #[test]
    fn brownout_level3_caps_the_token_budget() {
        let store = knowledge();
        let pool = [skilled("a", 0.9, &store), skilled("b", 0.5, &store)];
        let mut cfg = config(Strategy::Oua(OuaConfig::default()));
        cfg.brownout.level3_token_budget = 8;
        // Roomy round/arm caps so the budget cap is the binding constraint.
        cfg.brownout.level2_max_rounds = 1000;
        cfg.brownout.level1_max_arms = 2;
        let o = Orchestrator::new(llmms_embed::default_embedder(), cfg);
        let r = o
            .run_with(
                &pool,
                "What is the capital of France?",
                QueryOverrides {
                    deadline_ms: None,
                    brownout_level: 3,
                    ..QueryOverrides::default()
                },
            )
            .unwrap();
        assert!(
            r.total_tokens <= 8,
            "level 3 budget cap, used {}",
            r.total_tokens
        );
        assert_eq!(r.brownout_level, 3);
    }

    #[test]
    fn max_rounds_cap_degrades_but_still_answers() {
        let store = knowledge();
        let pool = [skilled("a", 0.9, &store), skilled("b", 0.5, &store)];
        for strategy in [
            Strategy::Oua(OuaConfig::default()),
            Strategy::Mab(MabConfig::default()),
            Strategy::Hybrid(crate::hybrid::HybridConfig::default()),
        ] {
            let mut cfg = config(strategy);
            cfg.max_rounds = Some(1);
            let o = Orchestrator::new(llmms_embed::default_embedder(), cfg);
            let r = o.run(&pool, "What is the capital of France?").unwrap();
            assert!(
                r.rounds <= 1,
                "{}: rounds {} exceed the cap",
                r.strategy,
                r.rounds
            );
            assert!(
                !r.response().is_empty(),
                "{}: cut run still answers",
                r.strategy
            );
            assert!(
                r.degraded,
                "{}: a rounds-capped run is degraded",
                r.strategy
            );
        }
    }

    #[test]
    fn client_deadline_overrides_a_looser_configured_one() {
        let store = knowledge();
        let pool = [skilled("a", 0.9, &store)];
        let mut cfg = config(Strategy::Single);
        cfg.query_deadline_ms = Some(60_000);
        let o = Orchestrator::new(llmms_embed::default_embedder(), cfg);
        // Zero remaining budget: the run is cut immediately but still
        // returns whatever (nothing) it has — with no output at all this
        // surfaces as DeadlineExceeded.
        let err = o
            .run_with(
                &pool,
                "What is the capital of France?",
                QueryOverrides {
                    deadline_ms: Some(0),
                    brownout_level: 0,
                    ..QueryOverrides::default()
                },
            )
            .unwrap_err();
        assert_eq!(err, OrchestratorError::DeadlineExceeded);
    }

    #[test]
    fn no_events_when_disabled() {
        let store = knowledge();
        let pool = [skilled("a", 0.9, &store), skilled("b", 0.4, &store)];
        let mut cfg = config(Strategy::Oua(OuaConfig::default()));
        cfg.record_events = false;
        let o = Orchestrator::new(llmms_embed::default_embedder(), cfg);
        let r = o.run(&pool, "What is the capital of France?").unwrap();
        assert!(r.events.is_empty());
    }

    #[test]
    fn unknown_question_still_returns_an_answer() {
        let store = knowledge();
        let pool = [skilled("a", 0.9, &store), skilled("b", 0.5, &store)];
        for strategy in [
            Strategy::Oua(OuaConfig::default()),
            Strategy::Mab(MabConfig::default()),
        ] {
            let o = orchestrator(strategy);
            let r = o
                .run(&pool, "what is the airspeed of an unladen swallow")
                .unwrap();
            assert!(!r.response().is_empty());
        }
    }
}
