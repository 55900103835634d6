//! The seeded chaos suite: orchestration under injected backend faults.
//!
//! Every test wraps real [`SimLlm`] backends in [`llmms_models::chaos`]
//! fault plans and asserts the robustness contract of the orchestrator:
//! no panic, no budget overspend, bounded wall-clock, `degraded` flagged
//! whenever an arm failed, and the healthy answer winning whenever one
//! exists. The fault RNG seed comes from the `CHAOS_SEED` environment
//! variable (CI runs a small seed matrix; locally it defaults to 0).

#![cfg(test)]

use crate::config::{MabConfig, OrchestratorConfig, OuaConfig, Strategy};
use crate::error::OrchestratorError;
use crate::events::OrchestrationEvent;
use crate::hybrid::HybridConfig;
use crate::orchestrator::{Orchestrator, QueryOverrides};
use crate::{RouterConfig, TaskIndex};
use llmms_models::chaos::{ChaosModel, FaultKind};
use llmms_models::{
    BreakerConfig, BreakerState, Chunk, DoneReason, GenOptions, GenerationSession, KnowledgeEntry,
    KnowledgeStore, LanguageModel, ModelError, ModelInfo, ModelProfile, SharedModel, SimLlm,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fault seed for this process: `CHAOS_SEED` (the CI matrix) or 0.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn knowledge() -> Arc<KnowledgeStore> {
    Arc::new(KnowledgeStore::build(
        vec![KnowledgeEntry {
            id: "q1".into(),
            question: "What is the capital of France?".into(),
            category: "geography".into(),
            golden: "The capital of France is Paris".into(),
            correct: vec!["Paris is the capital of France".into()],
            incorrect: vec!["Marseille the port city is the capital".into()],
        }],
        llmms_embed::default_embedder(),
    ))
}

fn sim(name: &str, store: &Arc<KnowledgeStore>) -> SharedModel {
    let mut p = ModelProfile::llama3_8b();
    p.name = name.to_owned();
    p.skills.clear();
    p.default_skill = 0.9;
    p.hedging = 0.1;
    p.verbosity = 0.2;
    Arc::new(SimLlm::new(p, Arc::clone(store))) as SharedModel
}

fn faulty(name: &str, kind: FaultKind, offset: u64, store: &Arc<KnowledgeStore>) -> SharedModel {
    ChaosModel::wrap(
        sim(name, store),
        kind,
        chaos_seed().wrapping_mul(1000) + offset,
    )
}

fn orchestrator(strategy: Strategy, budget: usize, deadline_ms: Option<u64>) -> Orchestrator {
    Orchestrator::new(
        llmms_embed::default_embedder(),
        OrchestratorConfig {
            strategy,
            token_budget: budget,
            temperature: 0.0,
            query_deadline_ms: deadline_ms,
            ..OrchestratorConfig::default()
        },
    )
}

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Oua(OuaConfig::default()),
        Strategy::Mab(MabConfig::default()),
        Strategy::Hybrid(HybridConfig::default()),
    ]
}

const QUESTION: &str = "What is the capital of France?";

/// The headline acceptance scenario: four models, three of which fail
/// mid-generation in three different ways. Every strategy must finish
/// within the deadline, without panicking, inside the budget, flag the
/// result degraded, and return the healthy model's answer.
#[test]
fn three_faulty_one_healthy_every_strategy_answers() {
    for strategy in all_strategies() {
        let store = knowledge();
        let models = vec![
            sim("healthy", &store),
            faulty("wedged", FaultKind::Stall, 1, &store),
            faulty(
                "dies-midway",
                FaultKind::ErrorAfterN {
                    n: 2,
                    transient: false,
                },
                2,
                &store,
            ),
            faulty("lossy-path", FaultKind::Flaky { p: 0.9 }, 3, &store),
        ];
        let o = orchestrator(strategy, 96, Some(5_000));
        let started = std::time::Instant::now();
        let r = o.run(&models, QUESTION).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{}: must finish within the deadline",
            r.strategy
        );
        assert!(r.total_tokens <= 96, "{}: overspent", r.strategy);
        let sum: usize = r.outcomes.iter().map(|o| o.tokens).sum();
        assert_eq!(sum, r.total_tokens, "{}: accounting", r.strategy);
        assert!(r.degraded, "{}: failures must flag degradation", r.strategy);
        assert_eq!(
            r.best_outcome().model,
            "healthy",
            "{}: healthy model must win, outcomes: {:?}",
            r.strategy,
            r.outcomes
                .iter()
                .map(|o| (o.model.clone(), o.failed, o.tokens))
                .collect::<Vec<_>>()
        );
        assert!(!r.response().is_empty(), "{}", r.strategy);
        // The stall can never be mistaken for a slow-but-healthy model: it
        // produces no output, so no strategy can prune it on score — only the
        // stall counter can take it out, and that marks it failed.
        let failed = r.failed_models();
        assert!(failed.contains(&"wedged"), "{}: {failed:?}", r.strategy);
        // The mid-generation crash is attributed as a failure unless the
        // strategy had already pruned the arm on score before chunk 3
        // (Hybrid's probe phase legitimately does this).
        let dies = r
            .outcomes
            .iter()
            .find(|o| o.model == "dies-midway")
            .unwrap();
        assert!(
            dies.failed || dies.pruned,
            "{}: dies-midway neither failed nor pruned",
            r.strategy
        );
        // Every score must stay finite even for failed arms.
        assert!(r.outcomes.iter().all(|o| o.score.is_finite()));
    }
}

/// Injected faults must be visible in the request trace: the stalled and
/// crashing arms get error-status spans under a connected span tree, and
/// tail-based sampling retains such traces even when the probabilistic
/// sampler would drop everything.
#[test]
fn injected_faults_produce_error_spans_and_retained_traces() {
    use llmms_obs::{trace, SpanStatus, TraceId, TraceStore, TraceStoreConfig, Tracer};

    let trace_store = TraceStore::new(TraceStoreConfig {
        capacity: 16,
        sample_rate: 0.0,
        slow_threshold_ms: u64::MAX,
    });
    for strategy in all_strategies() {
        let store = knowledge();
        let models = vec![
            sim("healthy", &store),
            faulty("wedged", FaultKind::Stall, 1, &store),
            faulty(
                "dies-midway",
                FaultKind::ErrorAfterN {
                    n: 2,
                    transient: false,
                },
                2,
                &store,
            ),
        ];
        let o = orchestrator(strategy, 96, Some(5_000));
        let tracer = Tracer::new(TraceId::generate());
        let root = tracer.root_span("request");
        let r = {
            let _guard = trace::set_current(root.context());
            o.run(&models, QUESTION).unwrap()
        };
        root.end();
        assert!(r.degraded, "{}", r.strategy);

        let data = tracer.finish().expect("spans recorded");
        assert!(data.is_connected(), "{}: disconnected tree", r.strategy);
        assert_eq!(data.worst_status(), SpanStatus::Error, "{}", r.strategy);
        assert!(data.spans.iter().any(|s| s.name == "orchestrate"));
        assert!(data.spans.iter().any(|s| s.name == "round"));
        // The stalled arm's last step is an error `arm` span, whichever
        // thread computed it: the stall is judged at the barrier, where the
        // span is recorded.
        let wedged_error = data.spans.iter().any(|s| {
            s.status == SpanStatus::Error && s.name == "arm" && s.attr("model") == Some("wedged")
        });
        assert!(
            wedged_error,
            "{}: no error span for the stalled arm: {:?}",
            r.strategy, data.spans
        );
        // The crash arm is traced as an error whenever it actually failed
        // (Hybrid may legitimately prune it on score before chunk 3).
        let dies = r
            .outcomes
            .iter()
            .find(|o| o.model == "dies-midway")
            .unwrap();
        if dies.failed {
            assert!(
                data.spans.iter().any(|s| {
                    s.status == SpanStatus::Error && s.attr("model") == Some("dies-midway")
                }),
                "{}: crash arm not traced: {:?}",
                r.strategy,
                data.spans
            );
        }

        // Tail sampling: a 0% sample rate and an unreachable slow threshold
        // still retain the trace, because its worst status is Error.
        let id = data.trace_id;
        assert!(
            trace_store.offer(data),
            "{}: error trace dropped",
            r.strategy
        );
        assert!(trace_store.get(id).is_some(), "{}", r.strategy);
    }
    // Every faulted query in this mixed workload was retained.
    let stats = trace_store.stats();
    assert_eq!(stats.offered, 3);
    assert_eq!(stats.retained, 3);
    assert_eq!(stats.sampled_out, 0);
}

/// A MAB pull (a one-target round, computed on the calling thread) and an
/// OUA round (fanned out to the executor) trace their arms alike: a step
/// carries the arm index and its tokens, and a failed arm's step names the
/// model and the error instead of the tokens.
#[test]
fn single_target_and_fanned_out_rounds_trace_arms_alike() {
    use llmms_obs::{trace, SpanStatus, TraceId, Tracer};

    for strategy in [
        Strategy::Mab(MabConfig::default()),
        Strategy::Oua(OuaConfig::default()),
    ] {
        let store = knowledge();
        let models = vec![
            sim("steady-a", &store),
            sim("steady-b", &store),
            faulty(
                "doomed",
                FaultKind::ErrorAfterN {
                    n: 0,
                    transient: false,
                },
                3,
                &store,
            ),
        ];
        let o = orchestrator(strategy, 96, None);
        let tracer = Tracer::new(TraceId::generate());
        let root = tracer.root_span("request");
        let r = {
            let _guard = trace::set_current(root.context());
            o.run(&models, QUESTION).unwrap()
        };
        root.end();
        assert_eq!(r.failed_models(), vec!["doomed"], "{}", r.strategy);
        let data = tracer.finish().expect("spans recorded");
        let arms: Vec<_> = data.spans.iter().filter(|s| s.name == "arm").collect();
        let keys = |s: &llmms_obs::SpanRecord| s.attrs.iter().map(|(k, _)| k).collect::<Vec<_>>();
        for span in &arms {
            if span.status == SpanStatus::Error {
                assert_eq!(keys(span), ["arm", "model", "error"], "{}", r.strategy);
                assert_eq!(span.attr("model"), Some("doomed"));
                assert!(!span.attr("error").unwrap_or("").is_empty());
            } else {
                assert_eq!(keys(span), ["arm", "tokens"], "{}", r.strategy);
            }
        }
        assert!(
            arms.iter().any(|s| s.status == SpanStatus::Error),
            "{}: the failed arm has no error span",
            r.strategy
        );
        assert!(
            arms.iter()
                .any(|s| s.attr_u64("tokens").is_some_and(|t| t > 0)),
            "{}: no successful step was traced",
            r.strategy
        );
    }
}

/// A breaker-open skip (the arm is dead on arrival, no session ever starts)
/// still shows up in the trace as a zero-length error `arm` span.
#[test]
fn breaker_open_skip_is_traced_as_error_span() {
    use llmms_obs::{trace, SpanStatus, TraceId, Tracer};

    let store = knowledge();
    let models = vec![
        sim("chaos-tr-steady", &store),
        faulty(
            "chaos-tr-dying",
            FaultKind::ErrorAfterN {
                n: 0,
                transient: false,
            },
            11,
            &store,
        ),
    ];
    let o = Orchestrator::new(
        llmms_embed::default_embedder(),
        OrchestratorConfig {
            strategy: Strategy::Oua(OuaConfig::default()),
            token_budget: 96,
            temperature: 0.0,
            breaker: BreakerConfig {
                enabled: true,
                failure_threshold: 1,
                cooldown_ms: 60_000,
            },
            ..OrchestratorConfig::default()
        },
    );
    // Trip the breaker with one failing query (untraced).
    let r = o.run(&models, QUESTION).unwrap();
    assert_eq!(r.failed_models(), vec!["chaos-tr-dying"]);
    assert_eq!(o.health().state("chaos-tr-dying"), BreakerState::Open);

    // The next query skips the arm at admission; the skip must be traced.
    let tracer = Tracer::new(TraceId::generate());
    let root = tracer.root_span("request");
    let r = {
        let _guard = trace::set_current(root.context());
        o.run(&models, QUESTION).unwrap()
    };
    root.end();
    assert!(r.degraded);
    let data = tracer.finish().expect("spans recorded");
    assert!(data.is_connected());
    let skip = data
        .spans
        .iter()
        .find(|s| s.name == "arm" && s.attr("model") == Some("chaos-tr-dying"))
        .expect("breaker-open arm span");
    assert_eq!(skip.status, SpanStatus::Error);
    assert!(
        skip.attr("error").unwrap_or("").contains("breaker"),
        "error attr: {:?}",
        skip.attr("error")
    );
}

/// A saturated backend (real wall-clock delay per chunk) must trip the
/// query deadline: the orchestrator force-aborts, keeps the partial output,
/// and flags both `deadline_exceeded` and `degraded`. The per-chunk delay
/// exceeds the whole-query deadline so the deadline trips no matter how the
/// round executes — with parallel generation, arms run concurrently and the
/// cut lands at the next round boundary instead of mid-round.
#[test]
fn slow_backend_trips_the_query_deadline() {
    for strategy in all_strategies() {
        let store = knowledge();
        let models = vec![
            faulty(
                "molasses-a",
                FaultKind::SlowChunks { delay_ms: 70 },
                4,
                &store,
            ),
            faulty(
                "molasses-b",
                FaultKind::SlowChunks { delay_ms: 70 },
                5,
                &store,
            ),
        ];
        let o = orchestrator(strategy, 2048, Some(60));
        let started = std::time::Instant::now();
        let r = o.run(&models, QUESTION).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "{}: deadline must bound the query",
            r.strategy
        );
        assert!(r.deadline_exceeded, "{}", r.strategy);
        assert!(r.degraded, "{}", r.strategy);
        // Force-abort is a deadline decision, not a model fault: the slow
        // arms are aborted, not failed, and the breaker is untouched.
        assert!(r.failed_models().is_empty(), "{}", r.strategy);
        assert_eq!(o.health().state("molasses-a"), BreakerState::Closed);
    }
}

/// Confident nonsense does not need errors to lose: the Garbage fault
/// finishes cleanly, so nothing is degraded, but Eq. 6.1 scoring must still
/// prefer the grounded answer.
#[test]
fn garbage_output_loses_on_score_not_on_errors() {
    for strategy in all_strategies() {
        let store = knowledge();
        let models = vec![
            sim("grounded", &store),
            faulty("confabulator", FaultKind::Garbage, 6, &store),
        ];
        let o = orchestrator(strategy, 128, None);
        let r = o.run(&models, QUESTION).unwrap();
        assert!(!r.degraded, "{}: garbage is not a failure", r.strategy);
        assert_eq!(r.best_outcome().model, "grounded", "{}", r.strategy);
    }

    // Faults compose: garbage output that also crashes after one chunk,
    // beside a stalled arm. The crash degrades the result, the stall never
    // produces output, and the grounded answer still wins on score.
    let store = knowledge();
    let models = vec![
        sim("grounded", &store),
        faulty("wedged", FaultKind::Stall, 7, &store),
        ChaosModel::wrap(
            faulty("crashing-confabulator", FaultKind::Garbage, 8, &store),
            FaultKind::ErrorAfterN {
                n: 1,
                transient: false,
            },
            chaos_seed().wrapping_mul(1000) + 8,
        ),
    ];
    let o = orchestrator(Strategy::Oua(OuaConfig::default()), 96, Some(5_000));
    for _ in 0..3 {
        let r = o.run(&models, QUESTION).unwrap();
        assert!(r.degraded, "a crashed arm must flag degradation");
        let wedged = r.outcomes.iter().find(|o| o.model == "wedged").unwrap();
        assert_eq!(wedged.tokens, 0, "the stalled arm produced output");
        assert_eq!(r.best_outcome().model, "grounded");
    }
}

/// A backend whose health can be flipped at runtime — the recovery half of
/// the circuit-breaker story, which the per-session chaos faults cannot
/// model (each of their sessions fails the same way forever).
struct Flippable {
    name: String,
    healthy: Arc<AtomicBool>,
    words: Vec<&'static str>,
}

impl LanguageModel for Flippable {
    fn name(&self) -> &str {
        &self.name
    }

    fn info(&self) -> ModelInfo {
        ModelInfo {
            name: self.name.clone(),
            family: "flippable".into(),
            params_b: 1.0,
            context_window: 2048,
            quantization: "none".into(),
            decode_tokens_per_second: 10.0,
        }
    }

    fn start(&self, _prompt: &str, _options: &GenOptions) -> Box<dyn GenerationSession> {
        Box::new(FlippableSession {
            model: self.name.clone(),
            healthy: self.healthy.load(Ordering::SeqCst),
            words: self.words.clone(),
            cursor: 0,
            text: String::new(),
            done: None,
        })
    }
}

struct FlippableSession {
    model: String,
    healthy: bool,
    words: Vec<&'static str>,
    cursor: usize,
    text: String,
    done: Option<DoneReason>,
}

impl GenerationSession for FlippableSession {
    fn next_chunk(&mut self, max_tokens: usize) -> Result<Chunk, ModelError> {
        if !self.healthy {
            return Err(ModelError::Fatal {
                model: self.model.clone(),
                reason: "backend worker crashed".into(),
            });
        }
        if let Some(reason) = self.done {
            return Ok(Chunk::finished(reason));
        }
        let mut chunk = String::new();
        let mut emitted = 0;
        while emitted < max_tokens && self.cursor < self.words.len() {
            if !self.text.is_empty() || !chunk.is_empty() {
                chunk.push(' ');
            }
            chunk.push_str(self.words[self.cursor]);
            self.cursor += 1;
            emitted += 1;
        }
        self.text.push_str(&chunk);
        self.done = (self.cursor >= self.words.len()).then_some(DoneReason::Stop);
        Ok(Chunk {
            text: chunk,
            tokens: emitted,
            done: self.done,
        })
    }

    fn tokens_generated(&self) -> usize {
        self.cursor
    }

    fn response_so_far(&self) -> &str {
        &self.text
    }

    fn done_reason(&self) -> Option<DoneReason> {
        self.done
    }

    fn simulated_latency(&self) -> Duration {
        Duration::from_millis(self.cursor as u64)
    }

    fn abort(&mut self) {
        if self.done.is_none() {
            self.done = Some(DoneReason::Aborted);
        }
    }
}

/// The breaker lifecycle end-to-end: K consecutive failing queries open the
/// breaker, the next query skips the model outright (dead-on-arrival
/// outcome, no admission), and after the cooldown a half-open probe against
/// the recovered backend closes it again — with every transition visible in
/// the process-wide metrics registry.
#[test]
fn breaker_opens_skips_and_recovers_via_half_open_probe() {
    let store = knowledge();
    let healthy_flag = Arc::new(AtomicBool::new(false));
    let flippable: SharedModel = Arc::new(Flippable {
        name: "chaos-recovering-backend".into(),
        healthy: Arc::clone(&healthy_flag),
        words: vec!["the", "capital", "of", "france", "is", "paris"],
    });
    let models = vec![sim("chaos-steady-backend", &store), flippable];

    let o = Orchestrator::new(
        llmms_embed::default_embedder(),
        OrchestratorConfig {
            strategy: Strategy::Oua(OuaConfig::default()),
            token_budget: 96,
            temperature: 0.0,
            breaker: BreakerConfig {
                enabled: true,
                failure_threshold: 3,
                cooldown_ms: 50,
            },
            ..OrchestratorConfig::default()
        },
    );

    // K = 3 failing queries trip the breaker open.
    for i in 0..3 {
        let r = o.run(&models, QUESTION).unwrap();
        assert!(r.degraded, "query {i} must be degraded");
        assert_eq!(r.failed_models(), vec!["chaos-recovering-backend"]);
    }
    assert_eq!(
        o.health().state("chaos-recovering-backend"),
        BreakerState::Open
    );

    // While open (cooldown not elapsed), the model is skipped outright:
    // its session is never even started.
    let r = o.run(&models, QUESTION).unwrap();
    let skipped = r
        .outcomes
        .iter()
        .find(|out| out.model == "chaos-recovering-backend")
        .unwrap();
    assert!(skipped.failed);
    assert_eq!(skipped.tokens, 0);
    assert!(
        skipped.error.as_deref().unwrap_or("").contains("breaker"),
        "error: {:?}",
        skipped.error
    );
    assert_eq!(r.best_outcome().model, "chaos-steady-backend");

    // Backend recovers; after the cooldown the half-open probe succeeds and
    // the breaker closes.
    healthy_flag.store(true, Ordering::SeqCst);
    std::thread::sleep(Duration::from_millis(60));
    let r = o.run(&models, QUESTION).unwrap();
    let recovered = r
        .outcomes
        .iter()
        .find(|out| out.model == "chaos-recovering-backend")
        .unwrap();
    assert!(!recovered.failed, "probe must run the recovered model");
    assert!(recovered.tokens > 0);
    assert!(!r.degraded);
    assert_eq!(
        o.health().state("chaos-recovering-backend"),
        BreakerState::Closed
    );

    // The lifecycle is visible in the metrics registry (the /metrics and
    // /stats payloads are rendered from this same snapshot).
    let snap = llmms_obs::Registry::global().snapshot();
    assert_eq!(
        snap.gauge_value("breaker_state", &[("model", "chaos-recovering-backend")]),
        Some(BreakerState::Closed.gauge_value())
    );
    assert!(
        snap.counter_value(
            "breaker_transitions_total",
            &[("model", "chaos-recovering-backend"), ("to", "open")],
        ) >= 1
    );
    assert!(
        snap.counter_value(
            "breaker_transitions_total",
            &[("model", "chaos-recovering-backend"), ("to", "closed")],
        ) >= 1
    );
}

/// Disabled breaker means no skipping, ever: the failing model is admitted
/// on every query no matter how long its failure streak.
#[test]
fn disabled_breaker_always_admits() {
    let store = knowledge();
    let models = vec![
        sim("chaos-nb-steady", &store),
        faulty(
            "chaos-nb-dying",
            FaultKind::ErrorAfterN {
                n: 0,
                transient: false,
            },
            9,
            &store,
        ),
    ];
    let o = Orchestrator::new(
        llmms_embed::default_embedder(),
        OrchestratorConfig {
            strategy: Strategy::Oua(OuaConfig::default()),
            token_budget: 96,
            temperature: 0.0,
            breaker: BreakerConfig {
                enabled: false,
                ..BreakerConfig::default()
            },
            ..OrchestratorConfig::default()
        },
    );
    for _ in 0..5 {
        let r = o.run(&models, QUESTION).unwrap();
        let dying = r
            .outcomes
            .iter()
            .find(|out| out.model == "chaos-nb-dying")
            .unwrap();
        // A genuine session failure each time — never the breaker-open skip.
        assert!(dying.failed);
        assert!(
            !dying.error.as_deref().unwrap_or("").contains("breaker"),
            "error: {:?}",
            dying.error
        );
    }
    // Failures are still tracked (the streak is real), but admission always
    // succeeds while the breaker is disabled.
    assert!(o.health().admit("chaos-nb-dying"));
}

/// Deadline cut under overload is degradation, not failure: a client
/// deadline arriving via [`QueryOverrides`] cuts the rounds of a
/// slow-but-healthy pool at the next boundary. The partial answer comes
/// back `degraded` + `deadline_exceeded`, with zero arms marked failed —
/// the overload control plane must never convert pressure into faults.
#[test]
fn per_query_deadline_cuts_rounds_degraded_not_failed() {
    use crate::orchestrator::QueryOverrides;

    for strategy in all_strategies() {
        let store = knowledge();
        let models = vec![
            faulty(
                "treacle-a",
                FaultKind::SlowChunks { delay_ms: 70 },
                12,
                &store,
            ),
            faulty(
                "treacle-b",
                FaultKind::SlowChunks { delay_ms: 70 },
                13,
                &store,
            ),
        ];
        // No config-level deadline: the per-query override is the only cut.
        let o = orchestrator(strategy, 2048, None);
        let started = std::time::Instant::now();
        let r = o
            .run_with(
                &models,
                QUESTION,
                QueryOverrides {
                    deadline_ms: Some(60),
                    brownout_level: 0,
                    ..QueryOverrides::default()
                },
            )
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "{}: the per-query deadline must bound the query",
            r.strategy
        );
        assert!(r.deadline_exceeded, "{}", r.strategy);
        assert!(r.degraded, "{}", r.strategy);
        assert!(
            r.failed_models().is_empty(),
            "{}: deadline cut must not fail arms: {:?}",
            r.strategy,
            r.failed_models()
        );
        assert_eq!(o.health().state("treacle-a"), BreakerState::Closed);
    }
}

/// Brownout composes with chaos: at level 2 a faulted pool still answers
/// from the healthy arm, the result carries the brownout stamp, and the
/// shorter round schedule keeps the query inside its deadline.
#[test]
fn brownout_level_survives_faulty_pool_and_stamps_result() {
    use crate::orchestrator::QueryOverrides;

    let store = knowledge();
    let models = vec![
        sim("healthy-brownout", &store),
        faulty("wedged-brownout", FaultKind::Stall, 14, &store),
        faulty("flaky-brownout", FaultKind::Flaky { p: 0.9 }, 15, &store),
    ];
    let o = orchestrator(Strategy::Oua(OuaConfig::default()), 96, Some(5_000));
    let r = o
        .run_with(
            &models,
            QUESTION,
            QueryOverrides {
                deadline_ms: None,
                brownout_level: 2,
                ..QueryOverrides::default()
            },
        )
        .unwrap();
    assert_eq!(r.brownout_level, 2);
    assert!(r.degraded, "brownout alone must flag degradation");
    assert!(!r.response().is_empty());
    assert!(r.total_tokens <= 96);
}

/// A router over `preferred`, which the test question is routed to.
fn router(preferred: &str) -> Strategy {
    Strategy::Routed(RouterConfig::new(TaskIndex::build(
        &[(
            "geography",
            &["what is the capital of france", "which city is the capital"][..],
            preferred,
        )],
        &llmms_embed::default_embedder(),
    )))
}

/// A backend whose session *panics* (an adapter bug, not a reported error)
/// must not crash the query under any strategy. A fanned-out arm's panic
/// unwinds on a pool worker and the executor catches it; a one-target round
/// (every MAB pull, every single-model round) generates on the calling
/// thread and catches it there. Either way the poisoned arm fails in place
/// — without being charged for the call — and the survivors answer. With no
/// survivor the query is `AllModelsFailed`, not a panic.
#[test]
fn panicking_backend_fails_its_arm_not_the_query() {
    for strategy in [
        Strategy::Oua(OuaConfig::default()),
        Strategy::Mab(MabConfig::default()),
        Strategy::Hybrid(HybridConfig::default()),
        router("not-in-pool"),
    ] {
        let store = knowledge();
        let models = vec![
            sim("healthy-a", &store),
            sim("healthy-b", &store),
            faulty("buggy-adapter", FaultKind::PanicAfterN { n: 1 }, 16, &store),
        ];
        let o = orchestrator(strategy, 96, Some(5_000));
        let r = o.run(&models, QUESTION).unwrap();
        assert!(
            r.total_tokens <= 96,
            "{}: no overspend past the lost lease",
            r.strategy
        );
        let sum: usize = r.outcomes.iter().map(|o| o.tokens).sum();
        assert_eq!(
            sum, r.total_tokens,
            "{}: accounting survives a poisoned arm",
            r.strategy
        );
        let winner = &r.outcomes[r.best];
        assert!(
            winner.model.starts_with("healthy"),
            "{}: healthy arm wins, got {}",
            r.strategy,
            winner.model
        );
        assert!(
            r.response().contains("Paris"),
            "{}: answer: {}",
            r.strategy,
            r.response()
        );
        let buggy = r
            .outcomes
            .iter()
            .find(|o| o.model == "buggy-adapter")
            .expect("buggy arm reported");
        if buggy.failed {
            assert!(
                r.degraded,
                "{}: a lost arm must mark the result degraded",
                r.strategy
            );
            assert!(
                buggy
                    .error
                    .as_deref()
                    .unwrap_or_default()
                    .contains("poisoned"),
                "{}: failure names the poison: {:?}",
                r.strategy,
                buggy.error
            );
        }
    }
    for strategy in [
        Strategy::Single,
        Strategy::Oua(OuaConfig::default()),
        Strategy::Mab(MabConfig::default()),
        Strategy::Hybrid(HybridConfig::default()),
        router("buggy-solo"),
    ] {
        let store = knowledge();
        let models = vec![faulty(
            "buggy-solo",
            FaultKind::PanicAfterN { n: 0 },
            17,
            &store,
        )];
        let label = strategy.label();
        let o = orchestrator(strategy, 96, Some(5_000));
        assert_eq!(
            o.run(&models, QUESTION).unwrap_err(),
            OrchestratorError::AllModelsFailed,
            "{label}"
        );
    }
}

/// Every strategy reports a round the same way, whatever fails in it: one
/// `RoundStarted` per counted round, a `ModelChunk` only when it carries
/// tokens or a done reason, and each failed arm as its `Failed` chunk
/// immediately followed by `ModelFailed`. The single-model runs (`Single`
/// and the router's solo dispatch) go to the stalling arm, so they end
/// `AllModelsFailed`; their streamed events are checked all the same.
#[test]
fn every_strategy_reports_rounds_and_failures_alike() {
    for strategy in [
        Strategy::Single,
        Strategy::Oua(OuaConfig::default()),
        Strategy::Mab(MabConfig::default()),
        Strategy::Hybrid(HybridConfig::default()),
        router("wedged"),
        router("not-in-pool"),
    ] {
        let store = knowledge();
        let mut models = vec![
            faulty("wedged", FaultKind::Stall, 18, &store),
            sim("healthy", &store),
            faulty(
                "dies-midway",
                FaultKind::ErrorAfterN {
                    n: 2,
                    transient: false,
                },
                19,
                &store,
            ),
            faulty("lossy", FaultKind::Flaky { p: 0.9 }, 20, &store),
        ];
        if strategy == Strategy::Single {
            models.truncate(1);
        }
        let label = strategy.label();
        let o = orchestrator(strategy, 96, Some(5_000));
        let (tx, rx) = crossbeam_channel::unbounded();
        let outcome = o.run_streaming_with(&models, QUESTION, tx, QueryOverrides::default());
        let events: Vec<OrchestrationEvent> = rx.iter().collect();
        for event in &events {
            if let OrchestrationEvent::ModelChunk { tokens, done, .. } = event {
                assert!(
                    *tokens > 0 || done.is_some(),
                    "{label}: empty chunk reported: {event:?}"
                );
            }
        }
        let mut failed: Vec<&str> = Vec::new();
        for (k, event) in events.iter().enumerate() {
            let OrchestrationEvent::ModelFailed { model, .. } = event else {
                continue;
            };
            assert!(
                k > 0
                    && matches!(
                        &events[k - 1],
                        OrchestrationEvent::ModelChunk { model: m, done: Some(DoneReason::Failed), .. }
                            if m == model
                    ),
                "{label}: {model}'s failure follows its Failed chunk: {events:?}"
            );
            failed.push(model.as_str());
        }
        assert!(!failed.is_empty(), "{label}: no arm failed");
        failed.sort_unstable();
        match outcome {
            Ok(r) => {
                let started = events
                    .iter()
                    .filter(|e| matches!(e, OrchestrationEvent::RoundStarted { .. }))
                    .count();
                assert_eq!(started, r.rounds, "{label}: one RoundStarted per round");
                let mut expected = r.failed_models();
                expected.sort_unstable();
                assert_eq!(failed, expected, "{label}: each failed arm fails once");
            }
            Err(e) => assert_eq!(e, OrchestratorError::AllModelsFailed, "{label}"),
        }
    }
}
