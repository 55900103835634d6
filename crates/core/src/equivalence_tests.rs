//! Engine-vs-reference equivalence, end to end.
//!
//! Two parts of the engine must be *behaviourally invisible*:
//!
//! * The incremental scoring engine (accumulator embeddings +
//!   [`crate::ScoreCache`]): same winner, same prunes, same rounds, scores
//!   within 1e-6 of embedding every response from scratch and scoring with
//!   [`crate::reward::score_all`].
//! * The parallel round engine: *bit-identical* to generating arm by arm on
//!   the calling thread — same winner, prunes, rounds, token accounting,
//!   retry/backoff bookkeeping, and the exact same event trace — including
//!   under injected transient/fatal faults and budget contention
//!   (deferred leases).
//!
//! The reference legs are test code: [`crate::reference`] selects them for
//! the current thread, and only `runpool::generate_round` and
//! `scoring::score_where` look.

#![cfg(test)]

use crate::config::{MabConfig, MabSelection, OrchestratorConfig, OuaConfig, Strategy};
use crate::hybrid::HybridConfig;
use crate::orchestrator::Orchestrator;
use crate::reference::{self, Reference};
use crate::result::OrchestrationResult;
use llmms_models::chaos::{ChaosModel, FaultKind};
use llmms_models::{KnowledgeEntry, KnowledgeStore, ModelProfile, SharedModel, SimLlm};
use std::sync::Arc;

pub(crate) fn knowledge() -> Arc<KnowledgeStore> {
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

/// A 4-model pool with spread-out skills so scoring decisions (prune, early
/// win, bandit concentration) actually trigger.
pub(crate) fn pool(store: &Arc<KnowledgeStore>) -> Vec<SharedModel> {
    [950u16, 700, 450, 150]
        .iter()
        .enumerate()
        .map(|(i, &skill)| {
            let mut p = ModelProfile::llama3_8b();
            p.name = format!("m{i}");
            p.skills.clear();
            p.default_skill = f64::from(skill) / 1000.0;
            p.hedging = 0.2;
            p.verbosity = 0.3;
            Arc::new(SimLlm::new(p, Arc::clone(store))) as SharedModel
        })
        .collect()
}

fn run_with(strategy: Strategy, models: &[SharedModel], incremental: bool) -> OrchestrationResult {
    let o = Orchestrator::new(
        llmms_embed::default_embedder(),
        OrchestratorConfig {
            strategy,
            token_budget: 160,
            temperature: 0.3,
            seed: 42,
            ..OrchestratorConfig::default()
        },
    );
    // The naive leg is the fully inline, from-scratch reference.
    let _reference = reference::scope(Reference {
        inline_rounds: !incremental,
        scratch_scoring: !incremental,
    });
    o.run(models, "What is the capital of France?").unwrap()
}

/// Run with incremental scoring on both legs; only `parallel_gen` varies —
/// the parallel round engine against its inline reference, with the event
/// trace recorded so the comparison can be exact.
fn run_parallel_cfg(
    strategy: Strategy,
    models: &[SharedModel],
    parallel_gen: bool,
    token_budget: usize,
) -> OrchestrationResult {
    let o = Orchestrator::new(
        llmms_embed::default_embedder(),
        OrchestratorConfig {
            strategy,
            token_budget,
            temperature: 0.3,
            seed: 42,
            record_events: true,
            ..OrchestratorConfig::default()
        },
    );
    let _reference = reference::scope(Reference {
        inline_rounds: !parallel_gen,
        scratch_scoring: false,
    });
    o.run(models, "What is the capital of France?").unwrap()
}

fn assert_equivalent(fast: &OrchestrationResult, naive: &OrchestrationResult) {
    assert_eq!(fast.best, naive.best, "winner index diverged");
    assert_eq!(fast.response(), naive.response(), "winning text diverged");
    assert_eq!(fast.rounds, naive.rounds, "round count diverged");
    assert_eq!(fast.total_tokens, naive.total_tokens);
    assert_eq!(fast.outcomes.len(), naive.outcomes.len());
    for (f, n) in fast.outcomes.iter().zip(&naive.outcomes) {
        assert_eq!(f.model, n.model);
        assert_eq!(f.pruned, n.pruned, "{}: prune decision diverged", f.model);
        assert_eq!(f.failed, n.failed, "{}: failure state diverged", f.model);
        assert_eq!(f.tokens, n.tokens, "{}: token count diverged", f.model);
        assert_eq!(f.response, n.response, "{}: response diverged", f.model);
        assert_eq!(f.done, n.done, "{}: done reason diverged", f.model);
        assert_eq!(f.rounds, n.rounds, "{}: round count diverged", f.model);
        assert_eq!(f.retries, n.retries, "{}: retry count diverged", f.model);
        assert_eq!(f.backoff_ms, n.backoff_ms, "{}: backoff diverged", f.model);
        assert!(
            (f.score - n.score).abs() < 1e-6,
            "{}: score {} vs naive {}",
            f.model,
            f.score,
            n.score
        );
    }
}

/// The parallel engine's claim is stronger than score tolerance: the stamped
/// event sequences (chunk by chunk, prune by prune, deadline by deadline)
/// must match the sequential oracle exactly, timestamps aside.
fn assert_identical_trace(par: &OrchestrationResult, seq: &OrchestrationResult) {
    let pe: Vec<_> = par.events.iter().map(|e| &e.event).collect();
    let se: Vec<_> = seq.events.iter().map(|e| &e.event).collect();
    assert_eq!(pe, se, "event traces diverged");
    for (f, n) in par.outcomes.iter().zip(&seq.outcomes) {
        assert_eq!(
            f.score.to_bits(),
            n.score.to_bits(),
            "{}: parallel scores must be bit-identical",
            f.model
        );
    }
}

#[test]
fn oua_incremental_equals_naive() {
    let store = knowledge();
    let models = pool(&store);
    let strategy = Strategy::Oua(OuaConfig {
        round_tokens: 6,
        prune_margin: 0.05,
        win_margin: 0.05,
        ..OuaConfig::default()
    });
    let fast = run_with(strategy.clone(), &models, true);
    let naive = run_with(strategy, &models, false);
    assert_equivalent(&fast, &naive);
    // The fixture must actually exercise pruning, or the prune-decision
    // assertion above is vacuous.
    assert!(
        naive.outcomes.iter().any(|o| o.pruned),
        "fixture produced no prune decisions"
    );
}

#[test]
fn mab_incremental_equals_naive() {
    let store = knowledge();
    let models = pool(&store);
    let strategy = Strategy::Mab(MabConfig {
        pull_tokens: 6,
        selection: MabSelection::FinalScore,
        ..MabConfig::default()
    });
    let fast = run_with(strategy.clone(), &models, true);
    let naive = run_with(strategy, &models, false);
    assert_equivalent(&fast, &naive);
}

#[test]
fn mab_early_stop_incremental_equals_naive() {
    // early_stop + FinalScore re-scores the whole pool every iteration —
    // the heaviest user of the cache's clean-arm fast path.
    let store = knowledge();
    let models = pool(&store);
    let strategy = Strategy::Mab(MabConfig {
        pull_tokens: 6,
        selection: MabSelection::FinalScore,
        early_stop: true,
        ..MabConfig::default()
    });
    let fast = run_with(strategy.clone(), &models, true);
    let naive = run_with(strategy, &models, false);
    assert_equivalent(&fast, &naive);
}

#[test]
fn hybrid_incremental_equals_naive() {
    let store = knowledge();
    let models = pool(&store);
    let strategy = Strategy::Hybrid(HybridConfig {
        probe_rounds: 2,
        probe_tokens: 5,
        prune_margin: 0.05,
        ..HybridConfig::default()
    });
    let fast = run_with(strategy.clone(), &models, true);
    let naive = run_with(strategy, &models, false);
    assert_equivalent(&fast, &naive);
}

#[test]
fn equivalence_survives_backend_faults() {
    // Failed arms freeze mid-text and drop out of participation masks; the
    // cache must track that identically to the naive path.
    let store = knowledge();
    let base = pool(&store);
    let models: Vec<SharedModel> = base
        .into_iter()
        .enumerate()
        .map(|(i, m)| match i {
            1 => ChaosModel::wrap(
                m,
                FaultKind::ErrorAfterN {
                    n: 2,
                    transient: false,
                },
                7,
            ),
            3 => ChaosModel::wrap(m, FaultKind::Stall, 7),
            _ => m,
        })
        .collect();
    for strategy in [
        Strategy::Oua(OuaConfig {
            round_tokens: 6,
            ..OuaConfig::default()
        }),
        Strategy::Mab(MabConfig {
            pull_tokens: 6,
            ..MabConfig::default()
        }),
        Strategy::Hybrid(HybridConfig::default()),
    ] {
        let fast = run_with(strategy.clone(), &models, true);
        let naive = run_with(strategy, &models, false);
        assert_equivalent(&fast, &naive);
        assert!(
            naive.outcomes.iter().any(|o| o.failed),
            "fixture produced no failed arms"
        );
    }
}

/// The strategies the parallel engine touches (MAB included as a guard: it
/// never fans out, so the two legs must trivially coincide).
fn parallel_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Oua(OuaConfig {
            round_tokens: 6,
            prune_margin: 0.05,
            win_margin: 0.05,
            ..OuaConfig::default()
        }),
        Strategy::Mab(MabConfig {
            pull_tokens: 6,
            selection: MabSelection::FinalScore,
            ..MabConfig::default()
        }),
        Strategy::Hybrid(HybridConfig {
            probe_rounds: 2,
            probe_tokens: 5,
            prune_margin: 0.05,
            ..HybridConfig::default()
        }),
    ]
}

#[test]
fn parallel_generation_equals_sequential() {
    let store = knowledge();
    let models = pool(&store);
    for strategy in parallel_strategies() {
        let par = run_parallel_cfg(strategy.clone(), &models, true, 160);
        let seq = run_parallel_cfg(strategy, &models, false, 160);
        assert_equivalent(&par, &seq);
        assert_identical_trace(&par, &seq);
    }
}

#[test]
fn parallel_generation_survives_backend_faults() {
    // A pool with one flaky arm (transient errors → accounted retries), one
    // fatally erroring arm, and one staller: the barrier must replay retry
    // counters, backoff accounting, stall failures, and health reporting in
    // exactly the sequential order.
    let store = knowledge();
    let base = pool(&store);
    let models: Vec<SharedModel> = base
        .into_iter()
        .enumerate()
        .map(|(i, m)| match i {
            0 => ChaosModel::wrap(m, FaultKind::Flaky { p: 0.3 }, 11),
            1 => ChaosModel::wrap(
                m,
                FaultKind::ErrorAfterN {
                    n: 2,
                    transient: false,
                },
                7,
            ),
            3 => ChaosModel::wrap(m, FaultKind::Stall, 7),
            _ => m,
        })
        .collect();
    for strategy in parallel_strategies() {
        let par = run_parallel_cfg(strategy.clone(), &models, true, 160);
        let seq = run_parallel_cfg(strategy, &models, false, 160);
        assert_equivalent(&par, &seq);
        assert_identical_trace(&par, &seq);
        assert!(
            seq.outcomes.iter().any(|o| o.failed),
            "fixture produced no failed arms"
        );
    }
}

#[test]
fn parallel_replays_lease_deferral_under_contention() {
    // Budgets small enough that the pessimistic lease plan defers arms
    // every round: deferred arms run sequentially at the barrier against
    // the live budget, and the interleaved accounting must replay exactly —
    // including the final budget-exhausted round.
    let store = knowledge();
    let models = pool(&store);
    let mut any_exhausted = false;
    for token_budget in [10, 21, 47, 64] {
        for strategy in parallel_strategies() {
            let par = run_parallel_cfg(strategy.clone(), &models, true, token_budget);
            let seq = run_parallel_cfg(strategy, &models, false, token_budget);
            assert_equivalent(&par, &seq);
            assert_identical_trace(&par, &seq);
            any_exhausted |= seq.budget_exhausted;
        }
    }
    // The sweep must include at least one run that drained λ_max to the
    // last token (truncated grants and deferred leases at the edge), or the
    // contention claim above is vacuous.
    assert!(any_exhausted, "no budget in the sweep was exhausted");
}
