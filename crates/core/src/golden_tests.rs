//! Golden results: every strategy over a clean and a faulty pool, three
//! budgets and six degradation settings, pinned by digest. A change to the
//! round engine that alters any result fails here.
//!
//! Each case pins an FNV-1a digest of the `Debug` form of the whole result
//! except `events` (or of the error). OUA and the router's OUA fallback
//! also pin their event stream, with `elapsed_ms` zeroed: those are the
//! frames SSE clients receive. On a mismatch the test prints the lines it
//! computed, in the format of [`GOLDEN`].

#![cfg(test)]

use crate::config::{MabConfig, MabSelection, OrchestratorConfig, OuaConfig, Strategy};
use crate::equivalence_tests::{knowledge, pool};
use crate::events::OrchestrationEvent;
use crate::orchestrator::{Orchestrator, QueryOverrides};
use crate::{HybridConfig, RouterConfig, TaskIndex};
use llmms_models::chaos::{ChaosModel, FaultKind};
use llmms_models::SharedModel;

const QUESTION: &str = "What is the capital of France?";
const POOLS: [&str; 2] = ["clean", "faulty"];
const BUDGETS: [usize; 3] = [10, 47, 160];
const LIMITS: [&str; 6] = [
    "free",
    "rounds2",
    "brownout1",
    "brownout2",
    "brownout3",
    "deadline0",
];

fn strategy(name: &str) -> Strategy {
    let routed = |preferred: &str| {
        Strategy::Routed(RouterConfig::new(TaskIndex::build(
            &[(
                "geography",
                &["what is the capital of france", "which city is the capital"][..],
                preferred,
            )],
            &llmms_embed::default_embedder(),
        )))
    };
    let mab = |selection, early_stop, pull_tokens| {
        Strategy::Mab(MabConfig {
            selection,
            early_stop,
            pull_tokens,
            ..MabConfig::default()
        })
    };
    match name {
        "oua-default" => Strategy::Oua(OuaConfig::default()),
        "oua-tight" => Strategy::Oua(OuaConfig {
            round_tokens: 6,
            prune_margin: 0.05,
            win_margin: 0.05,
            ..OuaConfig::default()
        }),
        "mab-default" => Strategy::Mab(MabConfig::default()),
        "mab-final-early" => mab(MabSelection::FinalScore, true, 1),
        "mab-cumulative" => mab(MabSelection::Cumulative, true, 2),
        "mab-mean" => mab(MabSelection::Mean, true, 2),
        "hybrid-default" => Strategy::Hybrid(HybridConfig::default()),
        "hybrid-tight" => Strategy::Hybrid(HybridConfig {
            probe_rounds: 2,
            probe_tokens: 5,
            prune_margin: 0.05,
            ..HybridConfig::default()
        }),
        "routed-solo" => routed("m0"),
        "routed-fallback" => routed("not-in-pool"),
        "single" => Strategy::Single,
        other => panic!("unknown golden strategy {other}"),
    }
}

/// The equivalence suite's pool, clean or with one flaky, one fatally
/// failing and one stalling arm. `single` runs over the first arm alone.
fn models(name: &str, faulty: bool) -> Vec<SharedModel> {
    let mut models: Vec<SharedModel> = pool(&knowledge())
        .into_iter()
        .enumerate()
        .map(|(i, m)| match (faulty, i) {
            (true, 0) => ChaosModel::wrap(m, FaultKind::Flaky { p: 0.3 }, 11),
            (true, 1) => ChaosModel::wrap(
                m,
                FaultKind::ErrorAfterN {
                    n: 2,
                    transient: false,
                },
                7,
            ),
            (true, 3) => ChaosModel::wrap(m, FaultKind::Stall, 7),
            _ => m,
        })
        .collect();
    if name == "single" {
        models.truncate(1);
    }
    models
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One golden line: `strategy pool budget limit result-digest events-digest`,
/// the events digest being `-` where it is not pinned or there is no result.
fn case(name: &str, pool: &str, budget: usize, limit: &str) -> String {
    let mut config = OrchestratorConfig {
        strategy: strategy(name),
        token_budget: budget,
        temperature: 0.3,
        seed: 42,
        record_events: true,
        ..OrchestratorConfig::default()
    };
    let mut overrides = QueryOverrides::default();
    match limit {
        "rounds2" => config.max_rounds = Some(2),
        "brownout1" => overrides.brownout_level = 1,
        "brownout2" => overrides.brownout_level = 2,
        "brownout3" => overrides.brownout_level = 3,
        "deadline0" => config.query_deadline_ms = Some(0),
        _ => {}
    }
    let models = models(name, pool == "faulty");
    let outcome = Orchestrator::new(llmms_embed::default_embedder(), config)
        .run_with(&models, QUESTION, overrides);
    let pins_events = matches!(name, "oua-default" | "oua-tight" | "routed-fallback");
    let (result, events) = match outcome {
        Ok(mut r) => {
            let events = std::mem::take(&mut r.events);
            let events = pins_events.then(|| {
                let frames: Vec<String> = events
                    .into_iter()
                    .map(|e| match e.event {
                        OrchestrationEvent::DeadlineExceeded { scope, .. } => {
                            OrchestrationEvent::DeadlineExceeded {
                                scope,
                                elapsed_ms: 0,
                            }
                        }
                        event => event,
                    })
                    .map(|event| format!("{event:?}"))
                    .collect();
                format!("{:016x}", fnv1a(&frames.join("\n")))
            });
            (fnv1a(&format!("{r:?}")), events)
        }
        Err(e) => (fnv1a(&format!("{e:?}")), None),
    };
    format!(
        "{name} {pool} {budget} {limit} {result:016x} {}",
        events.as_deref().unwrap_or("-")
    )
}

fn check(name: &str) {
    let mut actual = Vec::new();
    for pool in POOLS {
        for budget in BUDGETS {
            for limit in LIMITS {
                actual.push(case(name, pool, budget, limit));
            }
        }
    }
    let expected: Vec<&str> = GOLDEN
        .lines()
        .filter(|line| line.split(' ').next() == Some(name))
        .collect();
    if actual != expected {
        let differ: Vec<String> = actual
            .iter()
            .filter(|line| !expected.contains(&line.as_str()))
            .map(|line| line.split(' ').take(4).collect::<Vec<_>>().join(" "))
            .collect();
        eprintln!("{}", actual.join("\n"));
        panic!("{name}: {} golden cases differ: {differ:?}", differ.len());
    }
}

macro_rules! golden {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                check($name);
            }
        )*
    };
}

golden! {
    golden_oua_default => "oua-default",
    golden_oua_tight => "oua-tight",
    golden_mab_default => "mab-default",
    golden_mab_final_early => "mab-final-early",
    golden_mab_cumulative => "mab-cumulative",
    golden_mab_mean => "mab-mean",
    golden_hybrid_default => "hybrid-default",
    golden_hybrid_tight => "hybrid-tight",
    golden_routed_solo => "routed-solo",
    golden_routed_fallback => "routed-fallback",
    golden_single => "single",
}

/// `strategy pool budget limit result-digest events-digest`.
const GOLDEN: &str = "\
oua-default clean 10 free f520c5ba80db4798 ed5a5c9ab0ed08f0
oua-default clean 10 rounds2 f520c5ba80db4798 ed5a5c9ab0ed08f0
oua-default clean 10 brownout1 9282aa2f6e8d5db8 18d254ec8258cbc7
oua-default clean 10 brownout2 65c01f3e69a4d459 18d254ec8258cbc7
oua-default clean 10 brownout3 6a480ee4bd4bb9b2 18d254ec8258cbc7
oua-default clean 10 deadline0 2faf87c0a0dcb964 -
oua-default clean 47 free 14340fdd242ade44 f7cb54913cfe4d43
oua-default clean 47 rounds2 328f98b097d6e844 d3530c382c6b7c38
oua-default clean 47 brownout1 dc78326c5cf8cbf3 b818c8db2af9c2cf
oua-default clean 47 brownout2 7e093ba545fa93e6 b818c8db2af9c2cf
oua-default clean 47 brownout3 584984bf2adc70bd b818c8db2af9c2cf
oua-default clean 47 deadline0 2faf87c0a0dcb964 -
oua-default clean 160 free fdef25d1ba8c4697 8dc5f18a8f005b47
oua-default clean 160 rounds2 328f98b097d6e844 d3530c382c6b7c38
oua-default clean 160 brownout1 dc78326c5cf8cbf3 b818c8db2af9c2cf
oua-default clean 160 brownout2 7e093ba545fa93e6 b818c8db2af9c2cf
oua-default clean 160 brownout3 584984bf2adc70bd b818c8db2af9c2cf
oua-default clean 160 deadline0 2faf87c0a0dcb964 -
oua-default faulty 10 free f20d0e863c2846a9 a1585f516a3e3cc7
oua-default faulty 10 rounds2 df48565764d41511 c11dbbfdafe4a74e
oua-default faulty 10 brownout1 9282aa2f6e8d5db8 18d254ec8258cbc7
oua-default faulty 10 brownout2 65c01f3e69a4d459 18d254ec8258cbc7
oua-default faulty 10 brownout3 6a480ee4bd4bb9b2 18d254ec8258cbc7
oua-default faulty 10 deadline0 2faf87c0a0dcb964 -
oua-default faulty 47 free d28316191727e208 da14f62d4df719c8
oua-default faulty 47 rounds2 9e01995ac701877d 9ea1dd1ae6f701cb
oua-default faulty 47 brownout1 acc083b8ef96bf38 0f4aa9d29e0e941b
oua-default faulty 47 brownout2 7ffdf8c7eaae35d9 0f4aa9d29e0e941b
oua-default faulty 47 brownout3 8485e86e3e551b32 0f4aa9d29e0e941b
oua-default faulty 47 deadline0 2faf87c0a0dcb964 -
oua-default faulty 160 free f16f86f37828964f dcdc47f89094493a
oua-default faulty 160 rounds2 9e01995ac701877d 9ea1dd1ae6f701cb
oua-default faulty 160 brownout1 acc083b8ef96bf38 0f4aa9d29e0e941b
oua-default faulty 160 brownout2 7ffdf8c7eaae35d9 0f4aa9d29e0e941b
oua-default faulty 160 brownout3 8485e86e3e551b32 0f4aa9d29e0e941b
oua-default faulty 160 deadline0 2faf87c0a0dcb964 -
oua-tight clean 10 free f520c5ba80db4798 ed5a5c9ab0ed08f0
oua-tight clean 10 rounds2 f520c5ba80db4798 ed5a5c9ab0ed08f0
oua-tight clean 10 brownout1 50c7f6395f3c3fa3 be9fa855a4b96df7
oua-tight clean 10 brownout2 15c69a513d496796 be9fa855a4b96df7
oua-tight clean 10 brownout3 108e59b14297e4ed be9fa855a4b96df7
oua-tight clean 10 deadline0 2faf87c0a0dcb964 -
oua-tight clean 47 free 1199ffc310b68dfc 68a4306ecc0fae63
oua-tight clean 47 rounds2 b457583867996132 2b681301fea5c0ec
oua-tight clean 47 brownout1 94b8fe6c15e6971b 024ef8cba1207652
oua-tight clean 47 brownout2 c51bb54d7e45482e 024ef8cba1207652
oua-tight clean 47 brownout3 5ef91cb1f81932c5 024ef8cba1207652
oua-tight clean 47 deadline0 2faf87c0a0dcb964 -
oua-tight clean 160 free 3224bdee034c3c41 5bcee824fb28d391
oua-tight clean 160 rounds2 e9e3ee4bbedc49a9 d178fb801fe79d90
oua-tight clean 160 brownout1 94b8fe6c15e6971b 024ef8cba1207652
oua-tight clean 160 brownout2 c51bb54d7e45482e 024ef8cba1207652
oua-tight clean 160 brownout3 5ef91cb1f81932c5 024ef8cba1207652
oua-tight clean 160 deadline0 2faf87c0a0dcb964 -
oua-tight faulty 10 free 85ef7f7f8dc99ef8 53e13dd8ce34cea0
oua-tight faulty 10 rounds2 46f4262c5c3e5703 a17cd74c713b10d9
oua-tight faulty 10 brownout1 50c7f6395f3c3fa3 be9fa855a4b96df7
oua-tight faulty 10 brownout2 15c69a513d496796 be9fa855a4b96df7
oua-tight faulty 10 brownout3 108e59b14297e4ed be9fa855a4b96df7
oua-tight faulty 10 deadline0 2faf87c0a0dcb964 -
oua-tight faulty 47 free f6ada02fc1ee5262 f6f2f93ac90e4dde
oua-tight faulty 47 rounds2 ef5f954a030c5d5f 4d18c7d92d670343
oua-tight faulty 47 brownout1 67d4566259503528 7bc39e7e890c8ba0
oua-tight faulty 47 brownout2 cabf8ec83fc28649 7bc39e7e890c8ba0
oua-tight faulty 47 brownout3 08b0835bf90d9022 7bc39e7e890c8ba0
oua-tight faulty 47 deadline0 2faf87c0a0dcb964 -
oua-tight faulty 160 free f6ada02fc1ee5262 f6f2f93ac90e4dde
oua-tight faulty 160 rounds2 ef5f954a030c5d5f 4d18c7d92d670343
oua-tight faulty 160 brownout1 67d4566259503528 7bc39e7e890c8ba0
oua-tight faulty 160 brownout2 cabf8ec83fc28649 7bc39e7e890c8ba0
oua-tight faulty 160 brownout3 08b0835bf90d9022 7bc39e7e890c8ba0
oua-tight faulty 160 deadline0 2faf87c0a0dcb964 -
mab-default clean 10 free 5c812f7e6ae92f97 -
mab-default clean 10 rounds2 9f837159f948b42d -
mab-default clean 10 brownout1 423431128c32a2ef -
mab-default clean 10 brownout2 ead7cb19ce54b38b -
mab-default clean 10 brownout3 95b93f542b6a0e04 -
mab-default clean 10 deadline0 2faf87c0a0dcb964 -
mab-default clean 47 free e146b96324109d8b -
mab-default clean 47 rounds2 9f837159f948b42d -
mab-default clean 47 brownout1 d4088c4e5ebbbfed -
mab-default clean 47 brownout2 ead7cb19ce54b38b -
mab-default clean 47 brownout3 95b93f542b6a0e04 -
mab-default clean 47 deadline0 2faf87c0a0dcb964 -
mab-default clean 160 free 3b21adf46b34d5de -
mab-default clean 160 rounds2 9f837159f948b42d -
mab-default clean 160 brownout1 d4088c4e5ebbbfed -
mab-default clean 160 brownout2 ead7cb19ce54b38b -
mab-default clean 160 brownout3 95b93f542b6a0e04 -
mab-default clean 160 deadline0 2faf87c0a0dcb964 -
mab-default faulty 10 free 82f05ec54f7f344d -
mab-default faulty 10 rounds2 4a8ad7974f56ff26 -
mab-default faulty 10 brownout1 ccc849e02dbafefe -
mab-default faulty 10 brownout2 704e85784607e381 -
mab-default faulty 10 brownout3 c33020248e0815ba -
mab-default faulty 10 deadline0 2faf87c0a0dcb964 -
mab-default faulty 47 free 9c1736ca0f043aa4 -
mab-default faulty 47 rounds2 4a8ad7974f56ff26 -
mab-default faulty 47 brownout1 7fa2a2c93b08df00 -
mab-default faulty 47 brownout2 704e85784607e381 -
mab-default faulty 47 brownout3 c33020248e0815ba -
mab-default faulty 47 deadline0 2faf87c0a0dcb964 -
mab-default faulty 160 free 9c1736ca0f043aa4 -
mab-default faulty 160 rounds2 4a8ad7974f56ff26 -
mab-default faulty 160 brownout1 7fa2a2c93b08df00 -
mab-default faulty 160 brownout2 704e85784607e381 -
mab-default faulty 160 brownout3 c33020248e0815ba -
mab-default faulty 160 deadline0 2faf87c0a0dcb964 -
mab-final-early clean 10 free 5c812f7e6ae92f97 -
mab-final-early clean 10 rounds2 9f837159f948b42d -
mab-final-early clean 10 brownout1 423431128c32a2ef -
mab-final-early clean 10 brownout2 ead7cb19ce54b38b -
mab-final-early clean 10 brownout3 95b93f542b6a0e04 -
mab-final-early clean 10 deadline0 2faf87c0a0dcb964 -
mab-final-early clean 47 free 71deb004c9f33516 -
mab-final-early clean 47 rounds2 9f837159f948b42d -
mab-final-early clean 47 brownout1 28ba11339861a046 -
mab-final-early clean 47 brownout2 ead7cb19ce54b38b -
mab-final-early clean 47 brownout3 95b93f542b6a0e04 -
mab-final-early clean 47 deadline0 2faf87c0a0dcb964 -
mab-final-early clean 160 free cd023bb85d83ed0b -
mab-final-early clean 160 rounds2 9f837159f948b42d -
mab-final-early clean 160 brownout1 e27c1886c5a23e54 -
mab-final-early clean 160 brownout2 ead7cb19ce54b38b -
mab-final-early clean 160 brownout3 95b93f542b6a0e04 -
mab-final-early clean 160 deadline0 2faf87c0a0dcb964 -
mab-final-early faulty 10 free 82f05ec54f7f344d -
mab-final-early faulty 10 rounds2 4a8ad7974f56ff26 -
mab-final-early faulty 10 brownout1 ccc849e02dbafefe -
mab-final-early faulty 10 brownout2 704e85784607e381 -
mab-final-early faulty 10 brownout3 c33020248e0815ba -
mab-final-early faulty 10 deadline0 2faf87c0a0dcb964 -
mab-final-early faulty 47 free 9c1736ca0f043aa4 -
mab-final-early faulty 47 rounds2 4a8ad7974f56ff26 -
mab-final-early faulty 47 brownout1 7fa2a2c93b08df00 -
mab-final-early faulty 47 brownout2 704e85784607e381 -
mab-final-early faulty 47 brownout3 c33020248e0815ba -
mab-final-early faulty 47 deadline0 2faf87c0a0dcb964 -
mab-final-early faulty 160 free 9c1736ca0f043aa4 -
mab-final-early faulty 160 rounds2 4a8ad7974f56ff26 -
mab-final-early faulty 160 brownout1 7fa2a2c93b08df00 -
mab-final-early faulty 160 brownout2 704e85784607e381 -
mab-final-early faulty 160 brownout3 c33020248e0815ba -
mab-final-early faulty 160 deadline0 2faf87c0a0dcb964 -
mab-cumulative clean 10 free c44651dd2b9208f9 -
mab-cumulative clean 10 rounds2 e3519f72bd9b4b86 -
mab-cumulative clean 10 brownout1 38501485ed7df225 -
mab-cumulative clean 10 brownout2 dba8cddec1ef3313 -
mab-cumulative clean 10 brownout3 89115eb75681df6c -
mab-cumulative clean 10 deadline0 2faf87c0a0dcb964 -
mab-cumulative clean 47 free f7921e62859326f2 -
mab-cumulative clean 47 rounds2 e3519f72bd9b4b86 -
mab-cumulative clean 47 brownout1 a31736b2a5dd7479 -
mab-cumulative clean 47 brownout2 dba8cddec1ef3313 -
mab-cumulative clean 47 brownout3 89115eb75681df6c -
mab-cumulative clean 47 deadline0 2faf87c0a0dcb964 -
mab-cumulative clean 160 free 5a9ad5344e3c5be5 -
mab-cumulative clean 160 rounds2 e3519f72bd9b4b86 -
mab-cumulative clean 160 brownout1 a31736b2a5dd7479 -
mab-cumulative clean 160 brownout2 dba8cddec1ef3313 -
mab-cumulative clean 160 brownout3 89115eb75681df6c -
mab-cumulative clean 160 deadline0 2faf87c0a0dcb964 -
mab-cumulative faulty 10 free 4e9d912a49148ab4 -
mab-cumulative faulty 10 rounds2 4a8ad7974f56ff26 -
mab-cumulative faulty 10 brownout1 c30b254a1e54ab6b -
mab-cumulative faulty 10 brownout2 2abb0e115e3dd814 -
mab-cumulative faulty 10 brownout3 7e4c7ec855c4465b -
mab-cumulative faulty 10 deadline0 2faf87c0a0dcb964 -
mab-cumulative faulty 47 free 310cdaa8ea27fa72 -
mab-cumulative faulty 47 rounds2 4a8ad7974f56ff26 -
mab-cumulative faulty 47 brownout1 b790ed6eff9af626 -
mab-cumulative faulty 47 brownout2 2abb0e115e3dd814 -
mab-cumulative faulty 47 brownout3 7e4c7ec855c4465b -
mab-cumulative faulty 47 deadline0 2faf87c0a0dcb964 -
mab-cumulative faulty 160 free 5d20508e8b3762b4 -
mab-cumulative faulty 160 rounds2 4a8ad7974f56ff26 -
mab-cumulative faulty 160 brownout1 b790ed6eff9af626 -
mab-cumulative faulty 160 brownout2 2abb0e115e3dd814 -
mab-cumulative faulty 160 brownout3 7e4c7ec855c4465b -
mab-cumulative faulty 160 deadline0 2faf87c0a0dcb964 -
mab-mean clean 10 free d26320d5a3011a4b -
mab-mean clean 10 rounds2 e3519f72bd9b4b86 -
mab-mean clean 10 brownout1 ec29215d7bb719ef -
mab-mean clean 10 brownout2 93aca561c14c102d -
mab-mean clean 10 brownout3 61be3f3ad159acd6 -
mab-mean clean 10 deadline0 2faf87c0a0dcb964 -
mab-mean clean 47 free 5faabadd824f2d88 -
mab-mean clean 47 rounds2 e3519f72bd9b4b86 -
mab-mean clean 47 brownout1 6dc10298eb9f2a36 -
mab-mean clean 47 brownout2 93aca561c14c102d -
mab-mean clean 47 brownout3 61be3f3ad159acd6 -
mab-mean clean 47 deadline0 2faf87c0a0dcb964 -
mab-mean clean 160 free c0ab679fc58f14a5 -
mab-mean clean 160 rounds2 e3519f72bd9b4b86 -
mab-mean clean 160 brownout1 6dc10298eb9f2a36 -
mab-mean clean 160 brownout2 93aca561c14c102d -
mab-mean clean 160 brownout3 61be3f3ad159acd6 -
mab-mean clean 160 deadline0 2faf87c0a0dcb964 -
mab-mean faulty 10 free 4cd8d160861e2ab9 -
mab-mean faulty 10 rounds2 4a8ad7974f56ff26 -
mab-mean faulty 10 brownout1 9188c83bf495af8e -
mab-mean faulty 10 brownout2 131b0b3af30bf7ca -
mab-mean faulty 10 brownout3 7ed0759cdd288291 -
mab-mean faulty 10 deadline0 2faf87c0a0dcb964 -
mab-mean faulty 47 free ead9d5780bb61ace -
mab-mean faulty 47 rounds2 4a8ad7974f56ff26 -
mab-mean faulty 47 brownout1 0c18159f865ed5a6 -
mab-mean faulty 47 brownout2 131b0b3af30bf7ca -
mab-mean faulty 47 brownout3 7ed0759cdd288291 -
mab-mean faulty 47 deadline0 2faf87c0a0dcb964 -
mab-mean faulty 160 free be636b723716f71b -
mab-mean faulty 160 rounds2 4a8ad7974f56ff26 -
mab-mean faulty 160 brownout1 0c18159f865ed5a6 -
mab-mean faulty 160 brownout2 131b0b3af30bf7ca -
mab-mean faulty 160 brownout3 7ed0759cdd288291 -
mab-mean faulty 160 deadline0 2faf87c0a0dcb964 -
hybrid-default clean 10 free 149fa7d57bc5601c -
hybrid-default clean 10 rounds2 149fa7d57bc5601c -
hybrid-default clean 10 brownout1 2e1f79f31e1147d0 -
hybrid-default clean 10 brownout2 ccc42ed5c6946e31 -
hybrid-default clean 10 brownout3 523803b7c52b526a -
hybrid-default clean 10 deadline0 2faf87c0a0dcb964 -
hybrid-default clean 47 free 8e10a4f770f971aa -
hybrid-default clean 47 rounds2 e6fa1add0520b75c -
hybrid-default clean 47 brownout1 b9126e5348904af0 -
hybrid-default clean 47 brownout2 695076ad73b2be8a -
hybrid-default clean 47 brownout3 8c3c4c51d56ff651 -
hybrid-default clean 47 deadline0 2faf87c0a0dcb964 -
hybrid-default clean 160 free 8e10a4f770f971aa -
hybrid-default clean 160 rounds2 e6fa1add0520b75c -
hybrid-default clean 160 brownout1 b9126e5348904af0 -
hybrid-default clean 160 brownout2 695076ad73b2be8a -
hybrid-default clean 160 brownout3 8c3c4c51d56ff651 -
hybrid-default clean 160 deadline0 2faf87c0a0dcb964 -
hybrid-default faulty 10 free ea56e3bb47e9cae8 -
hybrid-default faulty 10 rounds2 ea56e3bb47e9cae8 -
hybrid-default faulty 10 brownout1 2e1f79f31e1147d0 -
hybrid-default faulty 10 brownout2 ccc42ed5c6946e31 -
hybrid-default faulty 10 brownout3 523803b7c52b526a -
hybrid-default faulty 10 deadline0 2faf87c0a0dcb964 -
hybrid-default faulty 47 free 67ab12a0b92bf902 -
hybrid-default faulty 47 rounds2 14d6ecb67c56fd9c -
hybrid-default faulty 47 brownout1 cf6b3deedfc3cc32 -
hybrid-default faulty 47 brownout2 fc70329981fe9cff -
hybrid-default faulty 47 brownout3 f7a5d93991057038 -
hybrid-default faulty 47 deadline0 2faf87c0a0dcb964 -
hybrid-default faulty 160 free 67ab12a0b92bf902 -
hybrid-default faulty 160 rounds2 14d6ecb67c56fd9c -
hybrid-default faulty 160 brownout1 cf6b3deedfc3cc32 -
hybrid-default faulty 160 brownout2 fc70329981fe9cff -
hybrid-default faulty 160 brownout3 f7a5d93991057038 -
hybrid-default faulty 160 deadline0 2faf87c0a0dcb964 -
hybrid-tight clean 10 free e2bf85477fc4441f -
hybrid-tight clean 10 rounds2 e2bf85477fc4441f -
hybrid-tight clean 10 brownout1 c580fe095bf330f2 -
hybrid-tight clean 10 brownout2 e6fcf8823d1ababf -
hybrid-tight clean 10 brownout3 3cf59aea427001f8 -
hybrid-tight clean 10 deadline0 2faf87c0a0dcb964 -
hybrid-tight clean 47 free 1dface9195d006b7 -
hybrid-tight clean 47 rounds2 e24449d621bde706 -
hybrid-tight clean 47 brownout1 fde22888246100d5 -
hybrid-tight clean 47 brownout2 1c7c7e5e67101826 -
hybrid-tight clean 47 brownout3 e28ae68c35a038fd -
hybrid-tight clean 47 deadline0 2faf87c0a0dcb964 -
hybrid-tight clean 160 free 1dface9195d006b7 -
hybrid-tight clean 160 rounds2 e24449d621bde706 -
hybrid-tight clean 160 brownout1 fde22888246100d5 -
hybrid-tight clean 160 brownout2 1c7c7e5e67101826 -
hybrid-tight clean 160 brownout3 e28ae68c35a038fd -
hybrid-tight clean 160 deadline0 2faf87c0a0dcb964 -
hybrid-tight faulty 10 free 3f11bb757392d781 -
hybrid-tight faulty 10 rounds2 3f11bb757392d781 -
hybrid-tight faulty 10 brownout1 c580fe095bf330f2 -
hybrid-tight faulty 10 brownout2 e6fcf8823d1ababf -
hybrid-tight faulty 10 brownout3 3cf59aea427001f8 -
hybrid-tight faulty 10 deadline0 2faf87c0a0dcb964 -
hybrid-tight faulty 47 free cbf19eef3f3f33fc -
hybrid-tight faulty 47 rounds2 073f88891220e3f4 -
hybrid-tight faulty 47 brownout1 68d538d4cf1634dc -
hybrid-tight faulty 47 brownout2 ea7d8919e60b274d -
hybrid-tight faulty 47 brownout3 0116409509d875f6 -
hybrid-tight faulty 47 deadline0 2faf87c0a0dcb964 -
hybrid-tight faulty 160 free cbf19eef3f3f33fc -
hybrid-tight faulty 160 rounds2 073f88891220e3f4 -
hybrid-tight faulty 160 brownout1 68d538d4cf1634dc -
hybrid-tight faulty 160 brownout2 ea7d8919e60b274d -
hybrid-tight faulty 160 brownout3 0116409509d875f6 -
hybrid-tight faulty 160 deadline0 2faf87c0a0dcb964 -
routed-solo clean 10 free cded88da5e2ae518 -
routed-solo clean 10 rounds2 cded88da5e2ae518 -
routed-solo clean 10 brownout1 8530ada8795bc768 -
routed-solo clean 10 brownout2 a8f242352971c989 -
routed-solo clean 10 brownout3 3503c4991eb19962 -
routed-solo clean 10 deadline0 2faf87c0a0dcb964 -
routed-solo clean 47 free 00b839668a681a83 -
routed-solo clean 47 rounds2 00b839668a681a83 -
routed-solo clean 47 brownout1 4a75a09a9b92a279 -
routed-solo clean 47 brownout2 803eb6728c22c3d8 -
routed-solo clean 47 brownout3 7361f46d6cd0459f -
routed-solo clean 47 deadline0 2faf87c0a0dcb964 -
routed-solo clean 160 free 00b839668a681a83 -
routed-solo clean 160 rounds2 00b839668a681a83 -
routed-solo clean 160 brownout1 4a75a09a9b92a279 -
routed-solo clean 160 brownout2 803eb6728c22c3d8 -
routed-solo clean 160 brownout3 7361f46d6cd0459f -
routed-solo clean 160 deadline0 2faf87c0a0dcb964 -
routed-solo faulty 10 free cded88da5e2ae518 -
routed-solo faulty 10 rounds2 cded88da5e2ae518 -
routed-solo faulty 10 brownout1 8530ada8795bc768 -
routed-solo faulty 10 brownout2 a8f242352971c989 -
routed-solo faulty 10 brownout3 3503c4991eb19962 -
routed-solo faulty 10 deadline0 2faf87c0a0dcb964 -
routed-solo faulty 47 free 00b839668a681a83 -
routed-solo faulty 47 rounds2 00b839668a681a83 -
routed-solo faulty 47 brownout1 4a75a09a9b92a279 -
routed-solo faulty 47 brownout2 803eb6728c22c3d8 -
routed-solo faulty 47 brownout3 7361f46d6cd0459f -
routed-solo faulty 47 deadline0 2faf87c0a0dcb964 -
routed-solo faulty 160 free 00b839668a681a83 -
routed-solo faulty 160 rounds2 00b839668a681a83 -
routed-solo faulty 160 brownout1 4a75a09a9b92a279 -
routed-solo faulty 160 brownout2 803eb6728c22c3d8 -
routed-solo faulty 160 brownout3 7361f46d6cd0459f -
routed-solo faulty 160 deadline0 2faf87c0a0dcb964 -
routed-fallback clean 10 free 6556ed9bdb1a98f4 ed5a5c9ab0ed08f0
routed-fallback clean 10 rounds2 6556ed9bdb1a98f4 ed5a5c9ab0ed08f0
routed-fallback clean 10 brownout1 6abe487c1d4e659c 18d254ec8258cbc7
routed-fallback clean 10 brownout2 051e6677743e5a0d 18d254ec8258cbc7
routed-fallback clean 10 brownout3 1195b48477386eb6 18d254ec8258cbc7
routed-fallback clean 10 deadline0 2faf87c0a0dcb964 -
routed-fallback clean 47 free a98230b6c34ed158 f7cb54913cfe4d43
routed-fallback clean 47 rounds2 828f9b43a7212c20 d3530c382c6b7c38
routed-fallback clean 47 brownout1 6e205ab5f692f227 b818c8db2af9c2cf
routed-fallback clean 47 brownout2 620cbefe2e12cdba b818c8db2af9c2cf
routed-fallback clean 47 brownout3 0f2b2451e6129b81 b818c8db2af9c2cf
routed-fallback clean 47 deadline0 2faf87c0a0dcb964 -
routed-fallback clean 160 free 5e5ee400f2425bf3 8dc5f18a8f005b47
routed-fallback clean 160 rounds2 828f9b43a7212c20 d3530c382c6b7c38
routed-fallback clean 160 brownout1 6e205ab5f692f227 b818c8db2af9c2cf
routed-fallback clean 160 brownout2 620cbefe2e12cdba b818c8db2af9c2cf
routed-fallback clean 160 brownout3 0f2b2451e6129b81 b818c8db2af9c2cf
routed-fallback clean 160 deadline0 2faf87c0a0dcb964 -
routed-fallback faulty 10 free 7e5b516e0024677d a1585f516a3e3cc7
routed-fallback faulty 10 rounds2 b7d4d15b43e5c0bd c11dbbfdafe4a74e
routed-fallback faulty 10 brownout1 6abe487c1d4e659c 18d254ec8258cbc7
routed-fallback faulty 10 brownout2 051e6677743e5a0d 18d254ec8258cbc7
routed-fallback faulty 10 brownout3 1195b48477386eb6 18d254ec8258cbc7
routed-fallback faulty 10 deadline0 2faf87c0a0dcb964 -
routed-fallback faulty 47 free de26aa5a414aaab4 da14f62d4df719c8
routed-fallback faulty 47 rounds2 5abc07c956f9c991 9ea1dd1ae6f701cb
routed-fallback faulty 47 brownout1 9c8c9418a4f65654 0f4aa9d29e0e941b
routed-fallback faulty 47 brownout2 ea9cda6558e24845 0f4aa9d29e0e941b
routed-fallback faulty 47 brownout3 50bf7300df0e5dae 0f4aa9d29e0e941b
routed-fallback faulty 47 deadline0 2faf87c0a0dcb964 -
routed-fallback faulty 160 free b3369205d2236673 dcdc47f89094493a
routed-fallback faulty 160 rounds2 5abc07c956f9c991 9ea1dd1ae6f701cb
routed-fallback faulty 160 brownout1 9c8c9418a4f65654 0f4aa9d29e0e941b
routed-fallback faulty 160 brownout2 ea9cda6558e24845 0f4aa9d29e0e941b
routed-fallback faulty 160 brownout3 50bf7300df0e5dae 0f4aa9d29e0e941b
routed-fallback faulty 160 deadline0 2faf87c0a0dcb964 -
single clean 10 free ec62d13b7ec6d4c3 -
single clean 10 rounds2 ec62d13b7ec6d4c3 -
single clean 10 brownout1 a4941de4ceec85b9 -
single clean 10 brownout2 29bd568a8bc88b18 -
single clean 10 brownout3 7a797533907dbcdf -
single clean 10 deadline0 2faf87c0a0dcb964 -
single clean 47 free 8e28403085633c28 -
single clean 47 rounds2 8e28403085633c28 -
single clean 47 brownout1 a10e49bff9c8be18 -
single clean 47 brownout2 1be5111a3cecb8b9 -
single clean 47 brownout3 25709b4eaa47f492 -
single clean 47 deadline0 2faf87c0a0dcb964 -
single clean 160 free 8e28403085633c28 -
single clean 160 rounds2 8e28403085633c28 -
single clean 160 brownout1 a10e49bff9c8be18 -
single clean 160 brownout2 1be5111a3cecb8b9 -
single clean 160 brownout3 25709b4eaa47f492 -
single clean 160 deadline0 2faf87c0a0dcb964 -
single faulty 10 free ec62d13b7ec6d4c3 -
single faulty 10 rounds2 ec62d13b7ec6d4c3 -
single faulty 10 brownout1 a4941de4ceec85b9 -
single faulty 10 brownout2 29bd568a8bc88b18 -
single faulty 10 brownout3 7a797533907dbcdf -
single faulty 10 deadline0 2faf87c0a0dcb964 -
single faulty 47 free 8e28403085633c28 -
single faulty 47 rounds2 8e28403085633c28 -
single faulty 47 brownout1 a10e49bff9c8be18 -
single faulty 47 brownout2 1be5111a3cecb8b9 -
single faulty 47 brownout3 25709b4eaa47f492 -
single faulty 47 deadline0 2faf87c0a0dcb964 -
single faulty 160 free 8e28403085633c28 -
single faulty 160 rounds2 8e28403085633c28 -
single faulty 160 brownout1 a10e49bff9c8be18 -
single faulty 160 brownout2 1be5111a3cecb8b9 -
single faulty 160 brownout3 25709b4eaa47f492 -
single faulty 160 deadline0 2faf87c0a0dcb964 -
";
