//! The parallel round engine overlaps its arms' generation.
//!
//! Four arms whose sessions sleep 8 ms per chunk, the way a remote backend
//! holds the connection while it decodes, run six 512-token OUA rounds.
//! Every arm emits the same word stream, so scores tie exactly: no prune,
//! no early win, and every round fans out to the whole pool. The engine
//! records each round's summed arm time (`round_busy_us`) and the time the
//! coordinator waited at the barrier (`round_wall_us`); their ratio is how
//! many arms ran at once, and it must reach 3 of the 4.
//!
//! The embedder returns one constant vector, so an arm's time is its
//! sleep. CPU work could overlap only as far as the machine has cores, and
//! an unoptimised build hashes 512-word chunks slowly enough to hide the
//! engine's overlap behind that limit.
//!
//! This file holds one test, so its process owns the exec pool and the
//! global metrics registry while it runs.

use llmms_core::{Orchestrator, OrchestratorConfig, OuaConfig, Strategy};
use llmms_embed::{Embedder, Embedding};
use llmms_models::{
    Chunk, DoneReason, GenOptions, GenerationSession, LanguageModel, ModelError, ModelInfo,
    SharedModel,
};
use llmms_obs::Registry;
use std::sync::Arc;
use std::time::Duration;

const POOL: usize = 4;
const DELAY: Duration = Duration::from_millis(8);
const ROUND_TOKENS: usize = 512;
const ROUNDS: usize = 6;

/// A model whose sessions sleep a fixed delay per chunk and never stop on
/// their own.
struct SlowSynth {
    name: String,
}

impl LanguageModel for SlowSynth {
    fn name(&self) -> &str {
        &self.name
    }

    fn info(&self) -> ModelInfo {
        ModelInfo {
            name: self.name.clone(),
            family: "slow-synth".into(),
            params_b: 0.0,
            context_window: 1 << 20,
            quantization: "none".into(),
            decode_tokens_per_second: 100.0,
        }
    }

    fn start(&self, _prompt: &str, options: &GenOptions) -> Box<dyn GenerationSession> {
        Box::new(SlowSession {
            cap: options.max_tokens,
            text: String::new(),
            tokens: 0,
            done: None,
        })
    }
}

struct SlowSession {
    cap: usize,
    text: String,
    tokens: usize,
    done: Option<DoneReason>,
}

impl GenerationSession for SlowSession {
    fn next_chunk(&mut self, max_tokens: usize) -> Result<Chunk, ModelError> {
        if let Some(done) = self.done {
            return Ok(Chunk::finished(done));
        }
        std::thread::sleep(DELAY);
        let n = max_tokens.min(self.cap - self.tokens);
        let chunk = " token".repeat(n);
        self.text.push_str(&chunk);
        self.tokens += n;
        if self.tokens >= self.cap {
            self.done = Some(DoneReason::Length);
        }
        Ok(Chunk {
            text: chunk,
            tokens: n,
            done: self.done,
        })
    }

    fn tokens_generated(&self) -> usize {
        self.tokens
    }

    fn response_so_far(&self) -> &str {
        &self.text
    }

    fn done_reason(&self) -> Option<DoneReason> {
        self.done
    }

    fn simulated_latency(&self) -> Duration {
        DELAY * u32::try_from(self.tokens.max(1)).unwrap_or(u32::MAX)
    }

    fn abort(&mut self) {
        self.done = Some(DoneReason::Aborted);
    }
}

/// Embeds every text to the same unit vector at no cost.
struct ConstantEmbedder;

impl Embedder for ConstantEmbedder {
    fn dim(&self) -> usize {
        2
    }

    fn embed(&self, _text: &str) -> Embedding {
        Embedding::new(vec![1.0, 0.0])
    }
}

fn histogram_sum(name: &str) -> f64 {
    Registry::global().histogram(name).metric.sum()
}

#[test]
fn four_sleeping_arms_overlap_at_least_three_fold() {
    let models: Vec<SharedModel> = (0..POOL)
        .map(|i| {
            Arc::new(SlowSynth {
                name: format!("slow{i}"),
            }) as SharedModel
        })
        .collect();
    let orchestrator = Orchestrator::new(
        Arc::new(ConstantEmbedder),
        OrchestratorConfig {
            strategy: Strategy::Oua(OuaConfig {
                round_tokens: ROUND_TOKENS,
                ..OuaConfig::default()
            }),
            token_budget: POOL * ROUND_TOKENS * ROUNDS,
            temperature: 0.3,
            seed: 42,
            ..OrchestratorConfig::default()
        },
    );
    let result = orchestrator
        .run(&models, "What is the capital of France?")
        .expect("the pool orchestrates");
    assert_eq!(result.rounds, ROUNDS, "an arm stopped or was pruned early");
    let busy = histogram_sum("round_busy_us");
    let wall = histogram_sum("round_wall_us");
    assert!(wall > 0.0, "no fanned-out round was measured");
    let overlap = busy / wall;
    assert!(
        overlap >= 3.0,
        "round overlap {overlap:.2} (busy {busy:.0} us over wall {wall:.0} us) is below 3 at pool {POOL}"
    );
}
