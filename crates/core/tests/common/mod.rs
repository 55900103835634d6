//! Test models shared by the round-engine tests: synthetic arms that log
//! the thread of every step and can sleep per chunk, an embedder that costs
//! nothing, and the OUA orchestrator both files drive.
//!
//! Every arm emits the same word stream, so scores tie exactly: no prune,
//! no early win, and every round steps every arm.

// Each test binary compiles its own copy and uses only part of it.
#![allow(dead_code)]

use llmms_core::{Orchestrator, OrchestratorConfig, OuaConfig, Strategy};
use llmms_embed::{Embedder, Embedding};
use llmms_models::{
    Chunk, DoneReason, GenOptions, GenerationSession, LanguageModel, ModelError, ModelInfo,
};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

/// The threads that ran one session's steps, in step order.
pub type StepLog = Arc<Mutex<Vec<ThreadId>>>;

/// A model whose sessions log the thread of every step and, from step
/// `slow_from` on (the first step is 1), sleep `delay` per chunk the way a remote backend holds
/// the connection while it decodes.
pub struct Recorded {
    name: String,
    slow_from: usize,
    delay: Duration,
    logs: Mutex<Vec<StepLog>>,
}

impl Recorded {
    /// Model `recorded{i}`.
    pub fn new(i: usize, slow_from: usize, delay: Duration) -> Arc<Recorded> {
        Arc::new(Recorded {
            name: format!("recorded{i}"),
            slow_from,
            delay,
            logs: Mutex::new(Vec::new()),
        })
    }

    /// The threads that ran this model's one session's steps.
    pub fn steps(&self) -> Vec<ThreadId> {
        let logs = self.logs.lock().unwrap();
        assert_eq!(logs.len(), 1, "one session per query");
        let steps = logs[0].lock().unwrap().clone();
        steps
    }
}

impl LanguageModel for Recorded {
    fn name(&self) -> &str {
        &self.name
    }

    fn info(&self) -> ModelInfo {
        ModelInfo {
            name: self.name.clone(),
            family: "recorded".into(),
            params_b: 0.0,
            context_window: 1 << 20,
            quantization: "none".into(),
            decode_tokens_per_second: 100.0,
        }
    }

    fn start(&self, _prompt: &str, options: &GenOptions) -> Box<dyn GenerationSession> {
        let log = StepLog::default();
        self.logs.lock().unwrap().push(Arc::clone(&log));
        Box::new(RecordedSession {
            log,
            slow_from: self.slow_from,
            delay: self.delay,
            cap: options.max_tokens,
            text: String::new(),
            tokens: 0,
            done: None,
        })
    }
}

pub struct RecordedSession {
    log: StepLog,
    slow_from: usize,
    delay: Duration,
    cap: usize,
    text: String,
    tokens: usize,
    done: Option<DoneReason>,
}

impl GenerationSession for RecordedSession {
    fn next_chunk(&mut self, max_tokens: usize) -> Result<Chunk, ModelError> {
        let step = {
            let mut log = self.log.lock().unwrap();
            log.push(thread::current().id());
            log.len()
        };
        if let Some(done) = self.done {
            return Ok(Chunk::finished(done));
        }
        if step >= self.slow_from {
            thread::sleep(self.delay);
        }
        let n = max_tokens.min(self.cap - self.tokens);
        for _ in 0..n {
            self.text.push_str(" token");
        }
        self.tokens += n;
        if self.tokens >= self.cap {
            self.done = Some(DoneReason::Length);
        }
        Ok(Chunk {
            text: " token".repeat(n),
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
        Duration::ZERO
    }

    fn abort(&mut self) {
        self.done = Some(DoneReason::Aborted);
    }
}

/// Embeds every text to the same unit vector at no cost.
pub struct ConstantEmbedder;

impl Embedder for ConstantEmbedder {
    fn dim(&self) -> usize {
        2
    }

    fn embed(&self, _text: &str) -> Embedding {
        Embedding::new(vec![1.0, 0.0])
    }
}

/// An OUA orchestrator over [`ConstantEmbedder`] whose rounds ask each arm
/// for `round_tokens` tokens, with a budget of `budget` tokens.
pub fn oua(round_tokens: usize, budget: usize) -> Orchestrator {
    Orchestrator::new(
        Arc::new(ConstantEmbedder),
        OrchestratorConfig {
            strategy: Strategy::Oua(OuaConfig {
                round_tokens,
                ..OuaConfig::default()
            }),
            token_budget: budget,
            temperature: 0.3,
            seed: 42,
            ..OrchestratorConfig::default()
        },
    )
}
