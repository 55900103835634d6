//! Per-round wall-clock of the parallel round engine, and how much of each
//! round's generation work it overlaps.
//!
//! Runs the real orchestrator (OUA) over a pool of latency-simulating
//! models whose sessions *actually sleep* per chunk, the way a remote
//! Ollama backend holds the connection open while it decodes. All active
//! arms generate concurrently under the budget-lease protocol, with the
//! embed fold riding inside each generation worker.
//!
//! Each case reports the orchestration's wall-clock and the engine's own
//! overlap measurement: the sum of `round_busy_us` (time arms spent
//! generating and folding, added up across workers) over the sum of
//! `round_wall_us` (time the coordinator waited at the barrier). An overlap
//! of `k` means a round took a `k`-th of what its arms would have taken one
//! after another; it approaches the pool size from below. Sweeps pool size
//! × chunk length and writes `BENCH_parallel.json` at the given path
//! (default `BENCH_parallel.json` in the working directory).
//!
//! Usage:
//!   cargo run -p llmms-bench --release --bin parallel_snapshot [out.json]
//!   cargo run -p llmms-bench --release --bin parallel_snapshot -- --check
//!
//! `--check` runs a reduced workload and exits nonzero unless the overlap at
//! pool = 4 on the long-chunk case reaches 3 — the CI perf-smoke gate: at
//! least three of the four arms' generation and embed work must hide behind
//! the fourth's.

use llmms::core::{Orchestrator, OrchestratorConfig, OuaConfig, Strategy};
use llmms::embed::{
    Embedder, Embedding, HashedNgramEmbedder, IncrementalAccumulator, SharedEmbedder,
};
use llmms::models::{
    Chunk, DoneReason, GenOptions, GenerationSession, LanguageModel, ModelError, ModelInfo,
    SharedModel,
};
use serde_json::json;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The hashed n-gram embedder with per-word wall-clock cost, standing in
/// for the paper's Ollama-served encoder where every embedding request pays
/// network + decode latency proportional to its text: a full re-embed pays
/// for every word of the text, an incremental fold pays only for the words
/// appended — the cost the parallel engine hides under generation latency.
struct SlowEmbedder {
    inner: HashedNgramEmbedder,
    per_word: Duration,
}

fn word_cost(per_word: Duration, text: &str) -> Duration {
    per_word * u32::try_from(text.split_whitespace().count()).unwrap_or(u32::MAX)
}

impl Embedder for SlowEmbedder {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn embed(&self, text: &str) -> Embedding {
        std::thread::sleep(word_cost(self.per_word, text));
        self.inner.embed(text)
    }

    fn accumulator(&self) -> Option<Box<dyn IncrementalAccumulator>> {
        Some(Box::new(SlowAccumulator {
            inner: self.inner.accumulator()?,
            per_word: self.per_word,
        }))
    }
}

struct SlowAccumulator {
    inner: Box<dyn IncrementalAccumulator>,
    per_word: Duration,
}

impl IncrementalAccumulator for SlowAccumulator {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn append(&mut self, chunk: &str) {
        std::thread::sleep(word_cost(self.per_word, chunk));
        self.inner.append(chunk);
    }

    fn embedding(&self) -> Embedding {
        self.inner.embedding()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// A model whose sessions sleep for a fixed wall-clock delay per chunk and
/// never stop on their own — pure, deterministic backend latency. Every arm
/// emits the same word stream so scores tie exactly: no prunes, no early
/// win, and therefore a stable full-pool fan-out for every round measured.
struct SlowSynth {
    name: String,
    delay: Duration,
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
            delay: self.delay,
            cap: options.max_tokens,
            text: String::new(),
            tokens: 0,
            emitted: 0,
            done: None,
        })
    }
}

struct SlowSession {
    delay: Duration,
    cap: usize,
    text: String,
    tokens: usize,
    emitted: usize,
    done: Option<DoneReason>,
}

/// One word per token, varied enough that the hashing embedder sees prose.
fn word(k: usize) -> &'static str {
    const VOCAB: [&str; 24] = [
        "paris",
        "is",
        "the",
        "capital",
        "of",
        "france",
        "and",
        "has",
        "been",
        "since",
        "medieval",
        "times",
        "while",
        "models",
        "generate",
        "partial",
        "responses",
        "scored",
        "against",
        "queries",
        "every",
        "round",
        "with",
        "agreement",
    ];
    VOCAB[(k * 7 + k / 11) % VOCAB.len()]
}

impl GenerationSession for SlowSession {
    fn next_chunk(&mut self, max_tokens: usize) -> Result<Chunk, ModelError> {
        if let Some(done) = self.done {
            return Ok(Chunk::finished(done));
        }
        // The decode holds the caller for a fixed wall-clock delay — the
        // latency the parallel engine exists to overlap.
        std::thread::sleep(self.delay);
        let n = max_tokens.min(self.cap - self.tokens);
        let mut chunk = String::new();
        for _ in 0..n {
            if !self.text.is_empty() || !chunk.is_empty() {
                chunk.push(' ');
            }
            chunk.push_str(word(self.emitted));
            self.emitted += 1;
        }
        self.text.push_str(&chunk);
        self.tokens += n;
        let done = (self.tokens >= self.cap).then(|| {
            self.done = Some(DoneReason::Length);
            DoneReason::Length
        });
        Ok(Chunk {
            text: chunk,
            tokens: n,
            done,
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
        self.delay * u32::try_from(self.tokens.max(1)).unwrap_or(u32::MAX)
    }

    fn abort(&mut self) {
        self.done = Some(DoneReason::Aborted);
    }
}

fn pool(n: usize, delay: Duration) -> Vec<SharedModel> {
    (0..n)
        .map(|i| {
            Arc::new(SlowSynth {
                name: format!("slow{i}"),
                delay,
            }) as SharedModel
        })
        .collect()
}

struct Case {
    pool: usize,
    chunk_tokens: usize,
    rounds: usize,
    wall_ms: f64,
    overlap: f64,
}

/// Sum of everything recorded so far into the global histogram `name`.
fn histogram_sum(name: &str) -> f64 {
    llmms::obs::Registry::global().histogram(name).metric.sum()
}

fn run_case(models: &[SharedModel], embedder: SharedEmbedder, chunk: usize, rounds: usize) -> Case {
    let budget = models.len() * chunk * rounds;
    let o = Orchestrator::new(
        embedder,
        OrchestratorConfig {
            strategy: Strategy::Oua(OuaConfig {
                round_tokens: chunk,
                ..OuaConfig::default()
            }),
            token_budget: budget,
            temperature: 0.3,
            seed: 42,
            ..OrchestratorConfig::default()
        },
    );
    let (busy_before, wall_before) = (
        histogram_sum("round_busy_us"),
        histogram_sum("round_wall_us"),
    );
    let start = Instant::now();
    let result = o
        .run(models, "What is the capital of France?")
        .expect("bench workload must orchestrate");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let busy_us = histogram_sum("round_busy_us") - busy_before;
    let round_wall_us = histogram_sum("round_wall_us") - wall_before;
    Case {
        pool: models.len(),
        chunk_tokens: chunk,
        rounds: result.rounds,
        wall_ms,
        overlap: busy_us / round_wall_us.max(1e-9),
    }
}

fn run_sweep(
    pools: &[usize],
    chunks: &[usize],
    rounds: usize,
    delay: Duration,
    per_word: Duration,
) -> Vec<Case> {
    let mut cases = Vec::new();
    for &n in pools {
        for &chunk in chunks {
            let embedder: SharedEmbedder = Arc::new(SlowEmbedder {
                inner: HashedNgramEmbedder::default(),
                per_word,
            });
            let case = run_case(&pool(n, delay), embedder, chunk, rounds);
            eprintln!(
                "pool={n} chunk={chunk}: {:.1}ms over {} rounds, overlap {:.2}",
                case.wall_ms, case.rounds, case.overlap
            );
            cases.push(case);
        }
    }
    cases
}

fn main() {
    let arg = std::env::args().nth(1);
    let check_mode = arg.as_deref() == Some("--check");
    let delay = Duration::from_millis(8);
    let per_word = Duration::from_micros(3);

    let (pools, chunks, rounds): (&[usize], &[usize], usize) = if check_mode {
        // Reduced CI workload: only the gated configuration.
        (&[4], &[512], 6)
    } else {
        (&[2, 4, 8], &[64, 256, 512], 6)
    };

    let cases = run_sweep(pools, chunks, rounds, delay, per_word);

    if check_mode {
        let long = cases
            .iter()
            .find(|c| c.pool == 4 && c.chunk_tokens >= 512)
            .expect("check workload contains the gated case");
        if long.overlap < 3.0 {
            eprintln!(
                "FAIL: overlap {:.2} ({:.1}ms) — needs 3 at pool=4 chunk={}",
                long.overlap, long.wall_ms, long.chunk_tokens
            );
            std::process::exit(1);
        }
        eprintln!(
            "OK: overlap {:.2} ({:.1}ms) at pool=4 chunk={}",
            long.overlap, long.wall_ms, long.chunk_tokens
        );
        return;
    }

    let out = json!({
        "bench": "parallel_snapshot",
        "unit": "milliseconds per orchestration (wall-clock); overlap = round_busy_us / round_wall_us",
        "backend_delay_ms_per_chunk": delay.as_millis() as u64,
        "embed_cost_us_per_word": per_word.as_micros() as u64,
        "cases": cases.iter().map(|c| json!({
            "pool": c.pool,
            "chunk_tokens": c.chunk_tokens,
            "rounds": c.rounds,
            "wall_ms": c.wall_ms,
            "overlap": c.overlap,
        })).collect::<Vec<_>>(),
    });
    let path = arg.unwrap_or_else(|| "BENCH_parallel.json".to_owned());
    let pretty = serde_json::to_string_pretty(&out).expect("bench json serializes");
    std::fs::write(&path, pretty).expect("bench file must be writable");
    eprintln!("parallel snapshot written to {path}");
}
