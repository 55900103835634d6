//! Per-round scoring cost: naive from-scratch vs the incremental engine.
//!
//! Simulates the orchestration hot path in isolation. One "round" is what a
//! strategy does after a pull lands a small chunk on one arm:
//!
//! * **naive** — re-embed every arm's full response from scratch and run
//!   `score_all` over the pool (what the equivalence suite's reference
//!   does; the engine itself never takes this path);
//! * **incremental** — fold only the new chunk into the pulled arm's
//!   accumulator, rank-1-update the `ScoreCache`, and read all N scores.
//!
//! Sweeps pool size × response length and writes `BENCH_scoring.json` at
//! the given path (default `BENCH_scoring.json` in the working directory).
//!
//! Usage:
//!   cargo run -p llmms-bench --release --bin scoring_snapshot [out.json]
//!   cargo run -p llmms-bench --release --bin scoring_snapshot -- --check
//!
//! `--check` runs a reduced workload and exits nonzero unless the
//! incremental path beats naive on the long-response case (pool = 4,
//! ≥ 1024 tokens) — the CI perf-smoke gate.

use llmms::core::{score_all, RewardWeights, ScoreCache};
use llmms::embed::{Embedder, Embedding, HashedNgramEmbedder, IncrementalAccumulator};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;

/// Deterministic synthetic response text of roughly `words` whitespace
/// tokens, with enough vocabulary spread to look like prose to the hashing
/// embedder (distinct arms get distinct phase offsets).
fn synth_text(words: usize, arm: usize) -> String {
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
    let mut out = String::new();
    for k in 0..words {
        if k > 0 {
            out.push(' ');
        }
        out.push_str(VOCAB[(k * 7 + arm * 5 + k / 11) % VOCAB.len()]);
    }
    out
}

/// The chunk one pull appends: small and fixed, so per-round cost differences
/// come from how much *old* text each path re-processes.
fn synth_chunk(round: usize) -> String {
    format!(" moreover round {round} adds fresh agreement text here")
}

struct Case {
    pool: usize,
    response_tokens: usize,
    naive_us: f64,
    incremental_us: f64,
    speedup: f64,
}

/// Mean per-round cost of the naive path: after a chunk lands on one arm,
/// re-embed every full text and score the pool from scratch.
fn bench_naive(embedder: &HashedNgramEmbedder, n: usize, words: usize, rounds: usize) -> f64 {
    let weights = RewardWeights::default();
    let query = embedder.embed("what is the capital of france");
    let mut texts: Vec<String> = (0..n).map(|arm| synth_text(words, arm)).collect();
    let start = Instant::now();
    for round in 0..rounds {
        texts[round % n].push_str(&synth_chunk(round));
        let embeddings: Vec<Embedding> = texts.iter().map(|t| embedder.embed(t)).collect();
        let scores = score_all(&weights, &query, &embeddings);
        std::hint::black_box(scores);
    }
    start.elapsed().as_secs_f64() * 1e6 / rounds as f64
}

/// Mean per-round cost of the incremental path: fold the chunk into the
/// pulled arm's accumulator, rank-1-update the cache, read all scores.
fn bench_incremental(embedder: &HashedNgramEmbedder, n: usize, words: usize, rounds: usize) -> f64 {
    let weights = RewardWeights::default();
    let query = Arc::new(embedder.embed("what is the capital of france"));
    let mut accs: Vec<Box<dyn IncrementalAccumulator>> = (0..n)
        .map(|_| {
            embedder
                .accumulator()
                .expect("hashed embedder is incremental")
        })
        .collect();
    let mut cache = ScoreCache::new(n, query, weights);
    // Warm-up: the full responses are already embedded and correlated —
    // exactly the state an orchestration round starts from.
    for (arm, acc) in accs.iter_mut().enumerate() {
        acc.append(&synth_text(words, arm));
        cache.set_embedding(arm, Arc::new(acc.embedding()));
    }
    let mask = vec![true; n];
    let start = Instant::now();
    for round in 0..rounds {
        let arm = round % n;
        accs[arm].append(&synth_chunk(round));
        cache.set_embedding(arm, Arc::new(accs[arm].embedding()));
        let scores: Vec<f64> = (0..n).map(|i| cache.score(i, &mask)).collect();
        std::hint::black_box(scores);
    }
    start.elapsed().as_secs_f64() * 1e6 / rounds as f64
}

fn run_sweep(pools: &[usize], lengths: &[usize], rounds: usize) -> Vec<Case> {
    let embedder = HashedNgramEmbedder::default();
    let mut cases = Vec::new();
    for &pool in pools {
        for &len in lengths {
            let naive_us = bench_naive(&embedder, pool, len, rounds);
            let incremental_us = bench_incremental(&embedder, pool, len, rounds);
            let speedup = naive_us / incremental_us.max(1e-9);
            eprintln!(
                "pool={pool} len={len}: naive {naive_us:.1}us incremental {incremental_us:.1}us ({speedup:.1}x)"
            );
            cases.push(Case {
                pool,
                response_tokens: len,
                naive_us,
                incremental_us,
                speedup,
            });
        }
    }
    cases
}

fn main() {
    let arg = std::env::args().nth(1);
    let check_mode = arg.as_deref() == Some("--check");

    let (pools, lengths, rounds): (&[usize], &[usize], usize) = if check_mode {
        // Reduced CI workload: only the gated configuration.
        (&[4], &[1024], 24)
    } else {
        (&[2, 4, 8], &[128, 256, 512, 1024, 2048], 32)
    };

    let cases = run_sweep(pools, lengths, rounds);

    if check_mode {
        let long = cases
            .iter()
            .find(|c| c.pool == 4 && c.response_tokens >= 1024)
            .expect("check workload contains the gated case");
        if long.incremental_us >= long.naive_us {
            eprintln!(
                "FAIL: incremental ({:.1}us) not faster than naive ({:.1}us) at pool=4 len={}",
                long.incremental_us, long.naive_us, long.response_tokens
            );
            std::process::exit(1);
        }
        eprintln!(
            "OK: incremental {:.1}us vs naive {:.1}us ({:.1}x) at pool=4 len={}",
            long.incremental_us, long.naive_us, long.speedup, long.response_tokens
        );
        return;
    }

    let out = json!({
        "bench": "scoring_snapshot",
        "unit": "microseconds per scoring round (mean)",
        "rounds_per_case": rounds,
        "cases": cases.iter().map(|c| json!({
            "pool": c.pool,
            "response_tokens": c.response_tokens,
            "naive_us_per_round": c.naive_us,
            "incremental_us_per_round": c.incremental_us,
            "speedup": c.speedup,
        })).collect::<Vec<_>>(),
    });
    let path = arg.unwrap_or_else(|| "BENCH_scoring.json".to_owned());
    let pretty = serde_json::to_string_pretty(&out).expect("bench json serializes");
    std::fs::write(&path, pretty).expect("bench file must be writable");
    eprintln!("scoring snapshot written to {path}");
}
