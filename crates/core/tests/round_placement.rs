//! Where a round's arms compute.
//!
//! A query's first round of two or more arms fans out to the executor and
//! measures what the fan-out cost beyond its slowest job. From then on a
//! round fans out only when overlapping its arms would save more than that:
//! when the arms' summed last step times exceed the cost plus the slowest
//! step. Otherwise every arm computes on the calling thread.
//!
//! Every session here records the thread that ran each of its steps. All
//! arms emit the same word stream, so every round steps every arm and a
//! session's k-th step is round k. The embedder returns one constant vector
//! at no cost.
//!
//! The cheap arms take well under a microsecond per step. Their placement
//! does not depend on how fast the machine is: a fan-out whose jobs
//! overlap had to wake a second thread, which costs more than two such
//! steps, and a fan-out whose jobs ran one after another on one worker
//! measures a cost of at least every job but the slowest. Either way the
//! rule places the next round inline, which it does by the second round.

mod common;

use common::Recorded;
use llmms_models::SharedModel;
use llmms_obs::Registry;
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::Duration;

const POOL: usize = 4;
const ROUND_TOKENS: usize = 8;

/// Run one `rounds`-round OUA query over `models` on this thread and
/// return, per round, whether any arm's step ran on another thread.
fn off_thread_rounds(models: &[Arc<Recorded>], rounds: usize) -> Vec<bool> {
    let pool: Vec<SharedModel> = models
        .iter()
        .map(|m| Arc::clone(m) as SharedModel)
        .collect();
    let result = common::oua(ROUND_TOKENS, POOL * ROUND_TOKENS * rounds)
        .run(&pool, "What is the capital of France?")
        .expect("the pool orchestrates");
    assert_eq!(result.rounds, rounds, "an arm stopped or was pruned early");
    let caller = thread::current().id();
    let steps: Vec<Vec<ThreadId>> = models.iter().map(|m| m.steps()).collect();
    (0..rounds)
        .map(|round| steps.iter().any(|s| s[round] != caller))
        .collect()
}

fn inline_rounds_counted() -> u64 {
    Registry::global()
        .counter("round_inline_total")
        .metric
        .get()
}

#[test]
fn cheap_arms_compute_on_the_calling_thread_after_one_fan_out() {
    const ROUNDS: usize = 10;
    let models: Vec<Arc<Recorded>> = (0..POOL)
        .map(|i| Recorded::new(i, usize::MAX, Duration::ZERO))
        .collect();
    let before = inline_rounds_counted();
    let off = off_thread_rounds(&models, ROUNDS);
    let inline = off.iter().filter(|&&o| !o).count();
    assert!(off[0], "the first round must fan out and measure: {off:?}");
    assert!(
        inline > ROUNDS / 2,
        "{} of {ROUNDS} rounds computed off the calling thread: {off:?}",
        ROUNDS - inline
    );
    // Sibling tests only add to the process-wide counter.
    assert!(inline_rounds_counted() - before >= inline as u64);
}

#[test]
fn fan_out_returns_the_round_after_the_arms_slow_down() {
    // Steps 1–3 are cheap; from step 4 on every arm sleeps 8 ms.
    const ROUNDS: usize = 7;
    const SLOW_FROM: usize = 4;
    let models: Vec<Arc<Recorded>> = (0..POOL)
        .map(|i| Recorded::new(i, SLOW_FROM, Duration::from_millis(8)))
        .collect();
    let off = off_thread_rounds(&models, ROUNDS);
    assert!(off[0], "the first round must fan out and measure: {off:?}");
    // Round 4 is placed from round 3's cheap steps; from round 5 on the
    // arms' last steps took 8 ms each, and overlapping four of them saves
    // 24 ms, far more than a fan-out costs.
    assert!(
        off[SLOW_FROM..].iter().all(|&o| o),
        "slow rounds computed inline: {off:?}"
    );
}
