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

mod common;

use common::Recorded;
use llmms_models::SharedModel;
use llmms_obs::Registry;
use std::time::Duration;

const POOL: usize = 4;
const DELAY: Duration = Duration::from_millis(8);
const ROUND_TOKENS: usize = 512;
const ROUNDS: usize = 6;

fn histogram_sum(name: &str) -> f64 {
    Registry::global().histogram(name).metric.sum()
}

#[test]
fn four_sleeping_arms_overlap_at_least_three_fold() {
    // Every step of every arm sleeps: the first step is 1.
    let models: Vec<SharedModel> = (0..POOL)
        .map(|i| Recorded::new(i, 1, DELAY) as SharedModel)
        .collect();
    let result = common::oua(ROUND_TOKENS, POOL * ROUND_TOKENS * ROUNDS)
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
