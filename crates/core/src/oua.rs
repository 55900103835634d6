//! The Overperformers–Underperformers Algorithm (thesis Algorithm 1).
//!
//! Faithful construction:
//!
//! 1. λ ← λ_max / N: the budget is split evenly; each model may generate at
//!    most λ tokens while all N models remain in play (line 2).
//! 2. Models generate **partial outputs in round-robin** chunks (§6.3); each
//!    round, every active model extends its response by
//!    [`OuaConfig::round_tokens`] tokens.
//! 3. After each round every response is embedded and scored with Eq. 6.1
//!    (lines 10–15).
//! 4. **Early win** (lines 16–19): if the best model leads the runner-up by
//!    more than `win_margin` *and* finished with done reason `stop`, its
//!    response is returned immediately.
//! 5. **Pruning** (lines 20–23): if the second-worst active model outscores
//!    the worst by more than `prune_margin`, the worst is pruned and its
//!    remaining allowance is redistributed — "models ... are pruned to
//!    conserve tokens and allocate them to [the] rest beyond each model's
//!    maximum allowance" (§4.2.1).
//! 6. When no model can generate further (all stopped or pruned, or λ_max is
//!    exhausted), the best-scoring response wins (line 25).

use crate::config::OuaConfig;
use crate::engine::{Arms, Decision, Policy};
use crate::reward::RewardWeights;
use crate::runpool::ModelRun;
use llmms_models::Chunk;

/// Algorithm 1 as a round-engine policy.
pub(crate) struct Oua {
    cfg: OuaConfig,
    /// Each arm's latest Eq. 6.1 score. Pruned and failed arms keep their
    /// last score (the `scores` dict of Algorithm 1 is never erased).
    scores: Vec<f64>,
}

impl Oua {
    pub fn new(cfg: &OuaConfig, arms: usize) -> Self {
        Self {
            cfg: cfg.clone(),
            scores: vec![0.0; arms],
        }
    }
}

impl Policy for Oua {
    fn name(&self) -> &'static str {
        "oua"
    }

    fn weights(&self) -> RewardWeights {
        self.cfg.weights
    }

    /// Round-robin generation (lines 5–9) under λ per surviving model:
    /// pruned and failed models return their allowance. When every active
    /// model is pinned at its allowance (integer-division slack can leave
    /// the budget un-exhausted) nothing can change any more and the plan is
    /// empty. Stalling models keep getting polled — their stall counter
    /// fails them after a bounded streak.
    fn plan(&mut self, arms: &Arms) -> Vec<(usize, usize)> {
        let survivors = arms.runs.iter().filter(|r| !r.eliminated()).count();
        let allowance = arms.budget.even_split(survivors);
        arms.active()
            .filter_map(|i| {
                let room = allowance.saturating_sub(arms.runs[i].tokens());
                let request = self.cfg.round_tokens.min(room);
                (request > 0).then_some((i, request))
            })
            .collect()
    }

    /// Scoring (lines 10–15): every non-pruned response participates.
    fn score(&mut self, arms: &mut Arms, _chunks: &[(usize, Chunk)]) -> Option<Vec<f64>> {
        arms.score_where(|r| !r.eliminated(), &mut self.scores);
        Some(self.scores.clone())
    }

    fn decide(&mut self, arms: &Arms) -> Vec<Decision> {
        let (runs, scores) = (&arms.runs, &self.scores);
        // Early win (lines 16–19).
        if let Some((best, second)) = best_and_second(runs, scores, |r| !r.eliminated()) {
            let margin_ok = match second {
                Some(s) => scores[best] > scores[s] + self.cfg.win_margin,
                // Last one standing (§4.2.1) — but only once every rival is
                // actually out of the race. A zero-output model may still be
                // mid-stall; pruning it here would mask the backend failure
                // the stall counter is about to attribute.
                None => !runs
                    .iter()
                    .enumerate()
                    .any(|(i, r)| i != best && r.is_active()),
            };
            if margin_ok && runs[best].stopped_naturally() {
                return vec![Decision::Win {
                    arm: best,
                    score: scores[best],
                }];
            }
        }
        // Pruning (lines 20–23): compare the two worst *active* models.
        if let Some((worst, Some(sw))) = worst_and_second(runs, scores, ModelRun::is_active) {
            if scores[sw] - scores[worst] > self.cfg.prune_margin {
                return vec![Decision::Prune {
                    arm: worst,
                    score: scores[worst],
                    rival: scores[sw],
                }];
            }
        }
        Vec::new()
    }

    /// Final selection (line 25): argmax over every recorded score, pruned
    /// partials included — a failed model's truncated output is only a last
    /// resort.
    fn select(&mut self, _arms: &mut Arms) -> Vec<f64> {
        self.scores.clone()
    }
}

/// `(best, second_best)` among runs satisfying `keep`.
fn best_and_second(
    runs: &[ModelRun],
    scores: &[f64],
    keep: impl Fn(&ModelRun) -> bool,
) -> Option<(usize, Option<usize>)> {
    let mut eligible: Vec<usize> = (0..runs.len())
        .filter(|&i| keep(&runs[i]) && runs[i].has_output())
        .collect();
    if eligible.is_empty() {
        return None;
    }
    eligible.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Some((eligible[0], eligible.get(1).copied()))
}

/// `(worst, second_worst)` among runs satisfying `keep`.
fn worst_and_second(
    runs: &[ModelRun],
    scores: &[f64],
    keep: impl Fn(&ModelRun) -> bool,
) -> Option<(usize, Option<usize>)> {
    let mut eligible: Vec<usize> = (0..runs.len())
        .filter(|&i| keep(&runs[i]) && runs[i].has_output())
        .collect();
    if eligible.is_empty() {
        return None;
    }
    eligible.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Some((eligible[0], eligible.get(1).copied()))
}
