//! The Multi-Armed Bandit strategy (thesis Algorithm 2, UCB1).
//!
//! Each model is an arm. A pull grants the chosen model
//! [`MabConfig::pull_tokens`] tokens; the resulting partial response is
//! scored with Eq. 6.1 and the score is the pull's reward. Arm selection
//! maximizes the upper confidence bound
//!
//! ```text
//! UCB_i = rewards_i / pulls_i + γ · sqrt(2 · ln(totalPulls) / pulls_i)
//! ```
//!
//! with the paper's budget-coupled decay γ = γ₀ · (1 − usedTokens / λ_max)
//! (Algorithm 2, line 11): exploration shrinks as the budget drains, so late
//! tokens concentrate on the best arm — "models with persistently low
//! rewards naturally receive fewer tokens and are phased out" (§4.3.1).
//!
//! Termination: unpulled arms are pulled first (UCB = ∞ by convention); the
//! loop ends when the budget is exhausted, when every arm has finished, or
//! when the current mean-reward leader has finished naturally (its response
//! can no longer change, and exploitation would pick it anyway).
//!
//! Each pull is one round of the engine with a single target, so it never
//! fans out: the strategy is inherently sequential. Each pull's reward
//! scores the pulled arm's text against *every other arm's current text*
//! (the agreement term of Eq. 6.1), and the next UCB selection depends on
//! that reward — so pull t+1 cannot start until pull t has generated and
//! been scored.

use crate::config::{MabConfig, MabSelection};
use crate::engine::{Arms, Policy};
use crate::reward::RewardWeights;
use llmms_models::{Chunk, DoneReason};

/// Algorithm 2 as a round-engine policy: one pull per round.
pub(crate) struct Mab {
    cfg: MabConfig,
    rewards: Vec<f64>,
    pulls: Vec<usize>,
    total_pulls: usize,
}

impl Mab {
    pub fn new(cfg: &MabConfig, arms: usize) -> Self {
        Self {
            cfg: cfg.clone(),
            rewards: vec![0.0; arms],
            pulls: vec![0; arms],
            total_pulls: 0,
        }
    }
}

impl Policy for Mab {
    fn name(&self) -> &'static str {
        "mab"
    }

    fn weights(&self) -> RewardWeights {
        self.cfg.weights
    }

    /// Optional early exploitation stop: the current leader has finished,
    /// so its (winning) response can no longer change.
    fn stop(&mut self, arms: &mut Arms) -> bool {
        if !self.cfg.early_stop {
            return false;
        }
        let leader = match self.cfg.selection {
            MabSelection::FinalScore => argmax(&arms.final_scores()),
            selection => leader_of(&self.rewards, &self.pulls, selection),
        };
        leader.is_some_and(|l| arms.runs[l].stopped_naturally() && self.pulls[l] > 0)
    }

    /// UCB1 selection (lines 3–6), unpulled arms first, then the pull
    /// itself (line 7): the next token chunk of the chosen arm.
    fn plan(&mut self, arms: &Arms) -> Vec<(usize, usize)> {
        let gamma = if self.cfg.decay {
            self.cfg.gamma0 * (1.0 - arms.budget.consumed_fraction())
        } else {
            self.cfg.gamma0
        };
        let ucb_of = |i| ucb(&self.rewards, &self.pulls, self.total_pulls, gamma, i);
        let chosen = arms.active().max_by(|&a, &b| {
            ucb_of(a)
                .partial_cmp(&ucb_of(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        self.total_pulls += 1;
        chosen
            .map(|i| (i, self.cfg.pull_tokens.max(1)))
            .into_iter()
            .collect()
    }

    /// Reward (lines 8–9): Eq. 6.1 on the updated partial response. A
    /// failed pull earns nothing, and neither does an empty one — the stall
    /// counter fails the arm if that keeps up. Reports the mean rewards.
    fn score(&mut self, arms: &mut Arms, chunks: &[(usize, Chunk)]) -> Option<Vec<f64>> {
        let (chosen, chunk) = chunks.first()?;
        if chunk.done == Some(DoneReason::Failed) || (chunk.tokens == 0 && chunk.done.is_none()) {
            return None;
        }
        // Only the pulled arm grew, so the cache refresh is a rank-1 update.
        self.rewards[*chosen] += arms.final_scores()[*chosen];
        self.pulls[*chosen] += 1;
        Some(
            (0..self.rewards.len())
                .map(|i| mean_reward(&self.rewards, &self.pulls, i))
                .collect(),
        )
    }

    /// Final selection (line 16): the arm with the highest reward under the
    /// configured reading of "reward".
    fn select(&mut self, arms: &mut Arms) -> Vec<f64> {
        match self.cfg.selection {
            MabSelection::FinalScore => arms.final_scores(),
            selection => (0..self.rewards.len())
                .map(|i| selection_score(&self.rewards, &self.pulls, i, selection))
                .collect(),
        }
    }
}

/// UCB value for arm `i`; unpulled arms get +∞ so each arm is tried once.
fn ucb(rewards: &[f64], pulls: &[usize], total_pulls: usize, gamma: f64, i: usize) -> f64 {
    if pulls[i] == 0 {
        return f64::INFINITY;
    }
    let mean = rewards[i] / pulls[i] as f64;
    let bonus = gamma * (2.0 * (total_pulls.max(1) as f64).ln() / pulls[i] as f64).sqrt();
    mean + bonus
}

fn mean_reward(rewards: &[f64], pulls: &[usize], i: usize) -> f64 {
    if pulls[i] == 0 {
        0.0
    } else {
        rewards[i] / pulls[i] as f64
    }
}

/// Score used for final selection / leader identification.
fn selection_score(rewards: &[f64], pulls: &[usize], i: usize, selection: MabSelection) -> f64 {
    match selection {
        MabSelection::Cumulative => rewards[i],
        // FinalScore is handled by `Arms::final_scores` before reaching here; the
        // mean is the sensible fallback for leader tracking.
        MabSelection::Mean | MabSelection::FinalScore => mean_reward(rewards, pulls, i),
    }
}

/// Index of the current leader under the configured selection rule
/// (pulled arms only).
fn leader_of(rewards: &[f64], pulls: &[usize], selection: MabSelection) -> Option<usize> {
    (0..rewards.len())
        .filter(|&i| pulls[i] > 0)
        .max_by(|&a, &b| {
            selection_score(rewards, pulls, a, selection)
                .partial_cmp(&selection_score(rewards, pulls, b, selection))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
}

fn argmax(scores: &[f64]) -> Option<usize> {
    scores
        .iter()
        .enumerate()
        .filter(|(_, s)| **s > 0.0)
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
}
