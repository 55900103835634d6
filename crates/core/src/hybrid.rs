//! The hybrid strategy sketched in thesis §8.4: "The primary trade-off
//! observed was between early pruning (OUA) and adaptive allocation (MAB).
//! ... A hybrid approach could potentially leverage the advantages of both
//! methods."
//!
//! Phase 1 (**probe**, OUA-flavoured): every model generates a few
//! round-robin chunks; any model trailing the current best by more than
//! `prune_margin` is pruned immediately — more decisive than Algorithm 1's
//! worst-vs-second-worst rule, because the probe exists precisely to cut
//! losers early.
//!
//! Phase 2 (**exploit**) is the [`Mab`] policy itself: the survivors
//! compete for the remaining budget under UCB1 with the γ decay of
//! Algorithm 2, and its [`MabConfig`] decides the final answer. Both phases
//! score with `mab.weights`.

use crate::config::MabConfig;
use crate::engine::{Arms, Decision, Policy};
use crate::mab::Mab;
use crate::reward::RewardWeights;
use llmms_models::Chunk;
use serde::{Deserialize, Serialize};

/// Parameters of the hybrid strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridConfig {
    /// Number of probe rounds before pruning locks in.
    pub probe_rounds: usize,
    /// Tokens per model per probe round.
    pub probe_tokens: usize,
    /// A model trailing the best by more than this after the probe is
    /// pruned.
    pub prune_margin: f64,
    /// The phase-2 bandit; its Eq. 6.1 weights score both phases.
    pub mab: MabConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            probe_rounds: 2,
            probe_tokens: 4,
            prune_margin: 0.15,
            mab: MabConfig::default(),
        }
    }
}

/// The hybrid as a round-engine policy: probe rounds, one decisive prune,
/// then [`Mab`].
pub(crate) struct Hybrid {
    cfg: HybridConfig,
    /// Probe rounds run so far; `None` once the probe has pruned.
    probed: Option<usize>,
    /// Each arm's latest probe score.
    scores: Vec<f64>,
    mab: Mab,
}

impl Hybrid {
    pub fn new(cfg: &HybridConfig, arms: usize) -> Self {
        Self {
            cfg: cfg.clone(),
            probed: Some(0),
            scores: vec![0.0; arms],
            mab: Mab::new(&cfg.mab, arms),
        }
    }

    /// End the probe: prune everything trailing the probe leader by more
    /// than the margin. Models with no output yet are spared: they are
    /// either about to fail (the stall counter attributes that to the
    /// backend) or merely slow, and a prune here would mask the difference.
    fn prune(&mut self, arms: &Arms) -> Vec<Decision> {
        self.probed = None;
        let best = self
            .scores
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        arms.active()
            .filter(|&i| arms.runs[i].has_output() && best - self.scores[i] > self.cfg.prune_margin)
            .map(|i| Decision::Prune {
                arm: i,
                score: self.scores[i],
                rival: best,
            })
            .collect()
    }
}

impl Policy for Hybrid {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn weights(&self) -> RewardWeights {
        self.cfg.mab.weights
    }

    fn stop(&mut self, arms: &mut Arms) -> bool {
        self.probed.is_none() && self.mab.stop(arms)
    }

    fn plan(&mut self, arms: &Arms) -> Vec<(usize, usize)> {
        match &mut self.probed {
            Some(rounds) => {
                *rounds += 1;
                let tokens = self.cfg.probe_tokens.max(1);
                arms.active().map(|i| (i, tokens)).collect()
            }
            None => self.mab.plan(arms),
        }
    }

    fn score(&mut self, arms: &mut Arms, chunks: &[(usize, Chunk)]) -> Option<Vec<f64>> {
        if self.probed.is_none() {
            return self.mab.score(arms, chunks);
        }
        arms.score_where(|r| !r.eliminated(), &mut self.scores);
        Some(self.scores.clone())
    }

    fn decide(&mut self, arms: &Arms) -> Vec<Decision> {
        match self.probed {
            Some(rounds) if rounds >= self.cfg.probe_rounds.max(1) => self.prune(arms),
            _ => Vec::new(),
        }
    }

    /// A run that ends during the probe (deadline, round cap or budget)
    /// still gets the probe's prune.
    fn wrap_up(&mut self, arms: &Arms) -> Vec<Decision> {
        match self.probed {
            Some(_) => self.prune(arms),
            None => Vec::new(),
        }
    }

    /// Phase 2's selection rule, whether or not the run got there. The
    /// default scores everything with output, pruned partials included, as
    /// in OUA line 25.
    fn select(&mut self, arms: &mut Arms) -> Vec<f64> {
        self.mab.select(arms)
    }
}
