//! Orchestrator configuration: strategies and their parameters.

use crate::reward::RewardWeights;
use llmms_models::BreakerConfig;
use serde::{Deserialize, Serialize};

/// Parameters of the Overperformers–Underperformers Algorithm (Alg. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OuaConfig {
    /// Eq. 6.1 weights (paper: α = 0.7, β = 0.3).
    pub weights: RewardWeights,
    /// Early-return margin: the best model wins outright when its score
    /// exceeds the runner-up's by more than this *and* it finished with
    /// done reason `stop` (Alg. 1, line 17; paper constant 0.5).
    pub win_margin: f64,
    /// Prune margin: the worst model is dropped when the second-worst
    /// outscores it by more than this (Alg. 1, line 21; paper constant 0.5).
    pub prune_margin: f64,
    /// Tokens each active model generates per round-robin round. The thesis
    /// describes "partial outputs" generated "in a round-robin fashion"
    /// (§6.3) under the per-model allowance λ_max/N; this is the granularity
    /// of those partials (Ollama streams a few tokens per SSE event, so the
    /// default is fine-grained).
    pub round_tokens: usize,
}

impl Default for OuaConfig {
    fn default() -> Self {
        Self {
            weights: RewardWeights::default(),
            win_margin: 0.5,
            prune_margin: 0.5,
            round_tokens: 4,
        }
    }
}

/// How the MAB picks its final answer from the accumulated rewards
/// (Algorithm 2, line 16: "response from model with highest reward").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MabSelection {
    /// Highest cumulative reward `rewards_i` — the literal reading; favors
    /// the arm the bandit actually exploited.
    Cumulative,
    /// Highest mean reward `rewards_i / pulls_i` — the UCB exploitation
    /// term; noisier because early 1-token prefixes weigh equally.
    Mean,
    /// Highest *current* reward: each arm's final response is re-scored
    /// with Eq. 6.1 once pulling stops (reading "reward" as the latest r of
    /// line 9 rather than an accumulator). Matches OUA's final selection.
    FinalScore,
}

/// Parameters of the Multi-Armed Bandit strategy (Alg. 2, UCB1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MabConfig {
    /// Eq. 6.1 weights for the per-pull reward.
    pub weights: RewardWeights,
    /// Initial exploration coefficient γ₀ (paper: 0.3).
    pub gamma0: f64,
    /// Apply the paper's decay γ = γ₀·(1 − usedTokens/λ_max). Disabling it
    /// gives classic fixed-γ UCB1 (ablation Tab C).
    pub decay: bool,
    /// Tokens per pull. The paper pulls token-by-token (`pull_tokens = 1`);
    /// larger pulls amortize the per-pull embedding cost (ablation Tab D).
    pub pull_tokens: usize,
    /// Final-answer selection rule.
    pub selection: MabSelection,
    /// Stop pulling once the current leader has finished naturally. When
    /// off, the loop runs until every arm finishes or λ_max is exhausted
    /// ("models with persistently low rewards ... are phased out", §4.3.1).
    pub early_stop: bool,
}

impl Default for MabConfig {
    fn default() -> Self {
        Self {
            weights: RewardWeights::default(),
            gamma0: 0.3,
            decay: true,
            pull_tokens: 1,
            selection: MabSelection::FinalScore,
            early_stop: false,
        }
    }
}

/// Which orchestration strategy drives a query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// Route everything to one model — the paper's static baseline.
    Single,
    /// Overperformers–Underperformers Algorithm.
    Oua(OuaConfig),
    /// Multi-Armed Bandit with UCB1.
    Mab(MabConfig),
    /// Cognitive routing via a semantic task index (§9.5 extension).
    Routed(crate::router::RouterConfig),
    /// OUA probe + MAB exploitation (the §8.4 hybrid).
    Hybrid(crate::hybrid::HybridConfig),
}

impl Strategy {
    /// Short display name matching the paper's figure labels.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::Single => "single",
            Strategy::Oua(_) => "LLM-MS OUA",
            Strategy::Mab(_) => "LLM-MS MAB",
            Strategy::Routed(_) => "LLM-MS Router",
            Strategy::Hybrid(_) => "LLM-MS Hybrid",
        }
    }

    /// The short machine name used by the CLI, `/api/config` and natural
    /// language configuration.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Single => "single",
            Strategy::Oua(_) => "oua",
            Strategy::Mab(_) => "mab",
            Strategy::Routed(_) => "routed",
            Strategy::Hybrid(_) => "hybrid",
        }
    }

    /// The strategy called `name` with its default parameters. `"routed"`
    /// has none (it needs a task index) and, like unknown names, is `None`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "single" => Some(Strategy::Single),
            "oua" => Some(Strategy::Oua(OuaConfig::default())),
            "mab" => Some(Strategy::Mab(MabConfig::default())),
            "hybrid" => Some(Strategy::Hybrid(crate::hybrid::HybridConfig::default())),
            _ => None,
        }
    }
}

/// Full orchestrator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrchestratorConfig {
    /// Global token budget λ_max per query (paper example: 2048).
    pub token_budget: usize,
    /// The strategy to run.
    pub strategy: Strategy,
    /// Sampling temperature handed to the models.
    pub temperature: f32,
    /// Seed mixed into the models' determinism.
    pub seed: u64,
    /// Record an [`crate::events::OrchestrationEvent`] trace in the result
    /// (the paper's "transparent orchestration logs" extension, §9.5).
    pub record_events: bool,
    /// Per-model circuit-breaker policy, consulted when sessions start.
    #[serde(default)]
    pub breaker: BreakerConfig,
    /// Wall-clock cap on the whole query, in milliseconds. When it expires,
    /// every in-flight session is force-aborted and the best response so
    /// far is returned (degraded); a query with no output at all fails with
    /// [`crate::OrchestratorError::DeadlineExceeded`]. `None` disables the
    /// cap.
    #[serde(default)]
    pub query_deadline_ms: Option<u64>,
    /// Hard cap on rounds per query (a MAB pull is a round), independent of
    /// the token budget. A run cut by this cap returns the best response
    /// so far, marked `degraded`. `None` disables the cap; brownout
    /// level 2 installs one per query.
    #[serde(default)]
    pub max_rounds: Option<usize>,
    /// Brownout thresholds and per-level degradation caps, applied when
    /// the serving layer reports overload (see [`crate::brownout`]).
    #[serde(default)]
    pub brownout: crate::brownout::BrownoutConfig,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        Self {
            token_budget: 2048,
            strategy: Strategy::Oua(OuaConfig::default()),
            temperature: 0.7,
            seed: 0,
            record_events: false,
            breaker: BreakerConfig::default(),
            query_deadline_ms: None,
            max_rounds: None,
            brownout: crate::brownout::BrownoutConfig::default(),
        }
    }
}

impl OrchestratorConfig {
    /// Start a builder from the defaults.
    pub fn builder() -> OrchestratorConfigBuilder {
        OrchestratorConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`OrchestratorConfig`].
#[derive(Debug, Clone)]
pub struct OrchestratorConfigBuilder {
    config: OrchestratorConfig,
}

impl OrchestratorConfigBuilder {
    /// Set the token budget λ_max.
    #[must_use]
    pub fn token_budget(mut self, budget: usize) -> Self {
        self.config.token_budget = budget;
        self
    }

    /// Select the strategy.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Set the sampling temperature.
    #[must_use]
    pub fn temperature(mut self, temperature: f32) -> Self {
        self.config.temperature = temperature;
        self
    }

    /// Set the determinism seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enable event-trace recording.
    #[must_use]
    pub fn record_events(mut self, record: bool) -> Self {
        self.config.record_events = record;
        self
    }

    /// Set the per-model circuit-breaker policy.
    #[must_use]
    pub fn breaker(mut self, breaker: BreakerConfig) -> Self {
        self.config.breaker = breaker;
        self
    }

    /// Cap the whole query at `ms` wall-clock milliseconds.
    #[must_use]
    pub fn query_deadline_ms(mut self, ms: u64) -> Self {
        self.config.query_deadline_ms = Some(ms);
        self
    }

    /// Cap rounds per query.
    #[must_use]
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.config.max_rounds = Some(rounds);
        self
    }

    /// Set the brownout thresholds and degradation caps.
    #[must_use]
    pub fn brownout(mut self, brownout: crate::brownout::BrownoutConfig) -> Self {
        self.config.brownout = brownout;
        self
    }

    /// Finish building.
    pub fn build(self) -> OrchestratorConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let oua = OuaConfig::default();
        assert_eq!(oua.weights.alpha, 0.7);
        assert_eq!(oua.weights.beta, 0.3);
        assert_eq!(oua.win_margin, 0.5);
        assert_eq!(oua.prune_margin, 0.5);
        let mab = MabConfig::default();
        assert_eq!(mab.gamma0, 0.3);
        assert!(mab.decay);
        assert_eq!(mab.pull_tokens, 1);
        assert_eq!(OrchestratorConfig::default().token_budget, 2048);
    }

    #[test]
    fn strategy_labels_match_figures() {
        assert_eq!(Strategy::Single.label(), "single");
        assert_eq!(Strategy::Oua(OuaConfig::default()).label(), "LLM-MS OUA");
        assert_eq!(Strategy::Mab(MabConfig::default()).label(), "LLM-MS MAB");

        let router = crate::router::RouterConfig::new(crate::router::TaskIndex::default());
        let all = [
            Strategy::Single,
            Strategy::Oua(OuaConfig::default()),
            Strategy::Mab(MabConfig::default()),
            Strategy::Routed(router),
            Strategy::Hybrid(crate::hybrid::HybridConfig::default()),
        ];
        for strategy in &all {
            match Strategy::from_name(strategy.name()) {
                Some(parsed) => assert_eq!(&parsed, strategy),
                None => assert_eq!(strategy.name(), "routed", "needs a task index"),
            }
        }
        assert_eq!(Strategy::from_name("fifo"), None);
    }

    #[test]
    fn builder_sets_fields() {
        let c = OrchestratorConfig::builder()
            .token_budget(512)
            .strategy(Strategy::Mab(MabConfig::default()))
            .temperature(0.0)
            .seed(42)
            .record_events(true)
            .build();
        assert_eq!(c.token_budget, 512);
        assert!(matches!(c.strategy, Strategy::Mab(_)));
        assert_eq!(c.temperature, 0.0);
        assert_eq!(c.seed, 42);
        assert!(c.record_events);
    }

    #[test]
    fn serde_roundtrip() {
        let c = OrchestratorConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: OrchestratorConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn old_configs_without_robustness_knobs_still_parse() {
        // A config serialized before the failure-handling fields existed.
        // It also still carries the three scoring-engine switches that
        // were removed with their twin paths, and the round deadline that
        // was removed because it never cut a round: unknown keys are
        // ignored.
        let json = r#"{
            "token_budget": 512,
            "strategy": "Single",
            "temperature": 0.5,
            "seed": 1,
            "record_events": false,
            "incremental_scoring": false,
            "parallel_scoring": false,
            "parallel_generation": false,
            "round_deadline_ms": 50
        }"#;
        let c: OrchestratorConfig = serde_json::from_str(json).unwrap();
        assert_eq!(c.breaker, BreakerConfig::default());
        assert_eq!(c.query_deadline_ms, None);
        // Overload-control knobs postdate everything above; old configs get
        // "no cap" and default brownout thresholds.
        assert_eq!(c.max_rounds, None);
        assert_eq!(c.brownout, crate::brownout::BrownoutConfig::default());
        assert_eq!(c.token_budget, 512);
        assert_eq!(c.strategy, Strategy::Single);

        // The retry policy and the brownout thresholds were settable once;
        // they are constants now, so their keys are ignored too.
        let json = r#"{
            "token_budget": 2048,
            "strategy": {"Oua": {
                "weights": {"alpha": 0.7, "beta": 0.3},
                "win_margin": 0.5,
                "prune_margin": 0.5,
                "round_tokens": 4
            }},
            "temperature": 0.7,
            "seed": 0,
            "record_events": false,
            "retry": {
                "max_retries": 5,
                "backoff_base_ms": 10,
                "backoff_cap_ms": 20,
                "stall_limit": 9
            },
            "brownout": {
                "enter_pressure": 0.9,
                "exit_pressure": 0.1,
                "min_dwell_ms": 5,
                "level1_max_arms": 1
            }
        }"#;
        let c: OrchestratorConfig = serde_json::from_str(json).unwrap();
        let expected = OrchestratorConfig {
            brownout: crate::brownout::BrownoutConfig {
                level1_max_arms: 1,
                ..Default::default()
            },
            ..OrchestratorConfig::default()
        };
        assert_eq!(c, expected);

        // The hybrid once carried its own Eq. 6.1 weights, which phase 2
        // ignored; both phases now score with `mab.weights`.
        let json = r#"{"Hybrid": {
            "weights": {"alpha": 0.5, "beta": 0.5},
            "probe_rounds": 2,
            "probe_tokens": 4,
            "prune_margin": 0.15,
            "mab": {
                "weights": {"alpha": 0.7, "beta": 0.3},
                "gamma0": 0.3,
                "decay": true,
                "pull_tokens": 1,
                "selection": "FinalScore",
                "early_stop": false
            }
        }}"#;
        let strategy: Strategy = serde_json::from_str(json).unwrap();
        assert_eq!(
            strategy,
            Strategy::Hybrid(crate::hybrid::HybridConfig::default())
        );
    }

    #[test]
    fn builder_sets_robustness_knobs() {
        let c = OrchestratorConfig::builder()
            .breaker(BreakerConfig {
                failure_threshold: 7,
                ..BreakerConfig::default()
            })
            .query_deadline_ms(2000)
            .build();
        assert_eq!(c.breaker.failure_threshold, 7);
        assert_eq!(c.query_deadline_ms, Some(2000));
    }

    #[test]
    fn builder_sets_overload_knobs() {
        let c = OrchestratorConfig::builder()
            .max_rounds(6)
            .brownout(crate::brownout::BrownoutConfig {
                level1_max_arms: 1,
                ..Default::default()
            })
            .build();
        assert_eq!(c.max_rounds, Some(6));
        assert_eq!(c.brownout.level1_max_arms, 1);
    }
}
