//! Natural-language configuration — the thesis's §9.5 extension: "Provide a
//! user-friendly text box where anyone can type clear instructions, 'avoid
//! using slow models,' 'prioritize our legal model,' or 'keep responses
//! under 200 words', and the platform automatically interprets these rules,
//! filters out unwanted models, and adjusts output style."
//!
//! The interpreter is a deterministic rule grammar over comma/“and”-separated
//! clauses (the original proposes an LLM interpreter; a rule grammar keeps
//! the reproduction self-contained and testable). Recognized directives:
//!
//! | phrasing | effect |
//! |---|---|
//! | "use the bandit / mab" · "use oua" · "use the hybrid" · "use a single model" | strategy switch |
//! | "budget 512 tokens" · "spend at most 1000 tokens" | λ_max |
//! | "keep responses under 200 words" · "answers under 50 words" | per-answer cap |
//! | "avoid slow models" | drop the slowest model from the pool |
//! | "avoid `<model>`" · "don't use `<model>`" | drop a named model |
//! | "prefer `<model>`" · "prioritize `<model>`" | route single-mode to it |
//! | "be deterministic" · "temperature 0" | temperature 0 |

use llmms_core::{OrchestratorConfig, Strategy};
use serde::{Deserialize, Serialize};

/// The parsed effect of an instruction string.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigDirectives {
    /// Strategy switch, if requested.
    pub strategy: Option<String>,
    /// λ_max override.
    pub token_budget: Option<usize>,
    /// Per-answer word cap ("keep responses under N words").
    pub max_answer_words: Option<usize>,
    /// Models to exclude from the pool, by name.
    pub avoid_models: Vec<String>,
    /// Drop the slowest model from the pool.
    pub avoid_slow: bool,
    /// Model to prefer (single-route to it).
    pub prefer_model: Option<String>,
    /// Temperature override.
    pub temperature: Option<f32>,
    /// Clauses the interpreter did not understand (surfaced to the user).
    pub unrecognized: Vec<String>,
}

impl ConfigDirectives {
    /// Whether any directive was recognized.
    pub fn is_empty(&self) -> bool {
        self.strategy.is_none()
            && self.token_budget.is_none()
            && self.max_answer_words.is_none()
            && self.avoid_models.is_empty()
            && !self.avoid_slow
            && self.prefer_model.is_none()
            && self.temperature.is_none()
    }

    /// Apply the directives to an orchestrator config (model-pool effects
    /// are applied separately by the caller, which owns the pool).
    pub fn apply_to(&self, config: &mut OrchestratorConfig) {
        if let Some(strategy) = self.strategy.as_deref().and_then(Strategy::from_name) {
            config.strategy = strategy;
        }
        if self.prefer_model.is_some() {
            config.strategy = Strategy::Single;
        }
        if let Some(budget) = self.token_budget {
            config.token_budget = budget.max(1);
        }
        if let Some(words) = self.max_answer_words {
            // One simulated token per word: the word cap is a budget cap.
            config.token_budget = config.token_budget.min(words.max(1));
        }
        if let Some(t) = self.temperature {
            config.temperature = t.clamp(0.0, 2.0);
        }
    }
}

/// Interpret a free-text instruction into [`ConfigDirectives`].
/// `known_models` lets "avoid X" / "prefer X" match loose name fragments
/// ("avoid llama" matches `llama3-8b`).
pub fn interpret(instruction: &str, known_models: &[&str]) -> ConfigDirectives {
    let mut out = ConfigDirectives::default();
    for clause in split_clauses(instruction) {
        let lower = clause.to_lowercase();
        let words: Vec<&str> = lower.split_whitespace().collect();
        if words.is_empty() {
            continue;
        }
        if parse_strategy(&lower, &mut out)
            || parse_budget(&lower, &words, &mut out)
            || parse_word_cap(&lower, &words, &mut out)
            || parse_avoid_prefer(&lower, known_models, &mut out)
            || parse_temperature(&lower, &words, &mut out)
        {
            continue;
        }
        out.unrecognized.push(clause.trim().to_owned());
    }
    out
}

fn split_clauses(instruction: &str) -> Vec<String> {
    instruction
        .split([',', ';'])
        .flat_map(|part| part.split(". "))
        .flat_map(|part| part.split(" and "))
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect()
}

fn parse_strategy(lower: &str, out: &mut ConfigDirectives) -> bool {
    let strategy = if lower.contains("bandit") || lower.contains("mab") {
        "mab"
    } else if lower.contains("hybrid") {
        "hybrid"
    } else if lower.contains("oua")
        || lower.contains("overperform")
        || lower.contains("pruning algorithm")
    {
        "oua"
    } else if lower.contains("single model") || lower.contains("one model") {
        "single"
    } else {
        return false;
    };
    // Only treat it as a strategy clause when it reads like an instruction.
    if lower.contains("use") || lower.contains("switch") || lower.contains("run") {
        out.strategy = Some(strategy.to_owned());
        true
    } else {
        false
    }
}

fn parse_budget(lower: &str, words: &[&str], out: &mut ConfigDirectives) -> bool {
    if !(lower.contains("budget") || (lower.contains("token") && lower.contains("most"))) {
        return false;
    }
    if let Some(n) = first_number(words) {
        out.token_budget = Some(n);
        return true;
    }
    false
}

fn parse_word_cap(lower: &str, words: &[&str], out: &mut ConfigDirectives) -> bool {
    let about_length = (lower.contains("response") || lower.contains("answer"))
        && (lower.contains("under") || lower.contains("at most") || lower.contains("short"));
    if !about_length || !lower.contains("word") {
        return false;
    }
    if let Some(n) = first_number(words) {
        out.max_answer_words = Some(n);
        return true;
    }
    false
}

fn parse_avoid_prefer(lower: &str, known_models: &[&str], out: &mut ConfigDirectives) -> bool {
    let avoiding = lower.contains("avoid")
        || lower.contains("don't use")
        || lower.contains("do not use")
        || lower.contains("without");
    let preferring = lower.contains("prefer") || lower.contains("prioritize");
    if !avoiding && !preferring {
        return false;
    }
    if avoiding && lower.contains("slow") {
        out.avoid_slow = true;
        return true;
    }
    for model in known_models {
        // Loose matching: the model's alphabetic head ("llama" for
        // "llama3-8b") is what users type.
        let head: String = model
            .chars()
            .take_while(|c| c.is_alphabetic())
            .collect::<String>()
            .to_lowercase();
        let fragment_hit = head.len() >= 3 && lower.contains(&head);
        if lower.contains(&model.to_lowercase()) || fragment_hit {
            if avoiding {
                out.avoid_models.push((*model).to_owned());
            } else {
                out.prefer_model = Some((*model).to_owned());
            }
            return true;
        }
    }
    false
}

fn parse_temperature(lower: &str, words: &[&str], out: &mut ConfigDirectives) -> bool {
    if lower.contains("deterministic") {
        out.temperature = Some(0.0);
        return true;
    }
    if lower.contains("temperature") {
        if let Some(pos) = words.iter().position(|w| w.contains("temperature")) {
            if let Some(v) = words[pos + 1..].iter().find_map(|w| w.parse::<f32>().ok()) {
                out.temperature = Some(v);
                return true;
            }
        }
    }
    false
}

fn first_number(words: &[&str]) -> Option<usize> {
    words
        .iter()
        .find_map(|w| w.trim_matches(|c: char| !c.is_ascii_digit()).parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODELS: &[&str] = &["llama3-8b", "mistral-7b", "qwen2-7b"];

    #[test]
    fn strategy_phrases() {
        assert_eq!(
            interpret("use the bandit", MODELS).strategy.as_deref(),
            Some("mab")
        );
        assert_eq!(
            interpret("switch to the hybrid strategy", MODELS)
                .strategy
                .as_deref(),
            Some("hybrid")
        );
        assert_eq!(
            interpret("run oua please", MODELS).strategy.as_deref(),
            Some("oua")
        );
        assert_eq!(
            interpret("just use one model", MODELS).strategy.as_deref(),
            Some("single")
        );
    }

    #[test]
    fn budget_and_word_caps() {
        let d = interpret("budget 512 tokens", MODELS);
        assert_eq!(d.token_budget, Some(512));
        let d = interpret("keep responses under 200 words", MODELS);
        assert_eq!(d.max_answer_words, Some(200));
        let d = interpret("answers at most 50 words, budget 1000 tokens", MODELS);
        assert_eq!(d.max_answer_words, Some(50));
        assert_eq!(d.token_budget, Some(1000));
    }

    #[test]
    fn avoid_and_prefer_models() {
        let d = interpret("avoid llama and prefer qwen", MODELS);
        assert_eq!(d.avoid_models, ["llama3-8b"]);
        assert_eq!(d.prefer_model.as_deref(), Some("qwen2-7b"));
        let d = interpret("avoid slow models", MODELS);
        assert!(d.avoid_slow);
        let d = interpret("don't use mistral-7b", MODELS);
        assert_eq!(d.avoid_models, ["mistral-7b"]);
    }

    #[test]
    fn temperature_phrases() {
        assert_eq!(interpret("be deterministic", MODELS).temperature, Some(0.0));
        assert_eq!(
            interpret("set temperature 0.2", MODELS).temperature,
            Some(0.2)
        );
    }

    #[test]
    fn unrecognized_clauses_are_surfaced() {
        let d = interpret("use the bandit, paint everything blue", MODELS);
        assert_eq!(d.strategy.as_deref(), Some("mab"));
        assert_eq!(d.unrecognized, ["paint everything blue"]);
        assert!(!d.is_empty());
    }

    #[test]
    fn empty_instruction_is_empty() {
        let d = interpret("", MODELS);
        assert!(d.is_empty());
        assert!(d.unrecognized.is_empty());
    }

    #[test]
    fn apply_updates_config() {
        let mut config = OrchestratorConfig::default();
        let d = interpret(
            "use the bandit, budget 400 tokens, keep answers under 64 words, be deterministic",
            MODELS,
        );
        d.apply_to(&mut config);
        assert!(matches!(config.strategy, Strategy::Mab(_)));
        assert_eq!(config.token_budget, 64, "word cap tightens the budget");
        assert_eq!(config.temperature, 0.0);
    }

    #[test]
    fn prefer_forces_single_strategy() {
        let mut config = OrchestratorConfig::default();
        interpret("prioritize qwen", MODELS).apply_to(&mut config);
        assert!(matches!(config.strategy, Strategy::Single));
    }
}
