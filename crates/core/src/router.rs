//! Cognitive routing with semantic task indexing — the thesis's §9.5
//! extension: "Add a simple intent detector ... and keep a small index of
//! which models are best at each task. When a new question comes in, look
//! up its intent and send it only to the model that's known to handle that
//! kind of job."
//!
//! The [`TaskIndex`] holds one embedding centroid per task category plus a
//! preferred model for it. Routing embeds the query, picks the nearest
//! category, and dispatches the query to that category's preferred model
//! alone — single-model cost, specialist quality. Preferences can be
//! seeded statically or learned online from observed rewards
//! ([`TaskIndex::record_feedback`], the §9.5 "self-improving orchestration"
//! loop).

use crate::config::OuaConfig;
use crate::engine::{Policy, Single};
use crate::oua::Oua;
use llmms_embed::{cosine_embeddings, Embedding, SharedEmbedder};
use llmms_models::{BreakerState, HealthRegistry, SharedModel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of the routed strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouterConfig {
    /// The semantic task index queries are routed with.
    pub index: TaskIndex,
    /// Minimum intent-detection confidence (cosine to the winning
    /// centroid); below it the router falls back to full OUA orchestration
    /// over the pool rather than trusting a wild guess.
    pub min_confidence: f64,
    /// OUA parameters used on fallback.
    pub fallback: OuaConfig,
}

impl RouterConfig {
    /// Route with `index` and default confidence/fallback settings.
    pub fn new(index: TaskIndex) -> Self {
        Self {
            index,
            min_confidence: 0.05,
            fallback: OuaConfig::default(),
        }
    }

    /// The arms and policy for a query embedded as `query`: the preferred
    /// model of the detected task alone under the single-model policy, or
    /// OUA over the whole pool when detection is unconfident or the
    /// preferred model is absent or unhealthy.
    pub(crate) fn route<'m>(
        &self,
        models: &'m [SharedModel],
        query: &Embedding,
        health: &HealthRegistry,
    ) -> (&'m [SharedModel], Box<dyn Policy>) {
        if let Some((task, confidence)) = self.index.detect(query) {
            if f64::from(confidence) >= self.min_confidence {
                if let Some(i) = models.iter().position(|m| m.name() == task.preferred_model) {
                    // Only dispatch solo to a healthy specialist. A tripped or
                    // probing breaker sends the query to the fallback pool
                    // instead, where `start_all` runs the recovery probe with
                    // the other models as safety net (`admit` is not called
                    // here — it would consume the half-open probe slot).
                    if health.state(models[i].name()) == BreakerState::Closed {
                        return (&models[i..=i], Box::new(Single));
                    }
                }
            }
        }
        (models, Box::new(Oua::new(&self.fallback, models.len())))
    }
}

/// One routable task category.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskProfile {
    /// Category name (e.g. `"science"`).
    pub name: String,
    /// Semantic centroid of the category's exemplar queries.
    pub centroid: Embedding,
    /// The model currently preferred for this category.
    pub preferred_model: String,
    /// Exponential moving average of observed reward per model, used by the
    /// feedback loop to update `preferred_model`.
    pub reward_ema: HashMap<String, f64>,
}

/// The semantic task index.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TaskIndex {
    tasks: Vec<TaskProfile>,
    /// EMA smoothing factor for feedback updates, in `(0, 1]`.
    pub learning_rate: f64,
}

impl TaskIndex {
    /// Build an index from `(category, exemplar queries, preferred model)`
    /// triples; exemplars are embedded and averaged into the centroid.
    pub fn build(tasks: &[(&str, &[&str], &str)], embedder: &SharedEmbedder) -> Self {
        let tasks = tasks
            .iter()
            .map(|(name, exemplars, preferred)| {
                let embeddings: Vec<Embedding> =
                    exemplars.iter().map(|e| embedder.embed(e)).collect();
                let centroid = Embedding::centroid(embeddings.iter())
                    .unwrap_or_else(|| Embedding::zeros(embedder.dim()))
                    .normalized();
                TaskProfile {
                    name: (*name).to_owned(),
                    centroid,
                    preferred_model: (*preferred).to_owned(),
                    reward_ema: HashMap::new(),
                }
            })
            .collect();
        Self {
            tasks,
            learning_rate: 0.3,
        }
    }

    /// Number of indexed categories.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The indexed categories.
    pub fn tasks(&self) -> &[TaskProfile] {
        &self.tasks
    }

    /// Detect the intent of `query`: the category whose centroid is nearest,
    /// with its similarity. `None` on an empty index.
    pub fn detect(&self, query: &Embedding) -> Option<(&TaskProfile, f32)> {
        self.tasks
            .iter()
            .map(|t| (t, cosine_embeddings(query, &t.centroid)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }

    /// The model to route `query` to, or `None` when the index is empty.
    pub fn route(&self, query: &Embedding) -> Option<&str> {
        self.detect(query).map(|(t, _)| t.preferred_model.as_str())
    }

    /// Feed back an observed reward for `model` on `category`; when another
    /// model's EMA overtakes the incumbent's, the preference flips — the
    /// self-improving loop of §9.5.
    pub fn record_feedback(&mut self, category: &str, model: &str, reward: f64) {
        let rate = self.learning_rate.clamp(f64::MIN_POSITIVE, 1.0);
        let Some(task) = self.tasks.iter_mut().find(|t| t.name == category) else {
            return;
        };
        let ema = task.reward_ema.entry(model.to_owned()).or_insert(reward);
        *ema = (1.0 - rate) * *ema + rate * reward;
        if let Some((best, _)) = task
            .reward_ema
            .iter()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        {
            task.preferred_model = best.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedder() -> SharedEmbedder {
        llmms_embed::default_embedder()
    }

    fn index() -> TaskIndex {
        let e = embedder();
        TaskIndex::build(
            &[
                (
                    "geography",
                    &[
                        "what is the capital of france",
                        "which city is the capital of turkey",
                        "what is the longest river in the world",
                    ][..],
                    "mistral-7b",
                ),
                (
                    "history",
                    &[
                        "did vikings wear horned helmets",
                        "what event triggered the first world war",
                        "who built the egyptian pyramids",
                    ][..],
                    "llama3-8b",
                ),
            ],
            &e,
        )
    }

    #[test]
    fn builds_one_profile_per_category() {
        let idx = index();
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
        assert!((idx.tasks()[0].centroid.l2_norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn routes_by_semantic_intent() {
        let idx = index();
        let e = embedder();
        let geo = e.embed("what is the capital city of australia");
        assert_eq!(idx.route(&geo), Some("mistral-7b"));
        let hist = e.embed("what happened when the first world war started");
        assert_eq!(idx.route(&hist), Some("llama3-8b"));
    }

    #[test]
    fn empty_index_routes_nowhere() {
        let idx = TaskIndex::default();
        let e = embedder();
        assert!(idx.route(&e.embed("anything")).is_none());
        assert!(idx.detect(&e.embed("anything")).is_none());
    }

    #[test]
    fn feedback_flips_preference() {
        let mut idx = index();
        // qwen keeps outperforming on geography.
        for _ in 0..10 {
            idx.record_feedback("geography", "qwen2-7b", 0.9);
            idx.record_feedback("geography", "mistral-7b", 0.2);
        }
        let e = embedder();
        assert_eq!(
            idx.route(&e.embed("what is the capital of brazil")),
            Some("qwen2-7b")
        );
        // History preference is untouched.
        assert_eq!(
            idx.route(&e.embed("did an apple fall on newton's head")),
            Some("llama3-8b")
        );
    }

    #[test]
    fn feedback_for_unknown_category_is_ignored() {
        let mut idx = index();
        idx.record_feedback("astrology", "qwen2-7b", 1.0);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let idx = index();
        let json = serde_json::to_string(&idx).unwrap();
        let back: TaskIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back, idx);
    }
}
