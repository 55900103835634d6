//! Evaluation metrics: token F1, Eq. 8.1 reward, and truthfulness accuracy.

use crate::dataset::DatasetItem;
use llmms_embed::tokenizer::words;
use llmms_embed::{cosine_embeddings, Embedding, SharedEmbedder};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Weights of the Eq. 8.1 evaluation reward. The thesis fixes
/// w₁ = 1.0 (golden), w₂ = 0.5 (correct set), w₃ = 0.5 (incorrect set).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalRewardWeights {
    /// Weight of similarity to the golden answer.
    pub w_golden: f64,
    /// Weight of similarity to the correct-answer set.
    pub w_correct: f64,
    /// Weight (subtracted) of similarity to the incorrect-answer set.
    pub w_incorrect: f64,
}

impl Default for EvalRewardWeights {
    fn default() -> Self {
        Self {
            w_golden: 1.0,
            w_correct: 0.5,
            w_incorrect: 0.5,
        }
    }
}

/// Token-overlap F1 between `prediction` and the best-matching reference in
/// `references` — the SQuAD convention the paper's F1 metric follows:
/// normalize (lowercase, strip punctuation), count overlapping word
/// multiset, take precision/recall harmonic mean, max over references.
pub fn f1_score(prediction: &str, references: &[&str]) -> f64 {
    references
        .iter()
        .map(|r| f1_single(prediction, r))
        .fold(0.0, f64::max)
}

fn f1_single(prediction: &str, reference: &str) -> f64 {
    let p = words(prediction);
    let r = words(reference);
    if p.is_empty() || r.is_empty() {
        return f64::from(u8::from(p.is_empty() && r.is_empty()));
    }
    let mut counts: HashMap<&str, isize> = HashMap::new();
    for w in &r {
        *counts.entry(w.as_str()).or_insert(0) += 1;
    }
    let mut overlap = 0usize;
    for w in &p {
        if let Some(c) = counts.get_mut(w.as_str()) {
            if *c > 0 {
                *c -= 1;
                overlap += 1;
            }
        }
    }
    if overlap == 0 {
        return 0.0;
    }
    let precision = overlap as f64 / p.len() as f64;
    let recall = overlap as f64 / r.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

/// The Eq. 8.1 evaluation reward of `response` for `item`:
///
/// ```text
/// R = w₁·sim(resp, golden) + w₂·sim(resp, correct) − w₃·sim(resp, incorrect)
/// ```
///
/// where `sim(resp, set)` is the mean cosine similarity over the set
/// (matching the thesis's "similarity with all correct answers").
pub fn eval_reward(
    response: &str,
    item: &DatasetItem,
    embedder: &SharedEmbedder,
    weights: &EvalRewardWeights,
) -> f64 {
    let resp = embedder.embed(response);
    let golden = embedder.embed(&item.golden);
    let sim_golden = f64::from(cosine_embeddings(&resp, &golden));
    let sim_correct = mean_similarity(&resp, &item.correct, embedder).unwrap_or(sim_golden);
    let sim_incorrect = mean_similarity(&resp, &item.incorrect, embedder).unwrap_or(0.0);
    weights.w_golden * sim_golden + weights.w_correct * sim_correct
        - weights.w_incorrect * sim_incorrect
}

fn mean_similarity(
    response: &Embedding,
    references: &[String],
    embedder: &SharedEmbedder,
) -> Option<f64> {
    if references.is_empty() {
        return None;
    }
    let sum: f64 = references
        .iter()
        .map(|r| f64::from(cosine_embeddings(response, &embedder.embed(r))))
        .sum();
    Some(sum / references.len() as f64)
}

/// Truthfulness judgment: the response counts as *truthful* when it is more
/// similar to its best correct reference than to its best incorrect one —
/// the embedding analogue of TruthfulQA's multiple-choice (MC1) criterion.
pub fn is_truthful(response: &str, item: &DatasetItem, embedder: &SharedEmbedder) -> bool {
    let resp = embedder.embed(response);
    let best_correct = item
        .all_correct()
        .map(|a| cosine_embeddings(&resp, &embedder.embed(a)))
        .fold(f32::MIN, f32::max);
    let best_incorrect = item
        .incorrect
        .iter()
        .map(|a| cosine_embeddings(&resp, &embedder.embed(a)))
        .fold(f32::MIN, f32::max);
    best_correct > best_incorrect
}

/// All per-query metrics bundled.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// Eq. 8.1 reward.
    pub reward: f64,
    /// Best-reference token F1.
    pub f1: f64,
    /// MC1-style truthfulness.
    pub truthful: bool,
    /// Tokens "generated in the final answer" — the paper's §8.2 token-usage
    /// definition, which Figure 8.3 divides the reward by.
    pub tokens: usize,
    /// Tokens spent across *all* candidate models for this query — the true
    /// system cost, reported alongside the paper's metric.
    pub total_tokens: usize,
}

/// Compute every metric for one answered query. `tokens` is the selected
/// answer's token count (§8.2); `total_tokens` is the all-models spend.
pub fn score_query(
    response: &str,
    tokens: usize,
    total_tokens: usize,
    item: &DatasetItem,
    embedder: &SharedEmbedder,
    weights: &EvalRewardWeights,
) -> QueryMetrics {
    let references: Vec<&str> = item.all_correct().collect();
    QueryMetrics {
        reward: eval_reward(response, item, embedder, weights),
        f1: f1_score(response, &references),
        truthful: is_truthful(response, item, embedder),
        tokens,
        total_tokens,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> DatasetItem {
        DatasetItem {
            id: "q".into(),
            question: "What is the capital of France?".into(),
            category: "geography".into(),
            golden: "The capital of France is Paris".into(),
            correct: vec!["Paris is the capital of France".into()],
            incorrect: vec![
                "Marseille, the great southern port, serves as the capital of France".into(),
            ],
        }
    }

    fn embedder() -> SharedEmbedder {
        llmms_embed::default_embedder()
    }

    #[test]
    fn f1_exact_match_is_one() {
        assert!(
            (f1_score(
                "The capital of France is Paris",
                &["the capital of france is paris!"]
            ) - 1.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn f1_no_overlap_is_zero() {
        assert_eq!(
            f1_score("bananas potassium", &["quantum chromodynamics"]),
            0.0
        );
    }

    #[test]
    fn f1_partial_overlap() {
        // prediction: 4 words, reference: 6 words, overlap 3
        // ("the", "capital", "paris"): p=3/4, r=3/6, f1=2*.75*.5/1.25=0.6
        let f1 = f1_single("the capital is paris", "the capital of france is paris");
        // overlap counts "the capital is paris" ∩ multiset: the, capital, is, paris = 4
        // p = 4/4 = 1.0, r = 4/6, f1 = 2*1*(2/3)/(5/3) = 0.8
        assert!((f1 - 0.8).abs() < 1e-9, "f1={f1}");
    }

    #[test]
    fn f1_takes_best_reference() {
        let refs = ["nothing shared here", "the capital of france is paris"];
        let best = f1_score("the capital of france is paris", &refs);
        assert!((best - 1.0).abs() < 1e-9);
    }

    #[test]
    fn f1_empty_edge_cases() {
        assert_eq!(f1_score("", &["something"]), 0.0);
        assert_eq!(f1_score("something", &[""]), 0.0);
        assert_eq!(f1_single("", ""), 1.0);
    }

    #[test]
    fn f1_respects_multiset_counts() {
        // "paris paris paris" should not get credit for three "paris" when
        // the reference has only one.
        let f1 = f1_single("paris paris paris", "paris is lovely");
        let p = 1.0 / 3.0;
        let r = 1.0 / 3.0;
        let expected = 2.0 * p * r / (p + r);
        assert!((f1 - expected).abs() < 1e-9);
    }

    #[test]
    fn reward_prefers_correct_answer() {
        let e = embedder();
        let it = item();
        let w = EvalRewardWeights::default();
        let good = eval_reward("The capital of France is Paris", &it, &e, &w);
        let bad = eval_reward(
            "Marseille, the great southern port, serves as the capital of France",
            &it,
            &e,
            &w,
        );
        assert!(good > bad, "good={good:.3} bad={bad:.3}");
    }

    #[test]
    fn reward_weights_match_paper() {
        let w = EvalRewardWeights::default();
        assert_eq!(w.w_golden, 1.0);
        assert_eq!(w.w_correct, 0.5);
        assert_eq!(w.w_incorrect, 0.5);
    }

    #[test]
    fn truthfulness_judgment() {
        let e = embedder();
        let it = item();
        assert!(is_truthful("The capital of France is Paris", &it, &e));
        assert!(!is_truthful(
            "Marseille the southern port is the capital serving France",
            &it,
            &e
        ));
    }

    #[test]
    fn score_query_bundles_consistently() {
        let e = embedder();
        let it = item();
        let m = score_query(
            "The capital of France is Paris",
            12,
            36,
            &it,
            &e,
            &EvalRewardWeights::default(),
        );
        assert!(m.truthful);
        assert!(m.f1 > 0.9);
        assert!(m.reward > 0.0);
        assert_eq!(m.tokens, 12);
        assert_eq!(m.total_tokens, 36);
    }

    #[test]
    fn empty_response_scores_poorly() {
        let e = embedder();
        let it = item();
        let m = score_query("", 0, 0, &it, &e, &EvalRewardWeights::default());
        assert_eq!(m.f1, 0.0);
        assert!(m.reward.abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// F1 is bounded in [0,1] and symmetric in its word multisets.
        #[test]
        fn f1_bounded_and_symmetric(
            a in "[a-z]{1,6}( [a-z]{1,6}){0,10}",
            b in "[a-z]{1,6}( [a-z]{1,6}){0,10}",
        ) {
            let ab = f1_single(&a, &b);
            let ba = f1_single(&b, &a);
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert!((ab - ba).abs() < 1e-9);
        }

        /// F1 of a string with itself is 1.
        #[test]
        fn f1_reflexive(a in "[a-z]{1,6}( [a-z]{1,6}){0,10}") {
            prop_assert!((f1_single(&a, &a) - 1.0).abs() < 1e-9);
        }
    }
}
