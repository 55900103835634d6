//! Extractive summarization used for hierarchical context condensation.
//!
//! The platform condenses old conversation turns into summaries "after every
//! five messages" (§7.3) so the prompt stays within model input limits. The
//! original system asks an LLM to summarize; this substrate uses centroid
//! extractive summarization — score each sentence by cosine similarity to
//! the text's embedding centroid and keep the most central ones — which
//! preserves the property the pipeline needs (a short text carrying the
//! dominant semantics) deterministically.

use llmms_embed::{cosine_embeddings, Embedding, SharedEmbedder};
use serde::{Deserialize, Serialize};

/// Configuration for [`summarize`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryConfig {
    /// Word budget for the summary.
    pub max_words: usize,
}

impl Default for SummaryConfig {
    fn default() -> Self {
        Self { max_words: 60 }
    }
}

/// Redundancy penalty: a candidate sentence loses this × its max similarity
/// to already-selected sentences (a light MMR).
const REDUNDANCY_PENALTY: f32 = 0.5;

/// Extractively summarize `text` to at most `config.max_words` words.
///
/// Selected sentences are emitted in their original order, so the summary
/// reads chronologically — important for conversation history.
pub fn summarize(text: &str, embedder: &SharedEmbedder, config: &SummaryConfig) -> String {
    let _span = llmms_obs::span("session_summarize");
    let sentences = split_sentences(text);
    if sentences.is_empty() {
        return String::new();
    }
    let total_words: usize = sentences.iter().map(|s| word_count(s)).sum();
    if total_words <= config.max_words {
        return sentences.join(" ");
    }

    let embeddings: Vec<Embedding> = sentences.iter().map(|s| embedder.embed(s)).collect();
    let centroid = Embedding::centroid(embeddings.iter())
        .expect("sentences is non-empty")
        .normalized();

    // Greedy MMR selection.
    let mut selected: Vec<usize> = Vec::new();
    let mut budget = config.max_words;
    loop {
        let mut best: Option<(usize, f32)> = None;
        for (i, e) in embeddings.iter().enumerate() {
            if selected.contains(&i) || word_count(&sentences[i]) > budget {
                continue;
            }
            let centrality = cosine_embeddings(e, &centroid);
            let redundancy = selected
                .iter()
                .map(|&j| cosine_embeddings(e, &embeddings[j]))
                .fold(0.0f32, f32::max);
            let score = centrality - REDUNDANCY_PENALTY * redundancy;
            if best.map_or(true, |(_, s)| score > s) {
                best = Some((i, score));
            }
        }
        let Some((i, _)) = best else { break };
        budget -= word_count(&sentences[i]);
        selected.push(i);
    }

    selected.sort_unstable();
    selected
        .into_iter()
        .map(|i| sentences[i].as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

fn word_count(s: &str) -> usize {
    s.split_whitespace().count()
}

/// Sentence splitting on terminal punctuation (shared convention with
/// `llmms-rag`'s chunker).
fn split_sentences(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for word in text.split_whitespace() {
        if !current.is_empty() {
            current.push(' ');
        }
        current.push_str(word);
        if word.ends_with(['.', '!', '?']) {
            out.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedder() -> SharedEmbedder {
        llmms_embed::default_embedder()
    }

    #[test]
    fn short_text_passes_through() {
        let e = embedder();
        let text = "Short text. Nothing to cut.";
        assert_eq!(summarize(text, &e, &SummaryConfig::default()), text);
    }

    #[test]
    fn empty_text_summarizes_to_empty() {
        let e = embedder();
        assert_eq!(summarize("", &e, &SummaryConfig::default()), "");
        assert_eq!(summarize("   ", &e, &SummaryConfig::default()), "");
    }

    #[test]
    fn long_text_is_cut_to_budget() {
        let e = embedder();
        let text = "The capital of France is Paris. \
                    Paris is known for the Eiffel Tower and fine cuisine. \
                    The capital of Japan is Tokyo. \
                    Tokyo hosts the largest metropolitan economy. \
                    The capital of Italy is Rome. \
                    Rome contains the Vatican City enclave. \
                    The capital of Spain is Madrid. \
                    Madrid sits on the Manzanares river.";
        let cfg = SummaryConfig { max_words: 20 };
        let summary = summarize(text, &e, &cfg);
        assert!(!summary.is_empty());
        assert!(
            summary.split_whitespace().count() <= 20,
            "summary too long: {summary}"
        );
    }

    #[test]
    fn summary_keeps_dominant_topic() {
        let e = embedder();
        // Four sentences about France, one stray about cooking.
        let text = "France is a country in western Europe. \
                    The capital of France is the city of Paris. \
                    France borders Germany Spain and Italy. \
                    The official language of France is French. \
                    My soup recipe needs more salt.";
        let cfg = SummaryConfig { max_words: 18 };
        let summary = summarize(text, &e, &cfg).to_lowercase();
        assert!(summary.contains("france"), "summary: {summary}");
    }

    #[test]
    fn summary_preserves_original_order() {
        let e = embedder();
        let text = "Alpha event happened first in the morning. \
                    Beta event happened second at noon with more alpha context. \
                    Gamma event happened third in the evening with alpha again. \
                    Delta event closed the day with alpha mentioned once more.";
        let cfg = SummaryConfig { max_words: 24 };
        let summary = summarize(text, &e, &cfg);
        // Whatever was kept must appear in chronological order.
        let positions: Vec<usize> = ["first", "second", "third", "closed"]
            .iter()
            .filter_map(|m| summary.find(*m))
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted);
    }

    #[test]
    fn deterministic() {
        let e = embedder();
        let text = "One fact here. Two facts there. Three facts everywhere. Four facts nowhere. Five facts somewhere.";
        let cfg = SummaryConfig { max_words: 8 };
        assert_eq!(summarize(text, &e, &cfg), summarize(text, &e, &cfg));
    }
}
