//! A corpus-fitted TF-IDF embedder — the alternative encoder for the
//! "impact of embedding-based scoring" analysis (thesis §8.4).
//!
//! Unlike [`crate::HashedNgramEmbedder`] (stateless, uniform word weights),
//! `TfIdfEmbedder` is *fitted* to a corpus: each word feature is scaled by
//! its inverse document frequency, so stopwords ("the", "is", "of") stop
//! dominating similarity and content words drive scoring. Unseen words get
//! the maximum IDF (they are maximally informative). Feature hashing and
//! L2 normalization follow the same scheme as the hashed embedder, so the
//! two are drop-in interchangeable anywhere a
//! [`crate::Embedder`] is accepted.

use crate::embedder::Embedder;
use crate::embedding::Embedding;
use crate::tokenizer::{normalize, NormalizerConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of a [`TfIdfEmbedder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TfIdfConfig {
    /// Output dimensionality.
    pub dim: usize,
    /// Also hash character n-grams (length 3..=4) at reduced weight for
    /// typo robustness.
    pub use_char_ngrams: bool,
    /// Weight of character n-gram features relative to word features.
    pub char_weight: f32,
}

impl Default for TfIdfConfig {
    fn default() -> Self {
        Self {
            dim: 384,
            use_char_ngrams: true,
            char_weight: 0.3,
        }
    }
}

/// A TF-IDF weighted, feature-hashed embedder. See the module docs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TfIdfEmbedder {
    config: TfIdfConfig,
    /// Learned IDF per word (normalized form).
    idf: HashMap<String, f32>,
    /// IDF assigned to words never seen during fitting.
    max_idf: f32,
}

impl TfIdfEmbedder {
    /// Fit IDF statistics over `corpus` documents.
    ///
    /// # Panics
    ///
    /// Panics when `config.dim == 0`.
    pub fn fit<'a, I>(corpus: I, config: TfIdfConfig) -> Self
    where
        I: IntoIterator<Item = &'a str>,
    {
        assert!(config.dim > 0, "embedding dimension must be positive");
        let normalizer = NormalizerConfig::case_insensitive();
        let mut document_frequency: HashMap<String, u32> = HashMap::new();
        let mut documents = 0u32;
        for doc in corpus {
            documents += 1;
            let normalized = normalize(doc, &normalizer);
            let unique: std::collections::HashSet<&str> = normalized.split_whitespace().collect();
            for word in unique {
                *document_frequency.entry(word.to_owned()).or_insert(0) += 1;
            }
        }
        let n = f64::from(documents.max(1));
        let idf: HashMap<String, f32> = document_frequency
            .into_iter()
            .map(|(word, df)| {
                let idf = ((1.0 + n) / (1.0 + f64::from(df))).ln() as f32 + 1.0;
                (word, idf)
            })
            .collect();
        let max_idf = idf.values().cloned().fold(1.0f32, f32::max);
        Self {
            config,
            idf,
            max_idf,
        }
    }

    /// IDF of `word` (normalized form), or the out-of-vocabulary maximum.
    pub fn idf_of(&self, word: &str) -> f32 {
        self.idf
            .get(&word.to_lowercase())
            .copied()
            .unwrap_or(self.max_idf)
    }

    /// Number of words with learned IDF.
    pub fn vocabulary_size(&self) -> usize {
        self.idf.len()
    }

    fn add_feature(&self, acc: &mut [f32], bytes: &[u8], weight: f32) {
        let h = fnv1a64(bytes);
        let bucket = (h % self.config.dim as u64) as usize;
        let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
        acc[bucket] += sign * weight;
    }
}

impl Embedder for TfIdfEmbedder {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn embed(&self, text: &str) -> Embedding {
        let normalized = normalize(text, &NormalizerConfig::case_insensitive());
        let mut acc = vec![0.0f32; self.config.dim];
        let mut tf: HashMap<&str, usize> = HashMap::new();
        for word in normalized.split_whitespace() {
            *tf.entry(word).or_insert(0) += 1;
        }
        for (word, count) in &tf {
            let weight = (1.0 + (*count as f32).ln()) * self.idf_of(word);
            let mut key = Vec::with_capacity(word.len() + 2);
            key.extend_from_slice(b"w:");
            key.extend_from_slice(word.as_bytes());
            self.add_feature(&mut acc, &key, weight);
            if self.config.use_char_ngrams {
                let chars: Vec<char> = word.chars().collect();
                for n in 3..=4usize {
                    if chars.len() < n {
                        continue;
                    }
                    for start in 0..=chars.len() - n {
                        let gram: String = chars[start..start + n].iter().collect();
                        let mut key = Vec::with_capacity(gram.len() + 2);
                        key.extend_from_slice(b"g:");
                        key.extend_from_slice(gram.as_bytes());
                        self.add_feature(&mut acc, &key, weight * self.config.char_weight);
                    }
                }
            }
        }
        let mut e = Embedding::new(acc);
        e.normalize();
        e
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::cosine_embeddings;

    fn corpus() -> Vec<&'static str> {
        vec![
            "the capital of france is paris",
            "the capital of japan is tokyo",
            "the capital of italy is rome",
            "the boiling point of water is one hundred degrees",
            "the speed of light is very large",
            "photosynthesis converts the light of the sun",
        ]
    }

    fn fitted() -> TfIdfEmbedder {
        TfIdfEmbedder::fit(corpus(), TfIdfConfig::default())
    }

    #[test]
    fn stopwords_get_low_idf() {
        let e = fitted();
        // "the" appears in every document; "paris" in one.
        assert!(e.idf_of("the") < e.idf_of("paris"));
        assert!(e.vocabulary_size() > 10);
    }

    #[test]
    fn unseen_words_get_max_idf() {
        let e = fitted();
        assert_eq!(e.idf_of("zanzibar"), e.max_idf);
        assert!(e.idf_of("zanzibar") >= e.idf_of("paris"));
    }

    #[test]
    fn embeddings_are_unit_norm_and_deterministic() {
        let e = fitted();
        let a = e.embed("the capital of france");
        assert!((a.l2_norm() - 1.0).abs() < 1e-4);
        assert_eq!(a, e.embed("the capital of france"));
        assert!(e.embed("").is_zero());
    }

    #[test]
    fn content_words_dominate_similarity() {
        let e = fitted();
        let q = e.embed("what is the capital of france");
        // Shares only stopwords with the query...
        let stop_overlap = e.embed("what is the point of it all");
        // ...vs shares the content words.
        let content_overlap = e.embed("france capital paris");
        assert!(
            cosine_embeddings(&q, &content_overlap) > cosine_embeddings(&q, &stop_overlap),
            "content {:.3} vs stopword {:.3}",
            cosine_embeddings(&q, &content_overlap),
            cosine_embeddings(&q, &stop_overlap)
        );
    }

    #[test]
    fn interchangeable_with_hashed_embedder() {
        // Same trait, same dimension default: can back a SharedEmbedder.
        let shared: crate::SharedEmbedder = std::sync::Arc::new(fitted());
        assert_eq!(shared.dim(), 384);
        assert!(!shared.embed("hello world").is_zero());
    }

    #[test]
    fn serde_roundtrip() {
        let e = fitted();
        let json = serde_json::to_string(&e).unwrap();
        let back: TfIdfEmbedder = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.embed("capital of france"),
            e.embed("capital of france")
        );
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        TfIdfEmbedder::fit(
            ["x"],
            TfIdfConfig {
                dim: 0,
                ..Default::default()
            },
        );
    }
}
