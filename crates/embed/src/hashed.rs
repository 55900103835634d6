//! The deterministic hashed n-gram embedder.
//!
//! This is the workspace's substitute for the paper's `mxbai-embed-large` /
//! `nomic-embed-text` encoders (served through Ollama in the original
//! system). The orchestration and retrieval algorithms only consume
//! embeddings through cosine similarity, so what must be preserved is the
//! *ordering* property: texts that say the same thing should score high,
//! texts that say different things should score low. A signed
//! feature-hashing embedder over character n-grams and word unigrams
//! provides exactly that, deterministically and with zero model weights:
//!
//! * word unigrams capture topical overlap (shared vocabulary);
//! * character n-grams capture morphology and typo robustness;
//! * signed hashing (one hash picks the bucket, a second picks ±1) keeps the
//!   expected dot product of unrelated texts at zero;
//! * sublinear `1 + ln(tf)` weighting prevents a repeated word from
//!   dominating;
//! * final L2 normalization makes dot product equal cosine.

use crate::embedder::Embedder;
use crate::embedding::Embedding;
use crate::tokenizer::{normalize, NormalizerConfig};
use serde::{Deserialize, Serialize};

/// Configuration of a [`HashedNgramEmbedder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HashedEmbedderConfig {
    /// Output dimensionality. The paper's encoders emit 1024/1536 dims; 384
    /// preserves cosine ordering at a fraction of the cost and is the common
    /// "small" embedding size (e.g. all-MiniLM).
    pub dim: usize,
    /// Inclusive range of character n-gram lengths hashed per word.
    pub ngram_min: usize,
    /// Inclusive upper bound of the n-gram lengths.
    pub ngram_max: usize,
}

/// Weight of a whole-word unigram feature relative to a character n-gram
/// feature: words carry the dominant topical signal.
const WORD_WEIGHT: f32 = 2.0;

impl Default for HashedEmbedderConfig {
    fn default() -> Self {
        Self {
            dim: 384,
            ngram_min: 3,
            ngram_max: 4,
        }
    }
}

/// Deterministic signed feature-hashing embedder. See the module docs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HashedNgramEmbedder {
    config: HashedEmbedderConfig,
}

impl HashedNgramEmbedder {
    /// Build an embedder from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or the n-gram range is empty/inverted — both are
    /// configuration bugs, not runtime conditions.
    pub fn new(config: HashedEmbedderConfig) -> Self {
        assert!(config.dim > 0, "embedding dimension must be positive");
        assert!(
            config.ngram_min >= 1 && config.ngram_min <= config.ngram_max,
            "invalid n-gram range {}..={}",
            config.ngram_min,
            config.ngram_max
        );
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &HashedEmbedderConfig {
        &self.config
    }

    fn add_feature(&self, acc: &mut [f32], bytes: &[u8], weight: f32) {
        let h = fnv1a64(bytes);
        let bucket = (h % self.config.dim as u64) as usize;
        // A second, independent bit of the hash decides the sign.
        let sign = if (h >> 63) & 1 == 0 { 1.0 } else { -1.0 };
        acc[bucket] += sign * weight;
    }

    /// Fold one normalized word's features (word unigram + char n-grams)
    /// into `acc` at `weight`. Feature contributions are linear in `weight`,
    /// which is what makes incremental term-frequency updates possible: to
    /// move a word from weight w₀ to w₁, fold it in again at `w₁ − w₀`.
    pub(crate) fn add_word_features(&self, acc: &mut [f32], word: &str, weight: f32) {
        // Prefix distinguishes word features from n-gram features.
        let mut key = Vec::with_capacity(word.len() + 2);
        key.extend_from_slice(b"w:");
        key.extend_from_slice(word.as_bytes());
        self.add_feature(acc, &key, weight * WORD_WEIGHT);
        let chars: Vec<char> = word.chars().collect();
        for n in self.config.ngram_min..=self.config.ngram_max {
            if chars.len() < n {
                continue;
            }
            for start in 0..=chars.len() - n {
                let gram: String = chars[start..start + n].iter().collect();
                let mut key = Vec::with_capacity(gram.len() + 2);
                key.extend_from_slice(b"g:");
                key.extend_from_slice(gram.as_bytes());
                self.add_feature(acc, &key, weight);
            }
        }
    }
}

impl Default for HashedNgramEmbedder {
    fn default() -> Self {
        Self::new(HashedEmbedderConfig::default())
    }
}

impl Embedder for HashedNgramEmbedder {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn embed(&self, text: &str) -> Embedding {
        let _span = llmms_obs::span("embed");
        let normalized = normalize(text, &NormalizerConfig::case_insensitive());
        let mut acc = vec![0.0f32; self.config.dim];

        // Term frequencies for sublinear weighting.
        let mut word_tf: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for word in normalized.split_whitespace() {
            *word_tf.entry(word).or_insert(0) += 1;
        }

        for (word, tf) in &word_tf {
            // Sublinear term-frequency weighting.
            let w = 1.0 + (*tf as f32).ln();
            self.add_word_features(&mut acc, word, w);
        }

        let mut e = Embedding::new(acc);
        e.normalize();
        e
    }

    fn accumulator(&self) -> Option<Box<dyn crate::incremental::IncrementalAccumulator>> {
        Some(Box::new(crate::incremental::ResponseAccumulator::new(
            self.clone(),
        )))
    }
}

/// FNV-1a 64-bit hash — tiny, deterministic across platforms, good avalanche
/// for short keys.
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

    fn embedder() -> HashedNgramEmbedder {
        HashedNgramEmbedder::default()
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = embedder().embed("the capital of france is paris");
        assert!((e.l2_norm() - 1.0).abs() < 1e-5);
        assert_eq!(e.dim(), 384);
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = embedder().embed("");
        assert!(e.is_zero());
    }

    #[test]
    fn deterministic_across_calls() {
        let emb = embedder();
        assert_eq!(emb.embed("hello world"), emb.embed("hello world"));
    }

    #[test]
    fn case_insensitive() {
        let emb = embedder();
        let a = emb.embed("The Capital Of FRANCE");
        let b = emb.embed("the capital of france");
        assert!((cosine_embeddings(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn similar_texts_score_higher_than_unrelated() {
        let emb = embedder();
        let q = emb.embed("what is the capital of france");
        let good = emb.embed("the capital of france is paris");
        let bad = emb.embed("photosynthesis converts sunlight into chemical energy");
        let sim_good = cosine_embeddings(&q, &good);
        let sim_bad = cosine_embeddings(&q, &bad);
        assert!(
            sim_good > sim_bad + 0.2,
            "good={sim_good:.3} bad={sim_bad:.3}"
        );
    }

    #[test]
    fn paraphrase_beats_topic_only_overlap() {
        let emb = embedder();
        let q = emb.embed("water boils at one hundred degrees celsius at sea level");
        let paraphrase = emb.embed("at sea level water boils at 100 degrees celsius");
        let topic_only = emb.embed("water is a chemical compound of hydrogen and oxygen");
        assert!(cosine_embeddings(&q, &paraphrase) > cosine_embeddings(&q, &topic_only),);
    }

    #[test]
    fn typo_robustness_via_char_ngrams() {
        let emb = embedder();
        let a = emb.embed("photosynthesis in plants");
        let typo = emb.embed("photosynthesys in plants");
        let unrelated = emb.embed("stock market crashed yesterday");
        assert!(cosine_embeddings(&a, &typo) > cosine_embeddings(&a, &unrelated));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_rejected() {
        HashedNgramEmbedder::new(HashedEmbedderConfig {
            dim: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "invalid n-gram range")]
    fn inverted_ngram_range_rejected() {
        HashedNgramEmbedder::new(HashedEmbedderConfig {
            ngram_min: 5,
            ngram_max: 3,
            ..Default::default()
        });
    }

    #[test]
    fn custom_dim_respected() {
        let emb = HashedNgramEmbedder::new(HashedEmbedderConfig {
            dim: 64,
            ..Default::default()
        });
        assert_eq!(emb.embed("abc").dim(), 64);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("") is the offset basis.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::similarity::cosine_embeddings;
    use proptest::prelude::*;

    proptest! {
        /// Every non-empty embedding has unit norm; empty text maps to zero.
        #[test]
        fn norm_invariant(s in "[a-z ]{0,64}") {
            let e = HashedNgramEmbedder::default().embed(&s);
            if s.split_whitespace().next().is_none() {
                prop_assert!(e.is_zero());
            } else {
                prop_assert!((e.l2_norm() - 1.0).abs() < 1e-4);
            }
        }

        /// Self-similarity of non-empty text is 1.
        #[test]
        fn self_similarity_is_one(s in "[a-z]{1,12}( [a-z]{1,12}){0,8}") {
            let emb = HashedNgramEmbedder::default();
            let e = emb.embed(&s);
            prop_assert!((cosine_embeddings(&e, &e) - 1.0).abs() < 1e-4);
        }

        /// Word order does not change the embedding (bag-of-features model).
        #[test]
        fn order_invariant(a in "[a-z]{2,8}", b in "[a-z]{2,8}") {
            let emb = HashedNgramEmbedder::default();
            let ab = emb.embed(&format!("{a} {b}"));
            let ba = emb.embed(&format!("{b} {a}"));
            prop_assert!((cosine_embeddings(&ab, &ba) - 1.0).abs() < 1e-4);
        }
    }
}
