//! # llmms-embed
//!
//! Embedding substrate for the LLM-MS reproduction.
//!
//! LLM-MS scores *everything* with embedding cosine similarity: the relevance
//! of a partial model response to the query, the agreement between candidate
//! models, the retrieval of document chunks for RAG, and the evaluation
//! reward of Eq. 8.1. In the original system the encoder is an embedding
//! model served by Ollama (`mxbai-embed-large`); this crate substitutes a
//! deterministic [`HashedNgramEmbedder`] with the same interface contract
//! (text in, unit-norm vector out) — see `DESIGN.md` §2 for why the
//! substitution preserves the behaviour the algorithms depend on.
//!
//! ## Example
//!
//! ```
//! use llmms_embed::{Embedder, HashedNgramEmbedder, similarity::cosine_embeddings};
//!
//! let embedder = HashedNgramEmbedder::default();
//! let q = embedder.embed("what is the capital of france");
//! let a = embedder.embed("the capital of france is paris");
//! let b = embedder.embed("bananas are rich in potassium");
//! assert!(cosine_embeddings(&q, &a) > cosine_embeddings(&q, &b));
//! ```

#![warn(missing_docs)]

pub mod embedder;
pub mod embedding;
pub mod hashed;
pub mod incremental;
mod normalize;
pub mod quant;
pub mod similarity;
pub mod tfidf;
pub mod tokenizer;

pub use embedder::{CachedEmbedder, Embedder};
pub use embedding::Embedding;
pub use hashed::{HashedEmbedderConfig, HashedNgramEmbedder};
pub use incremental::{IncrementalAccumulator, ResponseAccumulator};
pub use quant::QuantizedEmbedding;
pub use similarity::{
    cosine, cosine_embeddings, dot, dot_norms, euclidean, mean_similarity_to_others, Metric,
};
pub use tfidf::{TfIdfConfig, TfIdfEmbedder};

use std::sync::Arc;

/// A shareable, type-erased embedder handle, as passed around the platform.
pub type SharedEmbedder = Arc<dyn Embedder>;

/// Build the platform's default shared embedder (hashed n-grams behind a
/// cache), the drop-in analogue of the paper's Ollama-served encoder.
pub fn default_embedder() -> SharedEmbedder {
    Arc::new(CachedEmbedder::new(HashedNgramEmbedder::default(), 4096))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_embedder_is_usable() {
        let e = default_embedder();
        assert_eq!(e.dim(), 384);
        let v = e.embed("hello world");
        assert_eq!(v.dim(), 384);
        assert!((v.l2_norm() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn default_embedder_is_shareable_across_threads() {
        let e = default_embedder();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || e.embed(&format!("text {i}")).dim())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 384);
        }
    }
}
