//! # llmms-vectordb
//!
//! An embedded vector database — the workspace's substitute for the ChromaDB
//! instance the LLM-MS platform uses for retrieval-augmented generation and
//! session embeddings (thesis §3.3, §7.1).
//!
//! Feature parity with the slice of ChromaDB the paper exercises:
//!
//! * named [`Collection`]s of `(id, embedding, document, metadata)` records;
//! * cosine / dot / Euclidean similarity, top-k queries;
//! * metadata `where`-filters ([`Filter`]);
//! * an exact [`index::FlatIndex`] and an approximate [`index::HnswIndex`]
//!   (the index family Chroma uses);
//! * crash-safe durability ([`Database::open`]): a per-collection
//!   write-ahead log with checksummed binary frames and fsync batching,
//!   periodic streamed snapshots with log truncation, and prefix-consistent
//!   recovery that tolerates a torn tail but refuses a wrong file (see
//!   [`wal`]).
//!
//! ## Example
//!
//! ```
//! use llmms_vectordb::{Database, CollectionConfig, Record, Filter};
//! use llmms_embed::{Embedder, HashedNgramEmbedder};
//!
//! let embedder = HashedNgramEmbedder::default();
//! let db = Database::new();
//! let docs = db.create_collection("docs", CollectionConfig::flat(embedder.dim())).unwrap();
//!
//! docs.write().upsert(
//!     Record::new("d1", embedder.embed("the capital of france is paris"))
//!         .with_document("the capital of france is paris"),
//! ).unwrap();
//!
//! let hits = docs.read()
//!     .query(&embedder.embed("what is the capital of france"), 1, None)
//!     .unwrap();
//! assert_eq!(hits[0].id, "d1");
//! ```

#![warn(missing_docs)]

pub mod collection;
pub mod database;
pub mod error;
pub mod filter;
pub mod index;
pub mod metadata;
mod persist;
pub mod segment;
pub mod wal;

pub use collection::{Collection, CollectionConfig, CollectionStats, QueryResult, Record};
pub use database::Database;
pub use error::DbError;
pub use filter::Filter;
pub use index::{HnswConfig, IndexKind};
pub use metadata::{meta, MetaValue, Metadata};
pub use segment::SegmentConfig;
pub use wal::StorageConfig;

#[cfg(test)]
mod proptests {
    use super::*;
    use llmms_embed::Embedding;
    use proptest::prelude::*;

    fn unit(values: Vec<f32>) -> Embedding {
        Embedding::new(values).normalized()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// For any set of distinct vectors, flat top-1 self-query returns the
        /// vector itself (score ≈ 1 under cosine).
        #[test]
        fn self_query_returns_self(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-1.0f32..1.0, 4), 1..20)
        ) {
            let mut coll = Collection::new("t", CollectionConfig::flat(4));
            let mut kept = Vec::new();
            for (i, v) in vectors.into_iter().enumerate() {
                let e = unit(v);
                if e.is_zero() { continue; }
                kept.push((format!("v{i}"), e.clone()));
                coll.upsert(Record::new(format!("v{i}"), e)).unwrap();
            }
            for (id, e) in &kept {
                let hits = coll.query(e, 1, None).unwrap();
                // Another identical vector may tie; the score must be ~1.
                prop_assert!((hits[0].score - 1.0).abs() < 1e-4,
                    "query {id}: score {}", hits[0].score);
            }
        }

        /// Flat query results are sorted by non-increasing score and contain
        /// no duplicates.
        #[test]
        fn results_sorted_and_unique(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-1.0f32..1.0, 4), 2..30),
            q in proptest::collection::vec(-1.0f32..1.0, 4),
            k in 1usize..10,
        ) {
            let mut coll = Collection::new("t", CollectionConfig::flat(4));
            for (i, v) in vectors.into_iter().enumerate() {
                coll.upsert(Record::new(format!("v{i}"), Embedding::new(v))).unwrap();
            }
            let hits = coll.query(&Embedding::new(q), k, None).unwrap();
            prop_assert!(hits.len() <= k);
            for w in hits.windows(2) {
                prop_assert!(w[0].score >= w[1].score);
                prop_assert_ne!(&w[0].id, &w[1].id);
            }
        }

        /// HNSW and flat agree on top-1 for small collections (n < ef).
        #[test]
        fn hnsw_matches_flat_top1_small(
            vectors in proptest::collection::vec(
                proptest::collection::vec(-1.0f32..1.0, 4), 2..25),
            q in proptest::collection::vec(-1.0f32..1.0, 4),
        ) {
            let q = unit(q);
            prop_assume!(!q.is_zero());
            let mut flat = Collection::new("f", CollectionConfig::flat(4));
            let mut hnsw = Collection::new("h", CollectionConfig::hnsw(4));
            for (i, v) in vectors.into_iter().enumerate() {
                let e = unit(v);
                if e.is_zero() { continue; }
                flat.upsert(Record::new(format!("v{i}"), e.clone())).unwrap();
                hnsw.upsert(Record::new(format!("v{i}"), e)).unwrap();
            }
            prop_assume!(!flat.is_empty());
            let ft = flat.query(&q, 1, None).unwrap();
            let ht = hnsw.query(&q, 1, None).unwrap();
            // Scores must match even if tied ids differ.
            prop_assert!((ft[0].score - ht[0].score).abs() < 1e-4);
        }
    }
}
