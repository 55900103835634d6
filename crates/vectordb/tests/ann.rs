//! ANN acceptance properties.
//!
//! Three contracts the fast path must uphold:
//!
//! 1. **Recall regression** — HNSW, and segmented collections with HNSW
//!    or int8 segments, keep recall@10 ≥ 0.95 at 10k vectors against the
//!    exact [`FlatIndex`] oracle.
//! 2. **Reopen bit-identity** — a checkpointed index reopened from its
//!    binary sidecar serves hits whose scores are bit-identical to the
//!    live store's, for any vector set and query.
//! 3. **Compaction equivalence** — merging underfilled sealed segments
//!    never changes query results, under arbitrary upsert/delete churn.

use llmms_embed::{Embedding, Metric};
use llmms_vectordb::index::{FlatIndex, HnswConfig, HnswIndex, VectorIndex};
use llmms_vectordb::{
    Collection, CollectionConfig, Database, Record, SegmentConfig, StorageConfig,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "llmms-ann-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Deterministic unit vectors from an xorshift stream (no rand dependency
/// in the hot loop; the test must be reproducible across runs).
fn unit_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u32 << 24) as f32 - 0.5
    };
    (0..n)
        .map(|_| {
            let mut v: Vec<f32> = (0..dim).map(|_| next()).collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            for x in &mut v {
                *x /= norm;
            }
            v
        })
        .collect()
}

/// Recall@10 against the exact flat oracle must not regress below 0.95 at
/// 10k vectors: for a bare HNSW index, and for segmented collections that
/// seal every 2048 vectors into HNSW segments or int8-quantized flat ones.
/// The three builds run on their own threads.
#[test]
fn hnsw_recall_at_10_is_at_least_095_at_10k() {
    let (n, dim, n_queries, k) = (10_000, 32, 100, 10);
    let vectors = unit_vectors(n, dim, 0x5eed_0001);
    let queries = unit_vectors(n_queries, dim, 0xfeed_0002);

    let mut flat = FlatIndex::new(dim, Metric::Cosine);
    for (i, v) in vectors.iter().enumerate() {
        flat.insert(i as u32, v);
    }
    let truth: Vec<HashSet<u32>> = queries
        .iter()
        .map(|q| flat.search(q, k, None).iter().map(|h| h.id).collect())
        .collect();
    assert!(truth.iter().all(|t| t.len() == k));
    let recall = |search: &dyn Fn(&[f32]) -> Vec<u32>| {
        let found: usize = queries
            .iter()
            .zip(&truth)
            .map(|(q, t)| search(q).iter().filter(|id| t.contains(id)).count())
            .sum();
        found as f64 / (n_queries * k) as f64
    };

    let bare = || {
        let mut hnsw = HnswIndex::new(dim, Metric::Cosine, HnswConfig::default());
        for (i, v) in vectors.iter().enumerate() {
            hnsw.insert(i as u32, v);
        }
        recall(&|q| hnsw.search(q, k, None).iter().map(|h| h.id).collect())
    };
    let segmented = |mut config: CollectionConfig, quantize_sealed: bool| {
        config.segment = SegmentConfig {
            seal_threshold: 2048,
            quantize_sealed,
            ..SegmentConfig::default()
        };
        let mut coll = Collection::new("recall", config);
        for (i, v) in vectors.iter().enumerate() {
            let record = Record::new(i.to_string(), Embedding::new(v.clone()));
            coll.upsert(record).unwrap();
        }
        assert!(coll.stats().sealed_segments >= 4);
        recall(&|q| {
            let hits = coll.query(&Embedding::new(q.to_vec()), k, None).unwrap();
            hits.iter().map(|h| h.id.parse().unwrap()).collect()
        })
    };
    std::thread::scope(|s| {
        let cases = [
            ("HNSW index", s.spawn(bare)),
            (
                "segmented HNSW collection",
                s.spawn(|| segmented(CollectionConfig::hnsw(dim), false)),
            ),
            (
                "segmented int8 collection",
                s.spawn(|| segmented(CollectionConfig::flat(dim), true)),
            ),
        ];
        for (label, case) in cases {
            let recall = case.join().unwrap();
            assert!(
                recall >= 0.95,
                "{label} recall@10 regressed: {recall:.4} < 0.95 at n={n}"
            );
        }
    });
}

fn unit(values: Vec<f32>) -> Embedding {
    Embedding::new(values).normalized()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A checkpointed collection reopened from disk (binary index sidecar +
    /// snapshot) serves hits bit-identical to the live store — same ids,
    /// same order, same `f32` score bits — across flat and HNSW indexes and
    /// across sealed-segment boundaries.
    #[test]
    fn reopened_index_serves_bit_identical_hits(
        vectors in proptest::collection::vec(
            proptest::collection::vec(-1.0f32..1.0, 8), 1..80),
        queries in proptest::collection::vec(
            proptest::collection::vec(-1.0f32..1.0, 8), 1..6),
        use_hnsw in 0u8..2,
        quantize in 0u8..2,
    ) {
        let dir = unique_dir("reopen");
        let mut config = if use_hnsw == 1 {
            CollectionConfig::hnsw(8)
        } else {
            CollectionConfig::flat(8)
        };
        // Force several sealed segments even for small vector sets.
        config.segment = SegmentConfig {
            seal_threshold: 16,
            quantize_sealed: quantize == 1 && use_hnsw == 0,
            compact_min_live: 4,
        };
        let db = Database::open_with(
            &dir,
            StorageConfig { fsync_every: 1, snapshot_every: 0 },
        ).unwrap();
        let coll = db.create_collection("c", config).unwrap();
        for (i, v) in vectors.into_iter().enumerate() {
            let e = unit(v);
            if e.is_zero() { continue; }
            coll.write().upsert(Record::new(format!("v{i}"), e)).unwrap();
        }
        let queries: Vec<Embedding> = queries.into_iter().map(Embedding::new).collect();
        let before: Vec<_> = queries
            .iter()
            .map(|q| coll.read().query(q, 5, None).unwrap())
            .collect();
        db.checkpoint().unwrap();
        prop_assert!(
            dir.join("c.idx.bin").exists(),
            "checkpoint must write the binary index sidecar"
        );
        drop(coll);
        drop(db);

        let db = Database::open(&dir).unwrap();
        let coll = db.collection("c").unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let after = coll.read().query(q, 5, None).unwrap();
            prop_assert_eq!(before[qi].len(), after.len(), "query {}", qi);
            for (b, a) in before[qi].iter().zip(&after) {
                prop_assert_eq!(&b.id, &a.id, "query {}", qi);
                prop_assert_eq!(
                    b.score.to_bits(), a.score.to_bits(),
                    "query {}: score {} != {}", qi, b.score, a.score
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Segment compaction is invisible to readers: for any interleaving of
    /// upserts and deletes, query results before and after
    /// [`Collection::compact_segments`] are identical (ids, order, and
    /// score bits) — for plain flat segments and quantized sealed segments
    /// alike, since merges copy stored codes verbatim.
    #[test]
    fn compaction_preserves_query_results(
        ops in proptest::collection::vec(
            (0u8..4, 0usize..40, proptest::collection::vec(-1.0f32..1.0, 6)),
            1..120),
        queries in proptest::collection::vec(
            proptest::collection::vec(-1.0f32..1.0, 6), 1..5),
        quantize in 0u8..2,
    ) {
        let mut config = CollectionConfig::flat(6);
        config.segment = SegmentConfig {
            seal_threshold: 8,
            quantize_sealed: quantize == 1,
            compact_min_live: 6,
        };
        let mut coll = Collection::new("c", config);
        for (kind, id, v) in ops {
            let id = format!("id{id}");
            if kind == 0 {
                let _ = coll.delete(&id);
            } else {
                let e = unit(v);
                if e.is_zero() { continue; }
                coll.upsert(Record::new(id, e)).unwrap();
            }
        }
        let queries: Vec<Embedding> = queries.into_iter().map(Embedding::new).collect();
        let before: Vec<_> = queries
            .iter()
            .map(|q| coll.query(q, 8, None).unwrap())
            .collect();

        // Drain all pending merges, not just one pass.
        while coll.needs_segment_compaction() {
            if coll.compact_segments() == 0 {
                break;
            }
        }

        for (qi, q) in queries.iter().enumerate() {
            let after = coll.query(q, 8, None).unwrap();
            prop_assert_eq!(before[qi].len(), after.len(), "query {}", qi);
            for (b, a) in before[qi].iter().zip(&after) {
                prop_assert_eq!(&b.id, &a.id, "query {}", qi);
                prop_assert_eq!(
                    b.score.to_bits(), a.score.to_bits(),
                    "query {}: score {} != {}", qi, b.score, a.score
                );
            }
        }
    }
}
