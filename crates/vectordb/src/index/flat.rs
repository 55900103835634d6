//! Exact brute-force index.

use super::{is_unit_norm, Hit, InternalId, TopK, VectorIndex};
use llmms_embed::{dot, Metric};

/// Exact top-k index: a contiguous vector arena scanned linearly.
///
/// Vectors are stored back-to-back in one `Vec<f32>` (struct-of-arrays) so a
/// scan is a single sequential pass — the same layout FAISS's `IndexFlat`
/// uses. For the collection sizes the platform handles at query time
/// (session embeddings, document chunks), the exact scan is frequently
/// faster than HNSW and is always the recall reference.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    pub(crate) metric: Metric,
    pub(crate) dim: usize,
    /// Contiguous vector storage; vector `i` occupies `i*dim..(i+1)*dim`.
    pub(crate) data: Vec<f32>,
    /// `ids[i]` is the external internal-id of slot `i`.
    pub(crate) ids: Vec<InternalId>,
    /// Tombstone flags parallel to `ids`.
    pub(crate) deleted: Vec<bool>,
    pub(crate) live: usize,
    /// Count of *live* vectors whose L2 norm is not unit. While zero, the
    /// platform's normalized-embedding invariant holds and a cosine scan
    /// needs only dot products. Maintained incrementally on insert *and*
    /// delete (deleting the last offender re-enables the fast path), never
    /// by rescanning.
    pub(crate) non_unit_live: usize,
}

impl FlatIndex {
    /// Create an empty index for `dim`-dimensional vectors under `metric`.
    pub fn new(dim: usize, metric: Metric) -> Self {
        Self {
            metric,
            dim,
            data: Vec::new(),
            ids: Vec::new(),
            deleted: Vec::new(),
            live: 0,
            non_unit_live: 0,
        }
    }

    /// Every live vector has unit L2 norm (the cosine fast-path invariant).
    pub(crate) fn all_unit(&self) -> bool {
        self.non_unit_live == 0
    }

    /// The stored vector at `slot` (live or tombstoned).
    pub(crate) fn vector_at(&self, slot: usize) -> &[f32] {
        &self.data[slot * self.dim..(slot + 1) * self.dim]
    }

    /// The configured metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The configured dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn slot_of(&self, id: InternalId) -> Option<usize> {
        // Ids are assigned monotonically by the collection and inserted in
        // order, so binary search applies.
        self.ids.binary_search(&id).ok()
    }
}

impl VectorIndex for FlatIndex {
    fn insert(&mut self, id: InternalId, vector: &[f32]) {
        assert_eq!(
            vector.len(),
            self.dim,
            "flat index: vector dim {} != index dim {}",
            vector.len(),
            self.dim
        );
        debug_assert!(
            self.ids.last().map_or(true, |&last| last < id),
            "ids must be inserted in increasing order"
        );
        self.ids.push(id);
        self.deleted.push(false);
        if !is_unit_norm(vector) {
            self.non_unit_live += 1;
        }
        self.data.extend_from_slice(vector);
        self.live += 1;
    }

    fn remove(&mut self, id: InternalId) -> bool {
        match self.slot_of(id) {
            Some(slot) if !self.deleted[slot] => {
                self.deleted[slot] = true;
                self.live -= 1;
                // One norm pass over the dying vector keeps the fast-path
                // counter exact; deleting the last non-unit vector turns
                // the dot-product scan back on.
                if !is_unit_norm(self.vector_at(slot)) {
                    self.non_unit_live -= 1;
                }
                true
            }
            _ => false,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn search(
        &self,
        query: &[f32],
        k: usize,
        accept: Option<&dyn Fn(InternalId) -> bool>,
    ) -> Vec<Hit> {
        if k == 0 || self.live == 0 {
            return Vec::new();
        }
        // Cosine over unit vectors divides by two norms that are both 1:
        // with the stored side pinned by `all_unit`, only the query's norm
        // must be derived — once, not per slot.
        let query_inv_norm = if self.metric == Metric::Cosine && self.all_unit() {
            let norm = query.iter().map(|x| x * x).sum::<f32>().sqrt();
            (norm > 0.0).then(|| 1.0 / norm)
        } else {
            None
        };
        // Stream straight into the bounded collector: O(n log k) and no
        // candidate buffer, so a million-vector scan allocates only the
        // k-slot heap.
        let mut collector = TopK::new(k);
        for (slot, &id) in self.ids.iter().enumerate() {
            if self.deleted[slot] {
                continue;
            }
            if let Some(f) = accept {
                if !f(id) {
                    continue;
                }
            }
            let v = &self.data[slot * self.dim..(slot + 1) * self.dim];
            let score = match query_inv_norm {
                Some(inv) => (dot(query, v) * inv).clamp(-1.0, 1.0),
                None => self.metric.similarity(query, v),
            };
            collector.push(Hit { id, score });
        }
        collector.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> FlatIndex {
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        idx.insert(0, &[1.0, 0.0]);
        idx.insert(1, &[0.0, 1.0]);
        idx.insert(2, &[0.7, 0.7]);
        idx
    }

    #[test]
    fn exact_nearest_neighbor() {
        let idx = populated();
        let hits = idx.search(&[1.0, 0.1], 1, None);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn returns_k_best_in_order() {
        let idx = populated();
        let hits = idx.search(&[1.0, 0.0], 3, None);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].id, 0);
        assert_eq!(hits[1].id, 2);
        assert_eq!(hits[2].id, 1);
        assert!(hits[0].score >= hits[1].score && hits[1].score >= hits[2].score);
    }

    #[test]
    fn k_zero_returns_empty() {
        assert!(populated().search(&[1.0, 0.0], 0, None).is_empty());
    }

    #[test]
    fn removal_tombstones() {
        let mut idx = populated();
        assert!(idx.remove(0));
        assert!(!idx.remove(0), "double delete is a no-op");
        assert!(!idx.remove(99), "unknown id is a no-op");
        assert_eq!(idx.len(), 2);
        let hits = idx.search(&[1.0, 0.0], 3, None);
        assert!(hits.iter().all(|h| h.id != 0));
    }

    #[test]
    fn accept_predicate_filters() {
        let idx = populated();
        let accept = |id: InternalId| id != 0;
        let hits = idx.search(&[1.0, 0.0], 3, Some(&accept));
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 2);
    }

    #[test]
    fn empty_index_searches_empty() {
        let idx = FlatIndex::new(2, Metric::Cosine);
        assert!(idx.is_empty());
        assert!(idx.search(&[1.0, 0.0], 5, None).is_empty());
    }

    #[test]
    #[should_panic(expected = "vector dim")]
    fn wrong_dim_panics() {
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        idx.insert(0, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn euclidean_metric_orders_by_distance() {
        let mut idx = FlatIndex::new(1, Metric::Euclidean);
        idx.insert(0, &[0.0]);
        idx.insert(1, &[5.0]);
        idx.insert(2, &[2.0]);
        let hits = idx.search(&[1.9], 3, None);
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[1].id, 0);
        assert_eq!(hits[2].id, 1);
    }

    #[test]
    fn unit_fast_path_matches_general_cosine_scan() {
        // All-unit inserts keep the fast path on; scores must match the
        // general cosine to float tolerance, in the same order.
        let vecs: Vec<Vec<f32>> = vec![
            vec![0.6, 0.8, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![-0.577_350_3, 0.577_350_3, 0.577_350_3],
        ];
        let mut idx = FlatIndex::new(3, Metric::Cosine);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(i as InternalId, v);
        }
        assert!(idx.all_unit());
        let query = [2.0f32, 1.0, -0.5]; // deliberately non-unit query
        let hits = idx.search(&query, 3, None);
        for hit in &hits {
            let expected = llmms_embed::cosine(&query, &vecs[hit.id as usize]);
            assert!((hit.score - expected).abs() < 1e-5);
        }
    }

    #[test]
    fn non_unit_insert_disables_fast_path() {
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        idx.insert(0, &[1.0, 0.0]);
        assert!(idx.all_unit());
        idx.insert(1, &[0.7, 0.7]);
        assert!(!idx.all_unit(), "norm 0.99 is outside the unit tolerance");
        // Scores keep exact cosine semantics once the flag drops.
        let hits = idx.search(&[1.0, 0.0], 2, None);
        assert_eq!(hits[0].id, 0);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
    }

    #[test]
    fn deleting_last_non_unit_vector_restores_fast_path() {
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        idx.insert(0, &[1.0, 0.0]);
        idx.insert(1, &[0.7, 0.7]); // non-unit
        assert!(!idx.all_unit());
        assert!(idx.remove(1));
        assert!(
            idx.all_unit(),
            "tombstoning the only non-unit vector must re-enable the dot scan"
        );
        let hits = idx.search(&[2.0, 0.0], 1, None);
        assert_eq!(hits[0].id, 0);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_query_on_unit_index_scores_zero() {
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        idx.insert(0, &[1.0, 0.0]);
        let hits = idx.search(&[0.0, 0.0], 1, None);
        assert_eq!(hits[0].score, 0.0);
    }
}
