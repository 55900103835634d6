//! Sealed-segment index: immutable sealed segments plus a mutable head.
//!
//! A monolithic index has two scaling problems the ROADMAP's million-vector
//! target runs into head-on: every search walks one ever-growing structure
//! on one thread, and every reopen rebuilds it from scratch. Segmenting
//! fixes both. Inserts go to a small mutable *head*; when the head reaches
//! [`SegmentConfig::seal_threshold`] slots it is *sealed* — frozen into an
//! immutable segment behind an `Arc` — and a fresh head starts. Searches
//! fan sealed segments out across the shared `llmms-exec` worker pool (the
//! same threads that run generation arms) while the caller scans the head,
//! then merge through the bounded `TopK` collector. Because every sealed
//! segment returns its own exact top-k and any global winner is necessarily
//! in its segment's top-k, the merge is *exactly* the global top-k — no
//! approximation is introduced by the fan-out (HNSW segments stay
//! approximate per-segment, as before).
//!
//! Deletes tombstone in place (copy-on-write via [`Arc::make_mut`] on
//! sealed segments, so searches holding the old `Arc` finish safely), and a
//! compaction pass merges adjacent underfilled segments under the
//! collection's write guard.
//!
//! Segments own disjoint, sorted internal-id ranges: sealed segment `i`
//! covers `[start_i, end_i)`, the head covers `[head_start, ∞)`. Routing a
//! delete is a binary search; only *adjacent* segments merge, so ranges
//! stay sorted forever.
//!
//! Sealing may also quantize ([`SegmentConfig::quantize_sealed`]): flat
//! segments convert to int8 codes ([`QuantizedFlatIndex`]) for 4× less
//! memory bandwidth, and compaction then copies codes verbatim so rounding
//! error never compounds across merges.

use crate::index::{
    FlatIndex, Hit, HnswConfig, HnswIndex, IndexKind, InternalId, QuantizedFlatIndex, TopK,
    VectorIndex,
};
use llmms_embed::Metric;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Segmentation knobs, fixed at collection creation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentConfig {
    /// Head slot count (live + tombstoned) that triggers a seal. The
    /// default keeps small collections — sessions, document sets, tests —
    /// in a single head segment; only genuinely large collections segment.
    #[serde(default = "default_seal_threshold")]
    pub seal_threshold: usize,
    /// Quantize flat segments to int8 on seal (HNSW segments keep their
    /// graph and full-precision vectors — the graph *is* their speed).
    #[serde(default)]
    pub quantize_sealed: bool,
    /// A sealed segment with fewer live vectors than this is a merge
    /// candidate for the compactor.
    #[serde(default = "default_compact_min_live")]
    pub compact_min_live: usize,
}

fn default_seal_threshold() -> usize {
    8192
}

fn default_compact_min_live() -> usize {
    2048
}

impl Default for SegmentConfig {
    fn default() -> Self {
        Self {
            seal_threshold: default_seal_threshold(),
            quantize_sealed: false,
            compact_min_live: default_compact_min_live(),
        }
    }
}

/// The index payload of one segment.
#[derive(Debug, Clone)]
pub(crate) enum SegmentIndex {
    /// Exact f32 scan.
    Flat(FlatIndex),
    /// Approximate graph.
    Hnsw(HnswIndex),
    /// Exact int8 scan (sealed only).
    Quant(QuantizedFlatIndex),
}

impl SegmentIndex {
    fn new_head(kind: IndexKind, dim: usize, metric: Metric, hnsw: &HnswConfig) -> Self {
        match kind {
            IndexKind::Flat => SegmentIndex::Flat(FlatIndex::new(dim, metric)),
            IndexKind::Hnsw => SegmentIndex::Hnsw(HnswIndex::new(dim, metric, hnsw.clone())),
        }
    }

    fn as_dyn(&self) -> &dyn VectorIndex {
        match self {
            SegmentIndex::Flat(i) => i,
            SegmentIndex::Hnsw(i) => i,
            SegmentIndex::Quant(i) => i,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn VectorIndex {
        match self {
            SegmentIndex::Flat(i) => i,
            SegmentIndex::Hnsw(i) => i,
            SegmentIndex::Quant(i) => i,
        }
    }

    /// Total slots, tombstones included.
    fn slots(&self) -> usize {
        match self {
            SegmentIndex::Flat(i) => i.ids.len(),
            SegmentIndex::Hnsw(i) => i.nodes.len(),
            SegmentIndex::Quant(i) => i.ids.len(),
        }
    }

    fn live(&self) -> usize {
        self.as_dyn().len()
    }
}

/// One sealed, immutable segment and the id range it owns.
#[derive(Debug, Clone)]
pub(crate) struct Segment {
    /// Inclusive lower id bound.
    pub(crate) start: InternalId,
    /// Exclusive upper id bound.
    pub(crate) end: InternalId,
    pub(crate) index: SegmentIndex,
}

/// The segmented index a collection queries through. See the module docs.
#[derive(Debug)]
pub(crate) struct SegmentedIndex {
    pub(crate) kind: IndexKind,
    pub(crate) metric: Metric,
    pub(crate) dim: usize,
    pub(crate) hnsw: HnswConfig,
    pub(crate) seg: SegmentConfig,
    /// Sealed segments, sorted by id range. `Arc` so parallel search tasks
    /// can hold them without borrowing `self`.
    pub(crate) sealed: Vec<Arc<Segment>>,
    pub(crate) head: SegmentIndex,
    /// Every id ≥ this routes to the head.
    pub(crate) head_start: InternalId,
}

impl SegmentedIndex {
    pub(crate) fn new(
        kind: IndexKind,
        dim: usize,
        metric: Metric,
        hnsw: HnswConfig,
        seg: SegmentConfig,
    ) -> Self {
        let head = SegmentIndex::new_head(kind, dim, metric, &hnsw);
        Self {
            kind,
            metric,
            dim,
            hnsw,
            seg,
            sealed: Vec::new(),
            head,
            head_start: 0,
        }
    }

    /// Freeze the current head into a sealed segment and start a fresh one.
    fn seal(&mut self, next_id: InternalId) {
        let fresh = SegmentIndex::new_head(self.kind, self.dim, self.metric, &self.hnsw);
        let old = std::mem::replace(&mut self.head, fresh);
        let index = match old {
            SegmentIndex::Flat(flat) if self.seg.quantize_sealed => {
                SegmentIndex::Quant(QuantizedFlatIndex::from_flat(&flat))
            }
            other => other,
        };
        self.sealed.push(Arc::new(Segment {
            start: self.head_start,
            end: next_id,
            index,
        }));
        self.head_start = next_id;
        let registry = llmms_obs::Registry::global();
        if registry.enabled() {
            registry.counter("ann_seals_total").metric.inc();
        }
    }

    /// The sealed segment owning `id`, if any.
    fn sealed_slot_of(&self, id: InternalId) -> Option<usize> {
        let i = self.sealed.partition_point(|s| s.end <= id);
        (i < self.sealed.len() && self.sealed[i].start <= id).then_some(i)
    }

    /// Number of sealed segments.
    pub(crate) fn sealed_count(&self) -> usize {
        self.sealed.len()
    }

    /// `(live, slots)` across the whole index — slots minus live is the
    /// tombstone count compaction will eventually reclaim.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let mut live = self.head.live();
        let mut slots = self.head.slots();
        for s in &self.sealed {
            live += s.index.live();
            slots += s.index.slots();
        }
        (live, slots)
    }

    /// Whether any adjacent pair of sealed segments is merge-eligible.
    pub(crate) fn needs_compaction(&self) -> bool {
        self.sealed.windows(2).any(|w| self.mergeable(&w[0], &w[1]))
    }

    fn mergeable(&self, a: &Segment, b: &Segment) -> bool {
        let (la, lb) = (a.index.live(), b.index.live());
        la + lb <= self.seg.seal_threshold
            && (la < self.seg.compact_min_live || lb < self.seg.compact_min_live)
            && matches!(
                (&a.index, &b.index),
                (SegmentIndex::Flat(_), SegmentIndex::Flat(_))
                    | (SegmentIndex::Hnsw(_), SegmentIndex::Hnsw(_))
                    | (SegmentIndex::Quant(_), SegmentIndex::Quant(_))
            )
    }

    /// Merge adjacent underfilled sealed segments (dropping tombstones as a
    /// side effect). Runs under the collection's write guard — the caller
    /// holds `&mut self`. Returns the number of merges performed.
    pub(crate) fn compact_segments(&mut self) -> usize {
        let mut merges = 0usize;
        let mut i = 0usize;
        while i + 1 < self.sealed.len() {
            if !self.mergeable(&self.sealed[i], &self.sealed[i + 1]) {
                i += 1;
                continue;
            }
            let b = self.sealed.remove(i + 1);
            let a = std::mem::replace(
                &mut self.sealed[i],
                Arc::new(Segment {
                    start: 0,
                    end: 0,
                    index: SegmentIndex::Flat(FlatIndex::new(self.dim, self.metric)),
                }),
            );
            let merged = self.merge_pair(&a, &b);
            self.sealed[i] = Arc::new(merged);
            merges += 1;
            // Stay at `i`: the merged segment may now absorb its new right
            // neighbor too.
        }
        if merges > 0 {
            let registry = llmms_obs::Registry::global();
            if registry.enabled() {
                registry
                    .counter("ann_segment_compactions_total")
                    .metric
                    .add(merges as u64);
            }
        }
        merges
    }

    /// Merge two adjacent same-variant segments into one covering both id
    /// ranges. Live vectors are inserted in id order; slot order inside
    /// each segment is already id order, and `a` precedes `b`, so a simple
    /// concatenating walk preserves it.
    fn merge_pair(&self, a: &Segment, b: &Segment) -> Segment {
        let index = match (&a.index, &b.index) {
            (SegmentIndex::Quant(qa), SegmentIndex::Quant(qb)) => {
                // Copy codes verbatim — never decode + requantize, which
                // would compound rounding error on every merge generation.
                let mut merged = QuantizedFlatIndex::new(self.dim, self.metric);
                for (src, n) in [(qa, qa.ids.len()), (qb, qb.ids.len())] {
                    for slot in 0..n {
                        if !src.deleted[slot] {
                            merged.push_copied_slot(src, slot);
                        }
                    }
                }
                SegmentIndex::Quant(merged)
            }
            (SegmentIndex::Flat(fa), SegmentIndex::Flat(fb)) => {
                let mut merged = FlatIndex::new(self.dim, self.metric);
                for src in [fa, fb] {
                    for (slot, &id) in src.ids.iter().enumerate() {
                        if !src.deleted[slot] {
                            merged.insert(id, src.vector_at(slot));
                        }
                    }
                }
                SegmentIndex::Flat(merged)
            }
            (SegmentIndex::Hnsw(ha), SegmentIndex::Hnsw(hb)) => {
                // Graphs cannot be concatenated; rebuild deterministically
                // from the live vectors in id order (same seed ⇒ same graph
                // for the same input sequence).
                let mut merged = HnswIndex::new(self.dim, self.metric, self.hnsw.clone());
                for src in [ha, hb] {
                    let mut slots: Vec<u32> = (0..src.nodes.len() as u32)
                        .filter(|&s| !src.nodes[s as usize].deleted)
                        .collect();
                    slots.sort_by_key(|&s| src.nodes[s as usize].id);
                    for s in slots {
                        let node_id = src.nodes[s as usize].id;
                        let base = s as usize * self.dim;
                        merged.insert(node_id, &src.data[base..base + self.dim]);
                    }
                }
                SegmentIndex::Hnsw(merged)
            }
            _ => unreachable!("mergeable() only admits same-variant pairs"),
        };
        Segment {
            start: a.start,
            end: b.end,
            index,
        }
    }

    /// Search one segment's worth of work (used by both serial and
    /// parallel paths).
    fn search_segment(
        segment: &Segment,
        query: &[f32],
        k: usize,
        accept: Option<&dyn Fn(InternalId) -> bool>,
    ) -> Vec<Hit> {
        segment.index.as_dyn().search(query, k, accept)
    }
}

impl VectorIndex for SegmentedIndex {
    fn insert(&mut self, id: InternalId, vector: &[f32]) {
        assert!(
            id >= self.head_start,
            "insert id {id} below head start {}",
            self.head_start
        );
        self.head.as_dyn_mut().insert(id, vector);
        if self.head.slots() >= self.seg.seal_threshold {
            self.seal(id + 1);
        }
    }

    fn remove(&mut self, id: InternalId) -> bool {
        if id >= self.head_start {
            return self.head.as_dyn_mut().remove(id);
        }
        match self.sealed_slot_of(id) {
            // Copy-on-write: searches already holding the old Arc keep a
            // consistent view; new searches see the tombstone.
            Some(i) => Arc::make_mut(&mut self.sealed[i])
                .index
                .as_dyn_mut()
                .remove(id),
            None => false,
        }
    }

    fn len(&self) -> usize {
        self.occupancy().0
    }

    fn search(
        &self,
        query: &[f32],
        k: usize,
        accept: Option<&dyn Fn(InternalId) -> bool>,
    ) -> Vec<Hit> {
        if k == 0 {
            return Vec::new();
        }
        let registry = llmms_obs::Registry::global();
        if registry.enabled() {
            registry
                .histogram("ann_segments_searched")
                .metric
                .record((self.sealed.len() + 1) as f64);
        }
        let mut collector = TopK::new(k);
        if self.sealed.is_empty() || accept.is_some() {
            // Serial path: the accept closure borrows collection state and
            // cannot cross threads; without sealed segments there is no
            // fan-out to win either.
            for segment in &self.sealed {
                for hit in Self::search_segment(segment, query, k, accept) {
                    collector.push(hit);
                }
            }
        } else {
            // Fan sealed segments out on the shared pool; the query is
            // copied once into an Arc every task clones.
            let shared_query: Arc<Vec<f32>> = Arc::new(query.to_vec());
            let tasks: Vec<(usize, _)> = self
                .sealed
                .iter()
                .enumerate()
                .map(|(i, segment)| {
                    let segment = Arc::clone(segment);
                    let q = Arc::clone(&shared_query);
                    (i, move || Self::search_segment(&segment, &q, k, None))
                })
                .collect();
            let batch = llmms_exec::submit_indexed(tasks);
            // The head scan runs on this thread while the pool drains.
            for hit in self.head.as_dyn().search(query, k, accept) {
                collector.push(hit);
            }
            for (_, result) in batch.wait() {
                // A poisoned slot means that segment's search task died on
                // a worker; degrade to the surviving segments' hits rather
                // than failing the whole query. `exec_task_panics_total`
                // accounts for the loss.
                let Ok(hits) = result else { continue };
                for hit in hits {
                    collector.push(hit);
                }
            }
            return collector.into_sorted();
        }
        for hit in self.head.as_dyn().search(query, k, accept) {
            collector.push(hit);
        }
        collector.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> SegmentConfig {
        SegmentConfig {
            seal_threshold: 8,
            quantize_sealed: false,
            compact_min_live: 4,
        }
    }

    fn unit_vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut state = 0x5eed_0123_u64;
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

    fn build(n: usize, dim: usize, seg: SegmentConfig) -> (SegmentedIndex, Vec<Vec<f32>>) {
        let vs = unit_vectors(n, dim);
        let mut idx = SegmentedIndex::new(
            IndexKind::Flat,
            dim,
            Metric::Cosine,
            HnswConfig::default(),
            seg,
        );
        for (i, v) in vs.iter().enumerate() {
            idx.insert(i as InternalId, v);
        }
        (idx, vs)
    }

    #[test]
    fn sealing_happens_at_threshold() {
        let (idx, _) = build(30, 4, small_config());
        assert_eq!(idx.sealed_count(), 3, "30 inserts at threshold 8");
        assert_eq!(idx.len(), 30);
    }

    #[test]
    fn segmented_search_equals_monolithic_flat() {
        let (idx, vs) = build(50, 8, small_config());
        let mut flat = FlatIndex::new(8, Metric::Cosine);
        for (i, v) in vs.iter().enumerate() {
            flat.insert(i as InternalId, v);
        }
        for q in vs.iter().step_by(7) {
            let seg_hits = idx.search(q, 10, None);
            let flat_hits = flat.search(q, 10, None);
            assert_eq!(seg_hits, flat_hits, "fan-out merge must be exact");
        }
    }

    #[test]
    fn delete_routes_to_sealed_segment() {
        let (mut idx, vs) = build(20, 4, small_config());
        // id 3 lives in the first sealed segment.
        assert!(idx.remove(3));
        assert!(!idx.remove(3), "double delete is a no-op");
        assert_eq!(idx.len(), 19);
        let hits = idx.search(&vs[3], 20, None);
        assert!(hits.iter().all(|h| h.id != 3));
    }

    #[test]
    fn accept_filter_goes_serial_and_filters() {
        let (idx, vs) = build(20, 4, small_config());
        let accept = |id: InternalId| id % 2 == 0;
        let hits = idx.search(&vs[0], 10, Some(&accept));
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.id % 2 == 0));
    }

    #[test]
    fn compaction_merges_underfilled_neighbors() {
        let (mut idx, vs) = build(32, 4, small_config());
        assert_eq!(idx.sealed_count(), 4);
        // Empty out most of two adjacent segments.
        for id in 0..14u32 {
            idx.remove(id);
        }
        assert!(idx.needs_compaction());
        let before: Vec<_> = vs
            .iter()
            .step_by(5)
            .map(|q| idx.search(q, 8, None))
            .collect();
        let merges = idx.compact_segments();
        assert!(merges >= 1);
        assert!(idx.sealed_count() < 4);
        let after: Vec<_> = vs
            .iter()
            .step_by(5)
            .map(|q| idx.search(q, 8, None))
            .collect();
        assert_eq!(before, after, "compaction must not change results");
        let (live, slots) = idx.occupancy();
        assert_eq!(live, 32 - 14);
        assert!(slots < 32, "tombstones reclaimed");
    }

    #[test]
    fn quantized_sealing_preserves_top1() {
        let seg = SegmentConfig {
            quantize_sealed: true,
            ..small_config()
        };
        let (idx, vs) = build(40, 16, seg);
        assert!(idx
            .sealed
            .iter()
            .all(|s| matches!(s.index, SegmentIndex::Quant(_))));
        for (i, q) in vs.iter().enumerate().step_by(9) {
            let hits = idx.search(q, 1, None);
            assert_eq!(hits[0].id, i as InternalId, "self-query top-1");
        }
    }

    #[test]
    fn hnsw_segments_merge_deterministically() {
        let vs = unit_vectors(32, 8);
        let mut idx = SegmentedIndex::new(
            IndexKind::Hnsw,
            8,
            Metric::Cosine,
            HnswConfig::default(),
            small_config(),
        );
        for (i, v) in vs.iter().enumerate() {
            idx.insert(i as InternalId, v);
        }
        for id in 0..12u32 {
            idx.remove(id);
        }
        let merges = idx.compact_segments();
        assert!(merges >= 1);
        assert_eq!(idx.len(), 20);
        let hits = idx.search(&vs[20], 1, None);
        assert_eq!(hits[0].id, 20);
    }
}
