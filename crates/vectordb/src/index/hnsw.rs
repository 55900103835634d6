//! Hierarchical Navigable Small World (HNSW) approximate index.
//!
//! Implements the Malkov–Yashunin construction the thesis relies on through
//! ChromaDB ("Cosine similarity with an HNSW index is used to retrieve the
//! top-k document chunks in sub-millisecond time", §7.1): a multi-layer
//! proximity graph where upper layers form an expressway of long links and
//! layer 0 holds every vector with denser connectivity.
//!
//! Determinism: level assignment uses an internal xorshift generator seeded
//! from [`HnswConfig::seed`], so index construction — and therefore search
//! results — are reproducible run-to-run, which the evaluation harness
//! depends on.

use super::{is_unit_norm, top_k, Hit, InternalId, VectorIndex};
use llmms_embed::{dot, Metric};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Construction and search parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HnswConfig {
    /// Max links per node on layers ≥ 1; layer 0 allows `2·m`.
    pub m: usize,
    /// Beam width while building.
    pub ef_construction: usize,
    /// Beam width while searching (raised to `k` automatically).
    pub ef_search: usize,
    /// Seed for the level-assignment RNG.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 128,
            ef_search: 64,
            seed: 0x5eed_1e55,
        }
    }
}

/// A graph node: its external id, tombstone flag and per-layer adjacency.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) id: InternalId,
    pub(crate) deleted: bool,
    /// `neighbors[l]` is the adjacency list at layer `l`; length = level+1.
    pub(crate) neighbors: Vec<Vec<u32>>,
}

/// Score wrapper giving `f32` a total order for use in heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    score: f32,
    slot: u32,
}

impl Eq for Scored {}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| other.slot.cmp(&self.slot))
    }
}

/// The HNSW index. See the module docs.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    pub(crate) config: HnswConfig,
    pub(crate) metric: Metric,
    pub(crate) dim: usize,
    /// Contiguous vector arena; slot `i` occupies `i*dim..(i+1)*dim`.
    pub(crate) data: Vec<f32>,
    pub(crate) nodes: Vec<Node>,
    pub(crate) id_to_slot: HashMap<InternalId, u32>,
    pub(crate) entry: Option<u32>,
    pub(crate) max_level: usize,
    pub(crate) rng_state: u64,
    pub(crate) live: usize,
    /// Count of vectors ever inserted whose L2 norm was not unit
    /// (tombstoned ones included — they still participate in traversal
    /// scoring, so the cosine fast path must stay off while any exist).
    pub(crate) non_unit: usize,
}

impl HnswIndex {
    /// Create an empty index for `dim`-dimensional vectors.
    pub fn new(dim: usize, metric: Metric, config: HnswConfig) -> Self {
        assert!(config.m >= 2, "HNSW m must be at least 2");
        assert!(
            config.ef_construction >= config.m,
            "ef_construction must be at least m"
        );
        let rng_state = config.seed | 1; // xorshift state must be non-zero
        Self {
            config,
            metric,
            dim,
            data: Vec::new(),
            nodes: Vec::new(),
            id_to_slot: HashMap::new(),
            entry: None,
            max_level: 0,
            rng_state,
            live: 0,
            non_unit: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HnswConfig {
        &self.config
    }

    fn vector(&self, slot: u32) -> &[f32] {
        let s = slot as usize * self.dim;
        &self.data[s..s + self.dim]
    }

    /// Score `query` against `slot`. `inv` is the query's precomputed
    /// inverse norm when the cosine unit fast path applies (every stored
    /// vector unit-norm): cosine then collapses to one dot-product kernel
    /// pass per edge instead of the fused three-reduction pass.
    fn score(&self, query: &[f32], inv: Option<f32>, slot: u32) -> f32 {
        match inv {
            Some(inv) => (dot(query, self.vector(slot)) * inv).clamp(-1.0, 1.0),
            None => self.metric.similarity(query, self.vector(slot)),
        }
    }

    /// The query inverse norm for the unit fast path, or `None` when the
    /// general metric path must run.
    fn query_inv_norm(&self, query: &[f32]) -> Option<f32> {
        if self.metric == Metric::Cosine && self.non_unit == 0 {
            let norm = query.iter().map(|x| x * x).sum::<f32>().sqrt();
            (norm > 0.0).then(|| 1.0 / norm)
        } else {
            None
        }
    }

    /// xorshift64* — deterministic, serializable level sampling.
    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn sample_level(&mut self) -> usize {
        // Geometric distribution with ml = 1/ln(m), capped to keep the graph
        // shallow for small collections.
        let ml = 1.0 / (self.config.m as f64).ln();
        let u = (self.next_rand() >> 11) as f64 / (1u64 << 53) as f64;
        let u = u.max(f64::MIN_POSITIVE);
        ((-u.ln() * ml) as usize).min(16)
    }

    /// Greedy descent through one layer: move to the best neighbor until no
    /// improvement.
    fn greedy_step(&self, query: &[f32], inv: Option<f32>, mut current: u32, layer: usize) -> u32 {
        let mut best = self.score(query, inv, current);
        loop {
            let mut improved = false;
            for &n in &self.nodes[current as usize].neighbors[layer] {
                let s = self.score(query, inv, n);
                if s > best {
                    best = s;
                    current = n;
                    improved = true;
                }
            }
            if !improved {
                return current;
            }
        }
    }

    /// Beam search within `layer`, returning up to `ef` best slots.
    fn search_layer(
        &self,
        query: &[f32],
        inv: Option<f32>,
        entry: u32,
        ef: usize,
        layer: usize,
    ) -> Vec<Scored> {
        let mut visited = vec![false; self.nodes.len()];
        visited[entry as usize] = true;
        let entry_scored = Scored {
            score: self.score(query, inv, entry),
            slot: entry,
        };
        // Max-heap of frontier candidates (best first).
        let mut candidates = BinaryHeap::from([entry_scored]);
        // Min-heap of current results (worst first, for eviction).
        let mut results: BinaryHeap<Reverse<Scored>> = BinaryHeap::from([Reverse(entry_scored)]);

        while let Some(candidate) = candidates.pop() {
            let worst = results.peek().map_or(f32::NEG_INFINITY, |r| r.0.score);
            if results.len() >= ef && candidate.score < worst {
                break;
            }
            for &n in &self.nodes[candidate.slot as usize].neighbors[layer] {
                if std::mem::replace(&mut visited[n as usize], true) {
                    continue;
                }
                let scored = Scored {
                    score: self.score(query, inv, n),
                    slot: n,
                };
                let worst = results.peek().map_or(f32::NEG_INFINITY, |r| r.0.score);
                if results.len() < ef || scored.score > worst {
                    candidates.push(scored);
                    results.push(Reverse(scored));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<Scored> = results.into_iter().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.config.m * 2
        } else {
            self.config.m
        }
    }

    /// Connect `slot` to the best candidates at `layer`, pruning overfull
    /// neighbor lists down to the layer's link budget.
    fn connect(&mut self, slot: u32, candidates: &[Scored], layer: usize) {
        let m = self.config.m;
        let selected: Vec<u32> = candidates.iter().take(m).map(|c| c.slot).collect();
        self.nodes[slot as usize].neighbors[layer] = selected.clone();
        let cap = self.max_links(layer);
        for n in selected {
            let list = &mut self.nodes[n as usize].neighbors[layer];
            list.push(slot);
            if list.len() > cap {
                // Keep the `cap` neighbors most similar to `n` itself.
                let anchor_slot = n;
                let mut scored: Vec<Scored> = self.nodes[anchor_slot as usize].neighbors[layer]
                    .iter()
                    .map(|&x| Scored {
                        score: self
                            .metric
                            .similarity(self.vector(anchor_slot), self.vector(x)),
                        slot: x,
                    })
                    .collect();
                scored.sort_by(|a, b| b.cmp(a));
                scored.truncate(cap);
                self.nodes[anchor_slot as usize].neighbors[layer] =
                    scored.into_iter().map(|s| s.slot).collect();
            }
        }
    }
}

impl VectorIndex for HnswIndex {
    fn insert(&mut self, id: InternalId, vector: &[f32]) {
        assert_eq!(
            vector.len(),
            self.dim,
            "hnsw index: vector dim {} != index dim {}",
            vector.len(),
            self.dim
        );
        assert!(
            !self.id_to_slot.contains_key(&id),
            "duplicate internal id {id}"
        );
        let slot = self.nodes.len() as u32;
        let level = self.sample_level();
        if !is_unit_norm(vector) {
            self.non_unit += 1;
        }
        self.data.extend_from_slice(vector);
        self.nodes.push(Node {
            id,
            deleted: false,
            neighbors: vec![Vec::new(); level + 1],
        });
        self.id_to_slot.insert(id, slot);
        self.live += 1;

        let Some(mut ep) = self.entry else {
            self.entry = Some(slot);
            self.max_level = level;
            return;
        };

        // Descend through layers above the new node's level.
        let inv = self.query_inv_norm(vector);
        for layer in (level + 1..=self.max_level).rev() {
            ep = self.greedy_step(vector, inv, ep, layer);
        }
        // Insert on each layer from min(level, max_level) down to 0.
        for layer in (0..=level.min(self.max_level)).rev() {
            let candidates = self.search_layer(vector, inv, ep, self.config.ef_construction, layer);
            self.connect(slot, &candidates, layer);
            if let Some(best) = candidates.first() {
                ep = best.slot;
            }
        }
        if level > self.max_level {
            self.max_level = level;
            self.entry = Some(slot);
        }
    }

    fn remove(&mut self, id: InternalId) -> bool {
        let Some(&slot) = self.id_to_slot.get(&id) else {
            return false;
        };
        let node = &mut self.nodes[slot as usize];
        if node.deleted {
            return false;
        }
        node.deleted = true;
        self.live -= 1;
        true
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
        let mut ep = self.entry.expect("live > 0 implies an entry point");
        let inv = self.query_inv_norm(query);
        for layer in (1..=self.max_level).rev() {
            ep = self.greedy_step(query, inv, ep, layer);
        }
        // Tombstoned or filtered-out nodes still participate in traversal but
        // not in results, so widen the beam when a filter is present.
        let mut ef = self.config.ef_search.max(k);
        if accept.is_some() || self.live < self.nodes.len() {
            ef = ef.max(k * 8);
        }
        let found = self.search_layer(query, inv, ep, ef, 0);
        let candidates: Vec<Hit> = found
            .into_iter()
            .filter(|s| !self.nodes[s.slot as usize].deleted)
            .map(|s| Hit {
                id: self.nodes[s.slot as usize].id,
                score: s.score,
            })
            .filter(|h| accept.map_or(true, |f| f(h.id)))
            .collect();
        top_k(candidates, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::FlatIndex;

    /// Deterministic pseudo-random unit-ish vectors for tests.
    fn test_vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        };
        (0..n).map(|_| (0..dim).map(|_| next()).collect()).collect()
    }

    fn build(n: usize, dim: usize) -> (HnswIndex, FlatIndex, Vec<Vec<f32>>) {
        let vs = test_vectors(n, dim);
        let mut hnsw = HnswIndex::new(dim, Metric::Cosine, HnswConfig::default());
        let mut flat = FlatIndex::new(dim, Metric::Cosine);
        for (i, v) in vs.iter().enumerate() {
            hnsw.insert(i as InternalId, v);
            flat.insert(i as InternalId, v);
        }
        (hnsw, flat, vs)
    }

    #[test]
    fn empty_and_k_zero() {
        let idx = HnswIndex::new(4, Metric::Cosine, HnswConfig::default());
        assert!(idx.is_empty());
        assert!(idx.search(&[0.0; 4], 5, None).is_empty());
        let (idx, _, _) = build(10, 4);
        assert!(idx.search(&[0.0; 4], 0, None).is_empty());
    }

    #[test]
    fn single_element() {
        let mut idx = HnswIndex::new(2, Metric::Cosine, HnswConfig::default());
        idx.insert(7, &[1.0, 0.0]);
        let hits = idx.search(&[0.9, 0.1], 3, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 7);
    }

    #[test]
    fn exact_on_small_sets() {
        // With n << ef_search, HNSW must be exact.
        let (hnsw, flat, vs) = build(50, 8);
        for q in vs.iter().take(10) {
            let h = hnsw.search(q, 1, None);
            let f = flat.search(q, 1, None);
            assert_eq!(h[0].id, f[0].id);
        }
    }

    #[test]
    fn recall_at_10_on_larger_set() {
        let (hnsw, flat, vs) = build(2000, 16);
        let mut hits_total = 0usize;
        let mut found = 0usize;
        for q in vs.iter().step_by(97) {
            let truth: std::collections::HashSet<_> =
                flat.search(q, 10, None).into_iter().map(|h| h.id).collect();
            let approx = hnsw.search(q, 10, None);
            hits_total += truth.len();
            found += approx.iter().filter(|h| truth.contains(&h.id)).count();
        }
        let recall = found as f64 / hits_total as f64;
        assert!(recall >= 0.9, "recall@10 = {recall:.3}");
    }

    #[test]
    fn deletion_excludes_from_results() {
        let (mut hnsw, _, vs) = build(100, 8);
        let q = vs[0].clone();
        let top = hnsw.search(&q, 1, None)[0].id;
        assert!(hnsw.remove(top));
        assert!(!hnsw.remove(top));
        let after = hnsw.search(&q, 5, None);
        assert!(after.iter().all(|h| h.id != top));
        assert_eq!(hnsw.len(), 99);
    }

    #[test]
    fn accept_filter_respected() {
        let (hnsw, _, vs) = build(200, 8);
        let accept = |id: InternalId| id % 2 == 0;
        let hits = hnsw.search(&vs[3], 10, Some(&accept));
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.id % 2 == 0));
    }

    #[test]
    fn deterministic_construction() {
        let (a, _, vs) = build(300, 8);
        let (b, _, _) = build(300, 8);
        for q in vs.iter().take(5) {
            let ha: Vec<_> = a.search(q, 5, None).iter().map(|h| h.id).collect();
            let hb: Vec<_> = b.search(q, 5, None).iter().map(|h| h.id).collect();
            assert_eq!(ha, hb);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate internal id")]
    fn duplicate_id_panics() {
        let mut idx = HnswIndex::new(2, Metric::Cosine, HnswConfig::default());
        idx.insert(0, &[1.0, 0.0]);
        idx.insert(0, &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "ef_construction must be at least m")]
    fn bad_config_rejected() {
        HnswIndex::new(
            2,
            Metric::Cosine,
            HnswConfig {
                m: 16,
                ef_construction: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn unit_fast_path_scores_match_exact_cosine() {
        let mut vs = test_vectors(200, 8);
        for v in &mut vs {
            let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            for x in v.iter_mut() {
                *x /= n;
            }
        }
        let mut hnsw = HnswIndex::new(8, Metric::Cosine, HnswConfig::default());
        for (i, v) in vs.iter().enumerate() {
            hnsw.insert(i as InternalId, v);
        }
        assert_eq!(hnsw.non_unit, 0, "all inserts unit-norm");
        let query = [0.5f32, -0.25, 0.1, 0.3, -0.7, 0.2, 0.05, 0.9]; // non-unit
        for hit in hnsw.search(&query, 5, None) {
            let exact = llmms_embed::cosine(&query, &vs[hit.id as usize]);
            assert!((hit.score - exact).abs() < 1e-5);
        }
    }
}
