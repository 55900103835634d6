//! Int8 scalar-quantized exact index for sealed segments.
//!
//! Once a segment seals, its vectors never change — the one situation where
//! paying a small, bounded precision cost for 4× less memory traffic is
//! free (see `llmms_embed::quant` for the codec and its error model). The
//! layout mirrors [`FlatIndex`]: one contiguous code arena scanned linearly,
//! plus per-vector decode scale and true inverse norm.
//!
//! Scoring stays asymmetric: queries remain full-precision f32.

use super::{Hit, InternalId, TopK, VectorIndex};
use crate::index::FlatIndex;
use llmms_embed::quant::{dot_i8, quantize};
use llmms_embed::Metric;

/// Exact top-k index over int8-quantized vectors.
#[derive(Debug, Clone)]
pub struct QuantizedFlatIndex {
    pub(crate) metric: Metric,
    pub(crate) dim: usize,
    /// Contiguous code arena; slot `i` occupies `i*dim..(i+1)*dim`.
    pub(crate) codes: Vec<i8>,
    /// Per-slot decode scale (`0.0` for the zero vector).
    pub(crate) scales: Vec<f32>,
    /// Per-slot inverse L2 norm of the *original* f32 vector.
    pub(crate) inv_norms: Vec<f32>,
    /// `ids[i]` is the external internal-id of slot `i` (sorted ascending).
    pub(crate) ids: Vec<InternalId>,
    /// Tombstone flags parallel to `ids`.
    pub(crate) deleted: Vec<bool>,
    pub(crate) live: usize,
}

impl QuantizedFlatIndex {
    /// Create an empty index for `dim`-dimensional vectors under `metric`.
    pub fn new(dim: usize, metric: Metric) -> Self {
        Self {
            metric,
            dim,
            codes: Vec::new(),
            scales: Vec::new(),
            inv_norms: Vec::new(),
            ids: Vec::new(),
            deleted: Vec::new(),
            live: 0,
        }
    }

    /// Quantize every slot of a flat segment, tombstones included (slot
    /// positions must be preserved so ids stay binary-searchable).
    pub fn from_flat(flat: &FlatIndex) -> Self {
        let mut q = Self::new(flat.dim, flat.metric);
        for (slot, &id) in flat.ids.iter().enumerate() {
            q.push_quantized_slice(id, flat.vector_at(slot), flat.deleted[slot]);
        }
        q
    }

    /// The configured metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The configured dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    fn push_quantized_slice(&mut self, id: InternalId, vector: &[f32], deleted: bool) {
        assert_eq!(
            vector.len(),
            self.dim,
            "quantized index: vector dim {} != index dim {}",
            vector.len(),
            self.dim
        );
        debug_assert!(
            self.ids.last().map_or(true, |&last| last < id),
            "ids must be inserted in increasing order"
        );
        let (codes, scale) = quantize(vector);
        let norm = vector.iter().map(|v| v * v).sum::<f32>().sqrt();
        self.codes.extend_from_slice(&codes);
        self.scales.push(scale);
        self.inv_norms
            .push(if norm > 0.0 { 1.0 / norm } else { 0.0 });
        self.ids.push(id);
        self.deleted.push(deleted);
        if !deleted {
            self.live += 1;
        }
    }

    /// Copy a slot from another quantized index verbatim — codes, scale and
    /// norm untouched, so compaction merges never re-quantize (requantizing
    /// decoded codes would compound the rounding error on every merge).
    pub(crate) fn push_copied_slot(&mut self, other: &Self, slot: usize) {
        let id = other.ids[slot];
        debug_assert!(
            self.ids.last().map_or(true, |&last| last < id),
            "ids must be inserted in increasing order"
        );
        self.codes
            .extend_from_slice(&other.codes[slot * self.dim..(slot + 1) * self.dim]);
        self.scales.push(other.scales[slot]);
        self.inv_norms.push(other.inv_norms[slot]);
        self.ids.push(id);
        self.deleted.push(false);
        self.live += 1;
    }

    fn slot_of(&self, id: InternalId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }
}

impl VectorIndex for QuantizedFlatIndex {
    fn insert(&mut self, id: InternalId, vector: &[f32]) {
        self.push_quantized_slice(id, vector, false);
    }

    fn remove(&mut self, id: InternalId) -> bool {
        match self.slot_of(id) {
            Some(slot) if !self.deleted[slot] => {
                self.deleted[slot] = true;
                self.live -= 1;
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
        // Everything cosine/euclidean needs about the query is derived once.
        let query_norm_sq = query.iter().map(|x| x * x).sum::<f32>();
        let query_inv_norm = if query_norm_sq > 0.0 {
            1.0 / query_norm_sq.sqrt()
        } else {
            0.0
        };
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
            let codes = &self.codes[slot * self.dim..(slot + 1) * self.dim];
            let d = dot_i8(query, codes, self.scales[slot]);
            let score = match self.metric {
                Metric::Dot => d,
                Metric::Cosine => {
                    if self.inv_norms[slot] == 0.0 || query_inv_norm == 0.0 {
                        0.0
                    } else {
                        (d * self.inv_norms[slot] * query_inv_norm).clamp(-1.0, 1.0)
                    }
                }
                Metric::Euclidean => {
                    // ‖q−v‖² = ‖q‖² − 2·q·v + ‖v‖², with ‖v‖ stored.
                    let v_norm = if self.inv_norms[slot] > 0.0 {
                        1.0 / self.inv_norms[slot]
                    } else {
                        0.0
                    };
                    -(query_norm_sq - 2.0 * d + v_norm * v_norm).max(0.0).sqrt()
                }
            };
            collector.push(Hit { id, score });
        }
        collector.into_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut state = 0xabcd_ef01_u64;
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

    #[test]
    fn quantized_recall_at_10_matches_flat() {
        // Quantization must not disturb top-10 membership noticeably.
        let vs = unit_vectors(1000, 32);
        let mut flat = FlatIndex::new(32, Metric::Cosine);
        for (i, v) in vs.iter().enumerate() {
            flat.insert(i as InternalId, v);
        }
        let quant = QuantizedFlatIndex::from_flat(&flat);
        assert_eq!(quant.len(), flat.len());
        let mut found = 0usize;
        let mut total = 0usize;
        for q in vs.iter().step_by(53) {
            let truth: std::collections::HashSet<_> =
                flat.search(q, 10, None).into_iter().map(|h| h.id).collect();
            let approx = quant.search(q, 10, None);
            total += truth.len();
            found += approx.iter().filter(|h| truth.contains(&h.id)).count();
        }
        let recall = found as f64 / total as f64;
        assert!(recall >= 0.95, "quantized recall@10 = {recall:.3}");
    }

    #[test]
    fn tombstones_carry_over_from_flat() {
        let vs = unit_vectors(10, 8);
        let mut flat = FlatIndex::new(8, Metric::Cosine);
        for (i, v) in vs.iter().enumerate() {
            flat.insert(i as InternalId, v);
        }
        flat.remove(3);
        let quant = QuantizedFlatIndex::from_flat(&flat);
        assert_eq!(quant.len(), 9);
        let hits = quant.search(&vs[3], 10, None);
        assert!(hits.iter().all(|h| h.id != 3));
    }

    #[test]
    fn euclidean_scoring_orders_by_distance() {
        let mut q = QuantizedFlatIndex::new(1, Metric::Euclidean);
        q.insert(0, &[0.0]);
        q.insert(1, &[5.0]);
        q.insert(2, &[2.0]);
        let hits = q.search(&[1.9], 3, None);
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[1].id, 0);
        assert_eq!(hits[2].id, 1);
    }

    #[test]
    fn copied_slots_are_bit_identical() {
        let vs = unit_vectors(6, 8);
        let mut a = QuantizedFlatIndex::new(8, Metric::Cosine);
        for (i, v) in vs.iter().enumerate() {
            a.insert(i as InternalId, v);
        }
        let mut b = QuantizedFlatIndex::new(8, Metric::Cosine);
        for slot in 0..vs.len() {
            b.push_copied_slot(&a, slot);
        }
        assert_eq!(a.codes, b.codes);
        assert_eq!(a.scales, b.scales);
        assert_eq!(a.inv_norms, b.inv_norms);
        let q = &vs[0];
        let ha = a.search(q, 3, None);
        let hb = b.search(q, 3, None);
        assert_eq!(ha, hb, "verbatim copy must score bit-identically");
    }

    #[test]
    fn k_zero_and_empty() {
        let q = QuantizedFlatIndex::new(4, Metric::Cosine);
        assert!(q.is_empty());
        assert!(q.search(&[1.0, 0.0, 0.0, 0.0], 5, None).is_empty());
    }
}
