//! Similarity and distance functions over embeddings.
//!
//! Every scoring decision in LLM-MS — query relevance, inter-model agreement,
//! RAG retrieval, the evaluation reward of Eq. 8.1 — is a cosine similarity
//! between embedding vectors, and the vector indexes evaluate millions of
//! them per search at scale. These functions are the hot path of the whole
//! platform, so they are written over raw slices, avoid allocation, and use
//! chunked 8-lane kernels: eight independent accumulators per pass remove
//! the serial floating-point dependency chain, letting the compiler keep the
//! whole chunk in SIMD registers without needing `-ffast-math` re-association.
//!
//! The naive serial implementations live on in [`scalar`] as the oracle the
//! kernels are proptested against (≤1e-5 divergence).

use crate::embedding::Embedding;
use serde::{Deserialize, Serialize};

/// The distance/similarity metric a vector index is built for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Metric {
    /// Cosine similarity (the platform default, matching ChromaDB's config).
    #[default]
    Cosine,
    /// Raw dot product (equivalent to cosine on unit-norm vectors).
    Dot,
    /// Euclidean (L2) distance.
    Euclidean,
}

impl Metric {
    /// Similarity score under this metric — higher is always better.
    ///
    /// For [`Metric::Euclidean`] the score is the negated distance so that
    /// "higher is better" holds uniformly and top-k code needs no branching.
    pub fn similarity(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Cosine => cosine(a, b),
            Metric::Dot => dot(a, b),
            Metric::Euclidean => -euclidean(a, b),
        }
    }
}

/// Reference implementations: plain serial loops with a single accumulator.
///
/// These are the semantic ground truth. The kernels above re-associate the
/// reduction across eight lanes, which changes rounding but not meaning; the
/// `kernels_track_scalar_oracle` proptest pins the divergence at ≤1e-5 on
/// normalized data.
pub mod scalar {
    /// Serial single-accumulator dot product.
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// Serial cosine similarity (`0.0` when either vector is zero).
    pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
        assert_eq!(a.len(), b.len(), "cosine: dimension mismatch");
        let mut ab = 0.0f32;
        let mut aa = 0.0f32;
        let mut bb = 0.0f32;
        for i in 0..a.len() {
            ab += a[i] * b[i];
            aa += a[i] * a[i];
            bb += b[i] * b[i];
        }
        if aa == 0.0 || bb == 0.0 {
            return 0.0;
        }
        (ab / (aa.sqrt() * bb.sqrt())).clamp(-1.0, 1.0)
    }

    /// Serial Euclidean (L2) distance.
    pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum::<f32>()
            .sqrt()
    }
}

const LANES: usize = 8;

/// Dot product of two equal-length slices — 8-lane unrolled kernel.
///
/// # Panics
///
/// Panics on dimension mismatch (guarded at collection boundaries).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    // `chunks_exact` gives the optimizer fixed-width [f32; 8] views with no
    // bounds checks in the loop body; eight independent accumulators map
    // onto one 256-bit (or two 128-bit) FMA lanes.
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            acc[l] += xa[l] * xb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x * y;
    }
    // Pairwise lane reduction keeps the final sums independent too.
    let s0 = (acc[0] + acc[4]) + (acc[2] + acc[6]);
    let s1 = (acc[1] + acc[5]) + (acc[3] + acc[7]);
    s0 + s1 + tail
}

/// Fused single pass computing `(a·b, a·a, b·b)` — the three reductions a
/// general cosine needs, touching each cache line once instead of three
/// times.
pub fn dot_norms(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    assert_eq!(a.len(), b.len(), "dot_norms: dimension mismatch");
    let mut ab = [0.0f32; LANES];
    let mut aa = [0.0f32; LANES];
    let mut bb = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            ab[l] += xa[l] * xb[l];
            aa[l] += xa[l] * xa[l];
            bb[l] += xb[l] * xb[l];
        }
    }
    let mut tab = 0.0f32;
    let mut taa = 0.0f32;
    let mut tbb = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        tab += x * y;
        taa += x * x;
        tbb += y * y;
    }
    let fold = |acc: [f32; LANES], tail: f32| -> f32 {
        ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7])) + tail
    };
    (fold(ab, tab), fold(aa, taa), fold(bb, tbb))
}

/// Cosine similarity in `[-1, 1]`. Returns `0.0` when either vector is zero
/// (no direction ⇒ no agreement), which keeps downstream score arithmetic
/// finite.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let (ab, aa, bb) = dot_norms(a, b);
    if aa == 0.0 || bb == 0.0 {
        return 0.0;
    }
    (ab / (aa.sqrt() * bb.sqrt())).clamp(-1.0, 1.0)
}

/// Euclidean (L2) distance — 8-lane unrolled kernel.
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "euclidean: dimension mismatch");
    let mut acc = [0.0f32; LANES];
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for l in 0..LANES {
            let d = xa[l] - xb[l];
            acc[l] += d * d;
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let d = x - y;
        tail += d * d;
    }
    let s0 = (acc[0] + acc[4]) + (acc[2] + acc[6]);
    let s1 = (acc[1] + acc[5]) + (acc[3] + acc[7]);
    (s0 + s1 + tail).sqrt()
}

/// Cosine similarity between two [`Embedding`]s.
///
/// When both sides are known-unit ([`Embedding::is_unit`]) the norms are 1
/// by construction and this collapses to a single dot product — one
/// accumulator pass instead of three on the Eq. 6.1 scoring hot path.
pub fn cosine_embeddings(a: &Embedding, b: &Embedding) -> f32 {
    if a.is_unit() && b.is_unit() {
        dot(a.as_slice(), b.as_slice()).clamp(-1.0, 1.0)
    } else {
        cosine(a.as_slice(), b.as_slice())
    }
}

/// Mean pairwise cosine similarity between `target` and every other element
/// of `others` — the "inter-model agreement" term of the LLM-MS reward
/// (Eq. 6.1). Returns `0.0` when `others` is empty.
pub fn mean_similarity_to_others(target: &Embedding, others: &[&Embedding]) -> f32 {
    if others.is_empty() {
        return 0.0;
    }
    let sum: f32 = others.iter().map(|o| cosine_embeddings(target, o)).sum();
    sum / others.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..13).map(|i| (13 - i) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-4);
    }

    #[test]
    fn dot_norms_matches_separate_passes() {
        // Length 19: two full 8-lane chunks plus a 3-element tail.
        let a: Vec<f32> = (0..19).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..19).map(|i| (i as f32 * 0.71).cos()).collect();
        let (ab, aa, bb) = dot_norms(&a, &b);
        assert!((ab - scalar::dot(&a, &b)).abs() < 1e-5);
        assert!((aa - scalar::dot(&a, &a)).abs() < 1e-5);
        assert!((bb - scalar::dot(&b, &b)).abs() < 1e-5);
    }

    #[test]
    fn cosine_of_identical_is_one() {
        let a = [0.3f32, -0.7, 0.1, 2.0];
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_orthogonal_is_zero() {
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_opposite_is_minus_one() {
        assert!((cosine(&[1.0, 2.0], &[-1.0, -2.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_with_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn euclidean_basic() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn metric_similarity_orders_consistently() {
        let q = [1.0f32, 0.0];
        let near = [0.9f32, 0.1];
        let far = [0.0f32, 1.0];
        for m in [Metric::Cosine, Metric::Dot, Metric::Euclidean] {
            assert!(
                m.similarity(&q, &near) > m.similarity(&q, &far),
                "{m:?} failed ordering"
            );
        }
    }

    #[test]
    fn mean_similarity_empty_others_is_zero() {
        let t = Embedding::new(vec![1.0, 0.0]);
        assert_eq!(mean_similarity_to_others(&t, &[]), 0.0);
    }

    #[test]
    fn mean_similarity_averages() {
        let t = Embedding::new(vec![1.0, 0.0]);
        let same = Embedding::new(vec![2.0, 0.0]);
        let orth = Embedding::new(vec![0.0, 5.0]);
        let m = mean_similarity_to_others(&t, &[&same, &orth]);
        assert!((m - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dot_dim_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn unit_fast_path_matches_general_cosine() {
        let a = Embedding::new(vec![0.3, -0.7, 0.1, 2.0]).normalized();
        let b = Embedding::new(vec![1.0, 0.5, -0.2, 0.4]).normalized();
        assert!(a.is_unit() && b.is_unit());
        let fast = cosine_embeddings(&a, &b);
        let general = cosine(a.as_slice(), b.as_slice());
        assert!((fast - general).abs() < 1e-6);
        // Non-unit inputs still go through the norm-deriving path.
        let raw = Embedding::new(vec![2.0, 1.0, 0.0, 0.0]);
        let c = cosine_embeddings(&raw, &b);
        assert!((c - cosine(raw.as_slice(), b.as_slice())).abs() < 1e-6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn vec_strategy(dim: usize) -> impl Strategy<Value = Vec<f32>> {
        proptest::collection::vec(-10.0f32..10.0, dim)
    }

    proptest! {
        /// The unrolled kernels track the serial scalar oracle to ≤1e-5 on
        /// normalized (embedding-scale) data across awkward lengths —
        /// including tails shorter than one 8-lane chunk.
        #[test]
        fn kernels_track_scalar_oracle(
            raw_a in vec_strategy(67),
            raw_b in vec_strategy(67),
            len in 1usize..68,
        ) {
            // Normalize to unit scale: embeddings are unit-norm in practice,
            // and the 1e-5 bound is only meaningful relative to ~1.0 values.
            let norm = |v: &[f32]| -> Vec<f32> {
                let n = scalar::dot(v, v).sqrt();
                if n == 0.0 { v.to_vec() } else { v.iter().map(|x| x / n).collect() }
            };
            let a = norm(&raw_a[..len]);
            let b = norm(&raw_b[..len]);
            prop_assert!((dot(&a, &b) - scalar::dot(&a, &b)).abs() <= 1e-5);
            prop_assert!((cosine(&a, &b) - scalar::cosine(&a, &b)).abs() <= 1e-5);
            prop_assert!((euclidean(&a, &b) - scalar::euclidean(&a, &b)).abs() <= 1e-5);
            let (ab, aa, bb) = dot_norms(&a, &b);
            prop_assert!((ab - scalar::dot(&a, &b)).abs() <= 1e-5);
            prop_assert!((aa - scalar::dot(&a, &a)).abs() <= 1e-5);
            prop_assert!((bb - scalar::dot(&b, &b)).abs() <= 1e-5);
        }

        /// Cosine is symmetric and bounded.
        #[test]
        fn cosine_symmetric_bounded(a in vec_strategy(16), b in vec_strategy(16)) {
            let ab = cosine(&a, &b);
            let ba = cosine(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-5);
            prop_assert!((-1.0..=1.0).contains(&ab));
        }

        /// Cosine is scale-invariant for positive scaling.
        #[test]
        fn cosine_scale_invariant(a in vec_strategy(8), b in vec_strategy(8), k in 0.1f32..100.0) {
            let scaled: Vec<f32> = a.iter().map(|v| v * k).collect();
            let c1 = cosine(&a, &b);
            let c2 = cosine(&scaled, &b);
            prop_assert!((c1 - c2).abs() < 1e-3, "c1={c1} c2={c2}");
        }

        /// Euclidean satisfies the triangle inequality.
        #[test]
        fn euclidean_triangle(a in vec_strategy(8), b in vec_strategy(8), c in vec_strategy(8)) {
            let ab = euclidean(&a, &b);
            let bc = euclidean(&b, &c);
            let ac = euclidean(&a, &c);
            prop_assert!(ac <= ab + bc + 1e-3);
        }

        /// Dot on unit-normalized vectors equals cosine.
        #[test]
        fn dot_on_unit_equals_cosine(a in vec_strategy(8), b in vec_strategy(8)) {
            let mut ea = crate::embedding::Embedding::new(a.clone());
            let mut eb = crate::embedding::Embedding::new(b.clone());
            ea.normalize();
            eb.normalize();
            prop_assume!(!ea.is_zero() && !eb.is_zero());
            let d = dot(ea.as_slice(), eb.as_slice());
            let c = cosine(&a, &b);
            prop_assert!((d - c).abs() < 1e-3);
        }
    }
}
