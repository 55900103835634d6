//! The [`Embedding`] vector type.

use serde::{Deserialize, Error, Serialize, Value};
use std::fmt;

/// A dense embedding vector.
///
/// The platform normalizes every embedding to unit L2 norm before storing or
/// comparing it (the thesis calls this the "embedding normalization process"
/// that "ensures consistency across all vector representations", §3.3). The
/// constructor does not normalize automatically — call
/// [`Embedding::normalized`] or [`Embedding::normalize`] — so that raw
/// feature vectors can still be accumulated.
///
/// The type remembers whether it was normalized: [`Embedding::is_unit`]
/// lets cosine similarity collapse to a plain dot product on the scoring
/// hot path. Any mutation of the raw values clears the flag.
#[derive(Debug, Clone)]
pub struct Embedding {
    values: Vec<f32>,
    /// Known to have unit L2 norm (set by [`Embedding::normalize`]).
    unit: bool,
}

impl Embedding {
    /// Wrap a raw vector.
    pub fn new(values: Vec<f32>) -> Self {
        Self {
            values,
            unit: false,
        }
    }

    /// The all-zero embedding of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self::new(vec![0.0; dim])
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Borrow the raw values.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access to the raw values. Clears the known-unit flag: the
    /// caller may change the norm.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.unit = false;
        &mut self.values
    }

    /// Euclidean (L2) norm.
    pub fn l2_norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// True when every component is zero (or the vector is empty).
    pub fn is_zero(&self) -> bool {
        self.values.iter().all(|&v| v == 0.0)
    }

    /// Whether this embedding is *known* to have unit L2 norm (it went
    /// through [`Embedding::normalize`] and has not been mutated since).
    /// `false` means "unknown", not "non-unit".
    pub fn is_unit(&self) -> bool {
        self.unit
    }

    /// Normalize in place to unit L2 norm. The zero vector is left unchanged
    /// (there is no meaningful direction to preserve). Already-known-unit
    /// vectors are left untouched.
    pub fn normalize(&mut self) {
        if self.unit {
            return;
        }
        let n = self.l2_norm();
        if n > 0.0 {
            for v in &mut self.values {
                *v /= n;
            }
            self.unit = true;
        }
    }

    /// Return a unit-norm copy.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let mut e = self.clone();
        e.normalize();
        e
    }

    /// Component-wise accumulate `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ — mixing embeddings of different models
    /// is a programming error the platform guards against at the boundary.
    pub fn accumulate(&mut self, other: &Embedding) {
        assert_eq!(
            self.dim(),
            other.dim(),
            "embedding dimension mismatch: {} vs {}",
            self.dim(),
            other.dim()
        );
        self.unit = false;
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b;
        }
    }

    /// Scale every component by `factor`.
    pub fn scale(&mut self, factor: f32) {
        self.unit = false;
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// The (unnormalized) centroid of a non-empty set of embeddings.
    ///
    /// Returns `None` for an empty set or mismatched dimensions.
    pub fn centroid<'a, I>(embeddings: I) -> Option<Embedding>
    where
        I: IntoIterator<Item = &'a Embedding>,
    {
        let mut iter = embeddings.into_iter();
        let first = iter.next()?;
        let mut acc = first.clone();
        acc.unit = false;
        let mut count = 1usize;
        for e in iter {
            if e.dim() != acc.dim() {
                return None;
            }
            acc.accumulate(e);
            count += 1;
        }
        acc.scale(1.0 / count as f32);
        Some(acc)
    }
}

/// Equality is defined by the raw values alone — the known-unit flag is a
/// cached property, not part of the vector's identity.
impl PartialEq for Embedding {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values
    }
}

/// The wire format is a plain array of floats, exactly as before the
/// known-unit flag existed; the flag is recomputed lazily on use.
impl Serialize for Embedding {
    fn serialize(&self) -> Value {
        self.values.serialize()
    }
}

impl Deserialize for Embedding {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        Vec::<f32>::deserialize(value).map(Embedding::new)
    }
}

impl fmt::Display for Embedding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Embedding(dim={}, norm={:.4})",
            self.dim(),
            self.l2_norm()
        )
    }
}

impl From<Vec<f32>> for Embedding {
    fn from(v: Vec<f32>) -> Self {
        Self::new(v)
    }
}

impl AsRef<[f32]> for Embedding {
    fn as_ref(&self) -> &[f32] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_of_unit_vectors() {
        let e = Embedding::new(vec![3.0, 4.0]);
        assert!((e.l2_norm() - 5.0).abs() < 1e-6);
        let n = e.normalized();
        assert!((n.l2_norm() - 1.0).abs() < 1e-6);
        assert!((n.as_slice()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn zero_vector_normalization_is_noop() {
        let mut e = Embedding::zeros(4);
        e.normalize();
        assert!(e.is_zero());
        assert_eq!(e.dim(), 4);
        assert!(!e.is_unit(), "zero vector can never be unit norm");
    }

    #[test]
    fn unit_flag_tracks_normalization_and_mutation() {
        let mut e = Embedding::new(vec![3.0, 4.0]);
        assert!(!e.is_unit());
        e.normalize();
        assert!(e.is_unit());
        // Clones keep the flag; value mutation clears it.
        assert!(e.clone().is_unit());
        e.as_mut_slice()[0] = 2.0;
        assert!(!e.is_unit());
        e.normalize();
        assert!(e.is_unit());
        e.scale(2.0);
        assert!(!e.is_unit());
        e.normalize();
        let mut acc = e.clone();
        acc.accumulate(&Embedding::new(vec![1.0, 0.0]));
        assert!(!acc.is_unit());
    }

    #[test]
    fn equality_ignores_unit_flag() {
        let raw = Embedding::new(vec![1.0, 0.0]);
        let normed = raw.normalized();
        assert!(normed.is_unit() && !raw.is_unit());
        assert_eq!(raw, normed, "values are equal, flag must not matter");
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = Embedding::new(vec![1.0, 2.0]);
        a.accumulate(&Embedding::new(vec![3.0, 4.0]));
        assert_eq!(a.as_slice(), &[4.0, 6.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn accumulate_dim_mismatch_panics() {
        let mut a = Embedding::zeros(2);
        a.accumulate(&Embedding::zeros(3));
    }

    #[test]
    fn centroid_of_set() {
        let a = Embedding::new(vec![1.0, 0.0]);
        let b = Embedding::new(vec![0.0, 1.0]);
        let c = Embedding::centroid([&a, &b]).unwrap();
        assert_eq!(c.as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(Embedding::centroid(std::iter::empty()).is_none());
    }

    #[test]
    fn centroid_dim_mismatch_is_none() {
        let a = Embedding::zeros(2);
        let b = Embedding::zeros(3);
        assert!(Embedding::centroid([&a, &b]).is_none());
    }

    #[test]
    fn serde_roundtrip() {
        let e = Embedding::new(vec![0.1, -0.2, 0.3]);
        let json = serde_json::to_string(&e).unwrap();
        let back: Embedding = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn wire_format_is_a_plain_float_array() {
        let e = Embedding::new(vec![1.0, 2.0]).normalized();
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.starts_with('['), "format changed: {json}");
        let back: Embedding = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn display_mentions_dim() {
        let e = Embedding::zeros(8);
        assert!(e.to_string().contains("dim=8"));
    }
}
