//! Metadata filter expressions, mirroring ChromaDB's `where` clauses
//! (`$eq`, `$ne`, `$gt`, `$in`, `$and`, `$or`, ...).
//!
//! Filters are evaluated against a record's [`Metadata`] during queries so
//! that, e.g., the RAG retriever can restrict a search to chunks of one
//! uploaded document.

use crate::metadata::{MetaValue, Metadata};
use serde::{Deserialize, Serialize};

/// A metadata predicate tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Filter {
    /// `key == value`.
    Eq(String, MetaValue),
    /// `key != value` (missing keys match, as in ChromaDB).
    Ne(String, MetaValue),
    /// Numeric `key > value`.
    Gt(String, f64),
    /// Numeric `key >= value`.
    Gte(String, f64),
    /// Numeric `key < value`.
    Lt(String, f64),
    /// Numeric `key <= value`.
    Lte(String, f64),
    /// `key` is one of the listed values.
    In(String, Vec<MetaValue>),
    /// String value of `key` contains the given substring.
    Contains(String, String),
    /// The key exists (any value).
    Exists(String),
    /// All sub-filters match.
    And(Vec<Filter>),
    /// At least one sub-filter matches.
    Or(Vec<Filter>),
    /// The sub-filter does not match.
    Not(Box<Filter>),
}

impl Filter {
    /// Evaluate the filter against `metadata`.
    pub fn matches(&self, metadata: &Metadata) -> bool {
        match self {
            Filter::Eq(k, v) => metadata.get(k) == Some(v),
            Filter::Ne(k, v) => metadata.get(k) != Some(v),
            Filter::Gt(k, x) => num(metadata, k).is_some_and(|v| v > *x),
            Filter::Gte(k, x) => num(metadata, k).is_some_and(|v| v >= *x),
            Filter::Lt(k, x) => num(metadata, k).is_some_and(|v| v < *x),
            Filter::Lte(k, x) => num(metadata, k).is_some_and(|v| v <= *x),
            Filter::In(k, vs) => metadata.get(k).is_some_and(|v| vs.contains(v)),
            Filter::Contains(k, needle) => metadata
                .get(k)
                .and_then(MetaValue::as_str)
                .is_some_and(|s| s.contains(needle.as_str())),
            Filter::Exists(k) => metadata.contains_key(k),
            Filter::And(fs) => fs.iter().all(|f| f.matches(metadata)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(metadata)),
            Filter::Not(f) => !f.matches(metadata),
        }
    }

    /// Shorthand: equality on a string value.
    pub fn eq_str(key: &str, value: &str) -> Self {
        Filter::Eq(key.to_owned(), MetaValue::Str(value.to_owned()))
    }

    /// Combine with another filter under AND.
    #[must_use]
    pub fn and(self, other: Filter) -> Self {
        match self {
            Filter::And(mut fs) => {
                fs.push(other);
                Filter::And(fs)
            }
            f => Filter::And(vec![f, other]),
        }
    }

    /// Combine with another filter under OR.
    #[must_use]
    pub fn or(self, other: Filter) -> Self {
        match self {
            Filter::Or(mut fs) => {
                fs.push(other);
                Filter::Or(fs)
            }
            f => Filter::Or(vec![f, other]),
        }
    }
}

fn num(metadata: &Metadata, key: &str) -> Option<f64> {
    metadata.get(key).and_then(MetaValue::as_f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::meta;

    fn sample() -> Metadata {
        meta([
            ("category", "science".into()),
            ("page", 7i64.into()),
            ("score", 0.75f64.into()),
            ("published", true.into()),
        ])
    }

    #[test]
    fn eq_and_ne() {
        let m = sample();
        assert!(Filter::eq_str("category", "science").matches(&m));
        assert!(!Filter::eq_str("category", "history").matches(&m));
        assert!(Filter::Ne("category".into(), "history".into()).matches(&m));
        // Missing key: Eq fails, Ne succeeds (ChromaDB semantics).
        assert!(!Filter::eq_str("missing", "x").matches(&m));
        assert!(Filter::Ne("missing".into(), "x".into()).matches(&m));
    }

    #[test]
    fn numeric_comparisons_work_on_ints_and_floats() {
        let m = sample();
        assert!(Filter::Gt("page".into(), 5.0).matches(&m));
        assert!(!Filter::Gt("page".into(), 7.0).matches(&m));
        assert!(Filter::Gte("page".into(), 7.0).matches(&m));
        assert!(Filter::Lt("score".into(), 1.0).matches(&m));
        assert!(Filter::Lte("score".into(), 0.75).matches(&m));
        // Non-numeric values never satisfy numeric comparisons.
        assert!(!Filter::Gt("category".into(), 0.0).matches(&m));
        assert!(!Filter::Lt("missing".into(), 100.0).matches(&m));
    }

    #[test]
    fn in_and_contains() {
        let m = sample();
        assert!(
            Filter::In("category".into(), vec!["history".into(), "science".into()]).matches(&m)
        );
        assert!(!Filter::In("category".into(), vec!["law".into()]).matches(&m));
        assert!(Filter::Contains("category".into(), "scien".into()).matches(&m));
        assert!(
            !Filter::Contains("page".into(), "7".into()).matches(&m),
            "contains only applies to strings"
        );
    }

    #[test]
    fn exists() {
        let m = sample();
        assert!(Filter::Exists("page".into()).matches(&m));
        assert!(!Filter::Exists("missing".into()).matches(&m));
    }

    #[test]
    fn boolean_combinators() {
        let m = sample();
        let f = Filter::eq_str("category", "science").and(Filter::Gt("page".into(), 3.0));
        assert!(f.matches(&m));
        let f = Filter::eq_str("category", "law").or(Filter::eq_str("category", "science"));
        assert!(f.matches(&m));
        let f = Filter::Not(Box::new(Filter::eq_str("category", "science")));
        assert!(!f.matches(&m));
    }

    #[test]
    fn and_or_builders_flatten() {
        let f = Filter::eq_str("a", "1")
            .and(Filter::eq_str("b", "2"))
            .and(Filter::eq_str("c", "3"));
        match f {
            Filter::And(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
        let f = Filter::eq_str("a", "1")
            .or(Filter::eq_str("b", "2"))
            .or(Filter::eq_str("c", "3"));
        match f {
            Filter::Or(fs) => assert_eq!(fs.len(), 3),
            other => panic!("expected flattened Or, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_matches_everything_empty_or_nothing() {
        let m = sample();
        assert!(Filter::And(vec![]).matches(&m));
        assert!(!Filter::Or(vec![]).matches(&m));
    }

    #[test]
    fn serde_roundtrip() {
        let f = Filter::eq_str("category", "science").and(Filter::Gt("page".into(), 3.0));
        let json = serde_json::to_string(&f).unwrap();
        let back: Filter = serde_json::from_str(&json).unwrap();
        assert_eq!(back, f);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::metadata::meta;
    use proptest::prelude::*;

    proptest! {
        /// Not(Not(f)) ≡ f on arbitrary metadata.
        #[test]
        fn double_negation(key in "[a-c]", val in 0i64..5, probe in 0i64..5) {
            let m = meta([(&key as &str, probe.into())]);
            let f = Filter::Eq(key.clone(), val.into());
            let nn = Filter::Not(Box::new(Filter::Not(Box::new(f.clone()))));
            prop_assert_eq!(f.matches(&m), nn.matches(&m));
        }

        /// De Morgan: !(a && b) == !a || !b.
        #[test]
        fn de_morgan(va in 0i64..3, vb in 0i64..3, pa in 0i64..3, pb in 0i64..3) {
            let m = meta([("a", pa.into()), ("b", pb.into())]);
            let a = Filter::Eq("a".into(), va.into());
            let b = Filter::Eq("b".into(), vb.into());
            let lhs = Filter::Not(Box::new(a.clone().and(b.clone())));
            let rhs = Filter::Not(Box::new(a)).or(Filter::Not(Box::new(b)));
            prop_assert_eq!(lhs.matches(&m), rhs.matches(&m));
        }
    }
}
