//! Incremental embedding accumulators.
//!
//! The orchestration loop re-scores every model's *growing* partial response
//! each round. From-scratch embedding makes that O(L) per round — O(L²)
//! embedding work over a response's lifetime. The hashed n-gram embedder,
//! however, is **additive before its final L2 normalization**: the feature
//! vector of a text is the sum of per-word feature contributions, and each
//! word's contribution is linear in its sublinear-tf weight. An accumulator
//! can therefore keep
//!
//! * the unnormalized feature vector of all fully-committed words,
//! * the term-frequency table (the `1 + ln(tf)` weight is not additive in
//!   occurrences, so tf changes are applied as weight *deltas*), and
//! * a word-boundary tail: the normalized characters of the final,
//!   possibly-incomplete word, which only joins the feature vector when a
//!   whitespace boundary proves it complete (snapshots fold it in
//!   speculatively without committing it).
//!
//! Appending a chunk then costs O(new tokens); a snapshot costs O(dim) plus
//! the tail word. The result is equivalent to embedding the concatenated
//! text from scratch up to f32 rounding (different summation order), which
//! the proptests below pin to within 1e-5 cosine.

use crate::embedding::Embedding;
use crate::hashed::HashedNgramEmbedder;
use crate::Embedder;
use std::collections::HashMap;

/// An append-only embedding accumulator: feed text chunks, snapshot the
/// embedding of everything fed so far.
///
/// Implementations must be equivalent (within float tolerance) to calling
/// [`Embedder::embed`] on the concatenation of every chunk appended since
/// construction (or the last [`IncrementalAccumulator::reset`]).
pub trait IncrementalAccumulator: Send {
    /// Output dimensionality, matching the owning embedder's.
    fn dim(&self) -> usize;

    /// Fold `chunk` in. Chunks may split words — and even multi-byte
    /// characters may *not* be split, since `&str` is char-aligned — the
    /// accumulator tracks the pending word across calls.
    fn append(&mut self, chunk: &str);

    /// The normalized embedding of everything appended so far, including
    /// the pending partial word.
    fn embedding(&self) -> Embedding;

    /// Forget everything; equivalent to a freshly-constructed accumulator.
    fn reset(&mut self);
}

/// [`IncrementalAccumulator`] for [`HashedNgramEmbedder`].
///
/// Streams the same normalization the embedder applies up front
/// (lowercasing, whitespace as word boundaries, control characters
/// stripped) so the committed word multiset matches `normalize(text)`'s
/// `split_whitespace()` exactly.
pub struct ResponseAccumulator {
    embedder: HashedNgramEmbedder,
    /// Unnormalized feature vector of all committed words.
    acc: Vec<f32>,
    /// Term frequencies of committed words (weights are tf-dependent).
    tf: HashMap<String, usize>,
    /// Normalized chars of the current, not-yet-terminated word.
    tail: String,
}

impl ResponseAccumulator {
    /// A fresh accumulator for `embedder` (equivalent to empty text).
    pub fn new(embedder: HashedNgramEmbedder) -> Self {
        let dim = embedder.dim();
        Self {
            embedder,
            acc: vec![0.0; dim],
            tf: HashMap::new(),
            tail: String::new(),
        }
    }

    /// Sublinear tf weight, matching the embedder's `1 + ln(tf)`.
    fn weight(tf: usize) -> f32 {
        if tf == 0 {
            0.0
        } else {
            1.0 + (tf as f32).ln()
        }
    }

    /// Commit the pending tail word: bump its tf and apply the weight delta
    /// to the feature vector.
    fn commit_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let word = std::mem::take(&mut self.tail);
        let count = self.tf.entry(word.clone()).or_insert(0);
        *count += 1;
        let delta = Self::weight(*count) - Self::weight(*count - 1);
        self.embedder.add_word_features(&mut self.acc, &word, delta);
    }
}

impl IncrementalAccumulator for ResponseAccumulator {
    fn dim(&self) -> usize {
        self.acc.len()
    }

    fn append(&mut self, chunk: &str) {
        // Streaming twin of `crate::tokenizer::normalize` with
        // `NormalizerConfig::case_insensitive()`: whitespace (checked first,
        // so whitespace control chars still delimit) ends the current word,
        // other control chars are stripped, everything else is lowercased
        // into the tail. Collapsing/trimming only affects spacing, not the
        // word multiset, so it needs no mirroring here.
        for ch in chunk.chars() {
            if ch.is_whitespace() {
                self.commit_tail();
            } else if ch.is_control() {
                continue;
            } else {
                for lower in ch.to_lowercase() {
                    self.tail.push(lower);
                }
            }
        }
    }

    fn embedding(&self) -> Embedding {
        let mut values = self.acc.clone();
        if !self.tail.is_empty() {
            // Snapshot the pending word as if it were complete, without
            // committing it — the next chunk may still extend it.
            let count = self.tf.get(&self.tail).copied().unwrap_or(0) + 1;
            let delta = Self::weight(count) - Self::weight(count - 1);
            self.embedder
                .add_word_features(&mut values, &self.tail, delta);
        }
        let mut e = Embedding::new(values);
        e.normalize();
        e
    }

    fn reset(&mut self) {
        self.acc.iter_mut().for_each(|v| *v = 0.0);
        self.tf.clear();
        self.tail.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedder() -> HashedNgramEmbedder {
        HashedNgramEmbedder::default()
    }

    /// Max-norm difference — a much stricter check than cosine, usable on
    /// the short fixtures where drift is negligible.
    fn close(a: &Embedding, b: &Embedding, tol: f32) -> bool {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let acc = ResponseAccumulator::new(embedder());
        assert!(acc.embedding().is_zero());
        assert_eq!(acc.dim(), 384);
    }

    #[test]
    fn single_chunk_matches_from_scratch() {
        let text = "The Capital of France is Paris";
        let mut acc = ResponseAccumulator::new(embedder());
        acc.append(text);
        assert!(close(&acc.embedding(), &embedder().embed(text), 1e-6));
    }

    #[test]
    fn word_split_across_chunks_matches() {
        let mut acc = ResponseAccumulator::new(embedder());
        acc.append("the capi");
        acc.append("tal of fra");
        acc.append("nce");
        let expected = embedder().embed("the capital of france");
        assert!(close(&acc.embedding(), &expected, 1e-6));
    }

    #[test]
    fn snapshot_does_not_commit_the_tail() {
        let mut acc = ResponseAccumulator::new(embedder());
        acc.append("par");
        // Snapshot mid-word, then keep extending the same word.
        let mid = acc.embedding();
        assert!(close(&mid, &embedder().embed("par"), 1e-6));
        acc.append("is rocks");
        let expected = embedder().embed("paris rocks");
        assert!(close(&acc.embedding(), &expected, 1e-6));
    }

    #[test]
    fn repeated_words_track_sublinear_tf() {
        let text = "spam spam spam spam eggs spam";
        let mut acc = ResponseAccumulator::new(embedder());
        for word in ["spam ", "spam ", "spam ", "spam ", "eggs ", "spam"] {
            acc.append(word);
        }
        assert!(close(&acc.embedding(), &embedder().embed(text), 1e-5));
    }

    #[test]
    fn control_chars_and_case_are_normalized() {
        let mut acc = ResponseAccumulator::new(embedder());
        acc.append("Hel\u{0007}lo\tWoRLD");
        let expected = embedder().embed("hello world");
        assert!(close(&acc.embedding(), &expected, 1e-6));
    }

    #[test]
    fn reset_restores_the_empty_state() {
        let mut acc = ResponseAccumulator::new(embedder());
        acc.append("some text here");
        acc.reset();
        assert!(acc.embedding().is_zero());
        acc.append("other words");
        assert!(close(
            &acc.embedding(),
            &embedder().embed("other words"),
            1e-6
        ));
    }

    #[test]
    fn snapshots_are_known_unit() {
        let mut acc = ResponseAccumulator::new(embedder());
        acc.append("nonempty");
        assert!(acc.embedding().is_unit());
    }

    #[test]
    fn embedder_hands_out_accumulators() {
        let acc = embedder().accumulator();
        assert!(acc.is_some());
        assert_eq!(acc.unwrap().dim(), 384);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::similarity::cosine_embeddings;
    use proptest::prelude::*;

    /// Cut `text` at `fractions` of its char length — chunk boundaries land
    /// mid-word, mid-run, anywhere.
    fn chunks_at(text: &str, fractions: &[f64]) -> Vec<String> {
        let chars: Vec<char> = text.chars().collect();
        let mut cuts: Vec<usize> = fractions
            .iter()
            .map(|f| ((chars.len() as f64) * f) as usize)
            .collect();
        cuts.push(0);
        cuts.push(chars.len());
        cuts.sort_unstable();
        cuts.dedup();
        cuts.windows(2)
            .map(|w| chars[w[0]..w[1]].iter().collect())
            .collect()
    }

    proptest! {
        /// Chunked accumulation ≡ from-scratch embedding, within 1e-5
        /// cosine, for arbitrary split points (including mid-word).
        #[test]
        fn accumulator_equals_from_scratch(
            text in "[a-z A-Z]{1,120}",
            fractions in proptest::collection::vec(0.0f64..1.0, 0..6),
        ) {
            let embedder = HashedNgramEmbedder::default();
            let mut acc = ResponseAccumulator::new(embedder.clone());
            for chunk in chunks_at(&text, &fractions) {
                acc.append(&chunk);
            }
            let incremental = acc.embedding();
            let scratch = embedder.embed(&text);
            prop_assert_eq!(incremental.is_zero(), scratch.is_zero());
            if !scratch.is_zero() {
                let cos = cosine_embeddings(&incremental, &scratch);
                prop_assert!(cos >= 1.0 - 1e-5, "cos={cos}");
            }
        }

        /// Repeated vocabulary (the stress case for tf-delta updates) stays
        /// equivalent under chunking.
        #[test]
        fn repeated_vocab_equals_from_scratch(
            words in proptest::collection::vec(0usize..3, 1..40),
            fractions in proptest::collection::vec(0.0f64..1.0, 0..4),
        ) {
            let vocab = ["aa", "bb", "cc"];
            let text = words
                .iter()
                .map(|&i| vocab[i])
                .collect::<Vec<_>>()
                .join(" ");
            let embedder = HashedNgramEmbedder::default();
            let mut acc = ResponseAccumulator::new(embedder.clone());
            for chunk in chunks_at(&text, &fractions) {
                acc.append(&chunk);
            }
            let cos = cosine_embeddings(&acc.embedding(), &embedder.embed(&text));
            prop_assert!(cos >= 1.0 - 1e-5, "cos={cos}");
        }

        /// Unicode text (multi-byte chars, case folding) stays equivalent.
        #[test]
        fn unicode_equals_from_scratch(
            text in "[αβγÄÖÜ ée]{0,60}",
            fractions in proptest::collection::vec(0.0f64..1.0, 0..4),
        ) {
            let embedder = HashedNgramEmbedder::default();
            let mut acc = ResponseAccumulator::new(embedder.clone());
            for chunk in chunks_at(&text, &fractions) {
                acc.append(&chunk);
            }
            let incremental = acc.embedding();
            let scratch = embedder.embed(&text);
            prop_assert_eq!(incremental.is_zero(), scratch.is_zero());
            if !scratch.is_zero() {
                let cos = cosine_embeddings(&incremental, &scratch);
                prop_assert!(cos >= 1.0 - 1e-5, "cos={cos}");
            }
        }
    }
}
