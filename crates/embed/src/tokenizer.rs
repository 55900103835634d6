//! Text normalization and word tokenization.
//!
//! * [`words`] — the SQuAD-convention whitespace tokenizer used by the
//!   evaluation F1 metric.
//! * [`normalize()`] — the shared normalization the embedders apply before
//!   hashing and weighting terms.
//!
//! ## Example
//!
//! ```
//! use llmms_embed::tokenizer::{normalize, words, NormalizerConfig};
//!
//! let cfg = NormalizerConfig::case_insensitive();
//! assert_eq!(normalize("  The  Quick\tFox ", &cfg), "the quick fox");
//! assert_eq!(words("The Quick, Fox!"), ["the", "quick", "fox"]);
//! ```

pub use crate::normalize::{normalize, NormalizerConfig};

/// Whitespace word tokenization under SQuAD normalization (lowercase,
/// punctuation stripped). This is the token definition the evaluation F1
/// metric uses, matching the paper's TruthfulQA scoring.
pub fn words(text: &str) -> Vec<String> {
    let normalized = normalize(text, &NormalizerConfig::case_insensitive());
    normalized
        .split_whitespace()
        .map(|w| {
            w.chars()
                .filter(|c| c.is_alphanumeric())
                .collect::<String>()
        })
        .filter(|w| !w.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_normalizes_case_and_punctuation() {
        assert_eq!(
            words("The Capital, of FRANCE!"),
            ["the", "capital", "of", "france"]
        );
    }

    #[test]
    fn words_of_empty_is_empty() {
        assert!(words("").is_empty());
        assert!(words("!!! ???").is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `words` output contains only alphanumerics, already in lowercase
        /// form (characters without a lowercase mapping pass unchanged).
        #[test]
        fn words_are_clean(s in ".{0,64}") {
            for w in words(&s) {
                prop_assert!(w.chars().all(|c| c.is_alphanumeric()));
                prop_assert_eq!(w.to_lowercase(), w);
            }
        }
    }
}
