//! Text normalization applied before tokenization and embedding.
//!
//! The paper's platform normalizes all text before embedding and scoring so
//! that heterogeneous model outputs are compared on the same token stream.
//! The normalization is fixed: Unicode control characters are stripped,
//! whitespace runs collapse to one ASCII space (trimmed at both ends), and
//! text is lowercased.

/// The normalization [`normalize`] applies. It has one setting; the type
/// stays because callers outside the workspace pass it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NormalizerConfig;

impl NormalizerConfig {
    /// The case-insensitive normalizer — the SQuAD convention of the
    /// evaluation F1 metric, and what the embedders hash.
    pub fn case_insensitive() -> Self {
        Self
    }
}

/// Normalize `text`: strip control characters, collapse and trim
/// whitespace, lowercase.
pub fn normalize(text: &str, _config: &NormalizerConfig) -> String {
    let mut out = String::with_capacity(text.len());
    let mut pending_space = false;
    let mut seen_any = false;
    for ch in text.chars() {
        if ch.is_whitespace() {
            pending_space = seen_any;
            continue;
        }
        if ch.is_control() {
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        out.extend(ch.to_lowercase());
        seen_any = true;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm(text: &str) -> String {
        normalize(text, &NormalizerConfig::case_insensitive())
    }

    #[test]
    fn collapses_whitespace_runs() {
        assert_eq!(norm("a  b\t\nc"), "a b c");
    }

    #[test]
    fn trims_leading_and_trailing_whitespace() {
        assert_eq!(norm("  hello world  "), "hello world");
    }

    #[test]
    fn strips_control_characters() {
        assert_eq!(norm("a\u{0} b\u{7}"), "a b");
    }

    #[test]
    fn lowercases() {
        assert_eq!(norm("HeLLo WoRLD"), "hello world");
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert_eq!(norm(""), "");
        assert_eq!(norm("   "), "");
    }

    #[test]
    fn multichar_lowercase_expansion_is_handled() {
        // U+0130 LATIN CAPITAL LETTER I WITH DOT ABOVE lowercases to two chars.
        let out = norm("\u{130}");
        assert_eq!(out.chars().count(), 2);
        assert!(out.chars().all(|c| !c.is_uppercase()));
    }
}
