//! Prompt construction: query + retrieved context + conversation history →
//! the final model prompt (thesis §7.2, step 4: "The system builds an
//! enhanced prompt by combining the user's query with retrieved context").

use crate::retriever::RetrievedChunk;
use serde::{Deserialize, Serialize};

/// The fixed system preamble every prompt opens with.
const SYSTEM: &str = "Answer the question accurately and concisely. \
                      If context is provided, ground your answer in it.";

/// The label above the retrieved-context section.
const CONTEXT_HEADER: &str = "Context:";

/// Configuration of the prompt builder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromptConfig {
    /// Word budget for the whole prompt; context is dropped lowest-score
    /// first, then history oldest-first, to fit.
    pub max_words: usize,
}

impl Default for PromptConfig {
    fn default() -> Self {
        Self { max_words: 1024 }
    }
}

/// One prior conversational turn included for continuity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryTurn {
    /// Who spoke: `"user"` or `"assistant"`.
    pub role: String,
    /// What was said (or a summary of it).
    pub text: String,
}

/// Builds the final prompt string from parts, enforcing the word budget.
#[derive(Debug, Clone, Default)]
pub struct PromptBuilder {
    config: PromptConfig,
    context: Vec<RetrievedChunk>,
    history: Vec<HistoryTurn>,
    question: String,
}

impl PromptBuilder {
    /// Start a builder with `config`.
    pub fn new(config: PromptConfig) -> Self {
        Self {
            config,
            ..Self::default()
        }
    }

    /// Set the user question (required).
    #[must_use]
    pub fn question(mut self, question: &str) -> Self {
        self.question = question.trim().to_owned();
        self
    }

    /// Attach retrieved context chunks (highest score first is conventional
    /// but not required — the builder sorts).
    #[must_use]
    pub fn context(mut self, chunks: Vec<RetrievedChunk>) -> Self {
        self.context = chunks;
        self
    }

    /// Attach conversation history, oldest first.
    #[must_use]
    pub fn history(mut self, history: Vec<HistoryTurn>) -> Self {
        self.history = history;
        self
    }

    /// Render the prompt.
    ///
    /// Sections in order: system, context (best chunks first), history,
    /// question. When the word budget binds, context chunks are dropped
    /// lowest-score-first, then history turns oldest-first; the system text
    /// and the question always survive.
    pub fn build(mut self) -> String {
        let _span = llmms_obs::span("rag_prompt_build");
        let fixed_words = word_count(SYSTEM) + word_count(&self.question) + 8; // section labels
        let budget = self.config.max_words.saturating_sub(fixed_words);

        // Sort context best-first, then greedily keep what fits.
        self.context.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut used = 0usize;
        let mut kept_context: Vec<&RetrievedChunk> = Vec::new();
        for c in &self.context {
            let w = word_count(&c.text);
            if used + w > budget {
                break;
            }
            used += w;
            kept_context.push(c);
        }

        // History gets what remains, newest turns preferred.
        let mut kept_history: Vec<&HistoryTurn> = Vec::new();
        for turn in self.history.iter().rev() {
            let w = word_count(&turn.text) + 1;
            if used + w > budget {
                break;
            }
            used += w;
            kept_history.push(turn);
        }
        kept_history.reverse();

        let mut out = String::new();
        out.push_str(SYSTEM);
        out.push_str("\n\n");
        if !kept_context.is_empty() {
            out.push_str(CONTEXT_HEADER);
            out.push('\n');
            for c in kept_context {
                out.push_str("- ");
                out.push_str(&c.text);
                out.push('\n');
            }
            out.push('\n');
        }
        if !kept_history.is_empty() {
            out.push_str("Conversation so far:\n");
            for turn in kept_history {
                out.push_str(&turn.role);
                out.push_str(": ");
                out.push_str(&turn.text);
                out.push('\n');
            }
            out.push('\n');
        }
        out.push_str("Question: ");
        out.push_str(&self.question);
        out.push_str("\nAnswer:");
        out
    }
}

fn word_count(s: &str) -> usize {
    s.split_whitespace().count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(text: &str, score: f32) -> RetrievedChunk {
        RetrievedChunk {
            document_id: "d".into(),
            chunk_index: 0,
            text: text.into(),
            score,
        }
    }

    #[test]
    fn question_always_present() {
        let p = PromptBuilder::new(PromptConfig::default())
            .question("What is the capital of France?")
            .build();
        assert!(p.contains("Question: What is the capital of France?"));
        assert!(p.ends_with("Answer:"));
    }

    #[test]
    fn context_sorted_best_first() {
        let p = PromptBuilder::new(PromptConfig::default())
            .question("q")
            .context(vec![
                chunk("low relevance text", 0.2),
                chunk("high relevance text", 0.9),
            ])
            .build();
        let high = p.find("high relevance").unwrap();
        let low = p.find("low relevance").unwrap();
        assert!(high < low);
    }

    #[test]
    fn budget_drops_worst_context_first() {
        let config = PromptConfig { max_words: 30 };
        let big = "word ".repeat(12);
        let p = PromptBuilder::new(config)
            .question("the question")
            .context(vec![chunk(&big, 0.3), chunk("best tiny chunk", 0.95)])
            .build();
        assert!(p.contains("best tiny chunk"));
        assert!(!p.contains(&big));
    }

    #[test]
    fn history_prefers_recent_turns() {
        let config = PromptConfig { max_words: 40 };
        let old = HistoryTurn {
            role: "user".into(),
            text: "ancient history filler ".repeat(8),
        };
        let recent = HistoryTurn {
            role: "assistant".into(),
            text: "recent reply".into(),
        };
        let p = PromptBuilder::new(config)
            .question("q")
            .history(vec![old.clone(), recent])
            .build();
        assert!(p.contains("recent reply"));
        assert!(!p.contains("ancient history"));
    }

    #[test]
    fn history_order_is_chronological() {
        let p = PromptBuilder::new(PromptConfig::default())
            .question("q")
            .history(vec![
                HistoryTurn {
                    role: "user".into(),
                    text: "first message".into(),
                },
                HistoryTurn {
                    role: "assistant".into(),
                    text: "second message".into(),
                },
            ])
            .build();
        assert!(p.find("first message").unwrap() < p.find("second message").unwrap());
    }

    #[test]
    fn empty_sections_are_omitted() {
        let p = PromptBuilder::new(PromptConfig::default())
            .question("q")
            .build();
        assert!(!p.contains("Context:"));
        assert!(!p.contains("Conversation so far:"));
    }

    #[test]
    fn question_is_trimmed() {
        let p = PromptBuilder::new(PromptConfig::default())
            .question("   padded question   ")
            .build();
        assert!(p.contains("Question: padded question\n"));
    }
}
