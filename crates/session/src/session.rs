//! Conversation sessions with hierarchical summarization.

use crate::summarize::{summarize, SummaryConfig};
use llmms_embed::SharedEmbedder;
use serde::{Deserialize, Serialize};

/// Who produced a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// The end user.
    User,
    /// The platform's selected model response.
    Assistant,
}

impl Role {
    /// Lowercase label used in prompts.
    pub fn as_str(&self) -> &'static str {
        match self {
            Role::User => "user",
            Role::Assistant => "assistant",
        }
    }
}

/// One conversation message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Speaker.
    pub role: Role,
    /// Message text.
    pub text: String,
}

/// Configuration of a [`Session`]'s context management.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// After this many unsummarized messages, the oldest
    /// `SUMMARIZE_BATCH` (2) are folded into the running summary (the thesis
    /// condenses "after every five messages", §7.3).
    pub summarize_after: usize,
    /// Word budget of the running summary.
    pub summary: SummaryConfig,
}

/// How many of the oldest messages each condensation folds away.
const SUMMARIZE_BATCH: usize = 2;

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            summarize_after: 5,
            summary: SummaryConfig::default(),
        }
    }
}

/// A single conversation: a running hierarchical summary plus the recent
/// verbatim tail.
///
/// Invariant: `recent.len() < config.summarize_after` after every
/// [`Session::push`] — older content lives compressed in `summary`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Session {
    /// Stable session id.
    pub id: String,
    /// Optional user-facing title.
    pub title: String,
    config: SessionConfig,
    /// Compressed semantics of everything already folded away.
    summary: String,
    /// Recent messages, verbatim, oldest first.
    recent: Vec<Message>,
    /// Total messages ever pushed (for UI counters).
    total_messages: usize,
}

impl Session {
    /// Create an empty session.
    pub fn new(id: impl Into<String>, config: SessionConfig) -> Self {
        Self {
            id: id.into(),
            title: String::new(),
            config,
            summary: String::new(),
            recent: Vec::new(),
            total_messages: 0,
        }
    }

    /// The running summary (empty until the first condensation).
    pub fn summary(&self) -> &str {
        &self.summary
    }

    /// The verbatim recent tail, oldest first.
    pub fn recent(&self) -> &[Message] {
        &self.recent
    }

    /// Total messages ever pushed.
    pub fn total_messages(&self) -> usize {
        self.total_messages
    }

    /// Append a message, condensing old context when the threshold is hit.
    pub fn push(&mut self, role: Role, text: &str, embedder: &SharedEmbedder) {
        self.recent.push(Message {
            role,
            text: text.to_owned(),
        });
        self.total_messages += 1;
        if self.title.is_empty() && role == Role::User {
            self.title = text
                .split_whitespace()
                .take(8)
                .collect::<Vec<_>>()
                .join(" ");
        }
        if self.recent.len() >= self.config.summarize_after {
            self.condense(embedder);
        }
    }

    /// Fold the oldest `SUMMARIZE_BATCH` messages into the summary —
    /// *hierarchical* because the previous summary is part of the text being
    /// re-summarized.
    fn condense(&mut self, embedder: &SharedEmbedder) {
        let batch = SUMMARIZE_BATCH.clamp(1, self.recent.len());
        let folded: Vec<Message> = self.recent.drain(..batch).collect();
        let mut material = String::new();
        if !self.summary.is_empty() {
            material.push_str(&self.summary);
            if !material.ends_with('.') {
                material.push('.');
            }
            material.push(' ');
        }
        for m in &folded {
            material.push_str(&m.text);
            if !material.ends_with(['.', '!', '?']) {
                material.push('.');
            }
            material.push(' ');
        }
        self.summary = summarize(&material, embedder, &self.config.summary);
    }

    /// The context to include in the next prompt: the summary (as a
    /// pseudo-turn) followed by the verbatim recent messages.
    pub fn context_turns(&self) -> Vec<Message> {
        let mut out = Vec::with_capacity(self.recent.len() + 1);
        if !self.summary.is_empty() {
            out.push(Message {
                role: Role::Assistant,
                text: format!("(summary of earlier conversation) {}", self.summary),
            });
        }
        out.extend(self.recent.iter().cloned());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedder() -> SharedEmbedder {
        llmms_embed::default_embedder()
    }

    #[test]
    fn title_comes_from_first_user_message() {
        let e = embedder();
        let mut s = Session::new("s1", SessionConfig::default());
        s.push(
            Role::User,
            "What is the capital of France and why is it famous?",
            &e,
        );
        assert_eq!(s.title, "What is the capital of France and why");
    }

    #[test]
    fn recent_stays_below_threshold() {
        let e = embedder();
        let mut s = Session::new("s1", SessionConfig::default());
        for i in 0..20 {
            s.push(Role::User, &format!("Message number {i} about topic."), &e);
        }
        assert!(s.recent().len() < s.config.summarize_after);
        assert_eq!(s.total_messages(), 20);
    }

    #[test]
    fn summary_appears_after_condensation() {
        let e = embedder();
        let mut s = Session::new("s1", SessionConfig::default());
        assert!(s.summary().is_empty());
        for i in 0..6 {
            s.push(
                Role::User,
                &format!("The user asked question {i} about France geography."),
                &e,
            );
        }
        assert!(!s.summary().is_empty());
    }

    #[test]
    fn context_turns_include_summary_then_recent() {
        let e = embedder();
        let mut s = Session::new("s1", SessionConfig::default());
        for i in 0..7 {
            s.push(
                Role::User,
                &format!("Turn {i} about the history of Rome."),
                &e,
            );
        }
        let turns = s.context_turns();
        assert!(turns[0].text.starts_with("(summary"));
        assert_eq!(turns.len(), s.recent().len() + 1);
        // Recent tail is verbatim.
        assert_eq!(turns.last().unwrap().text, s.recent().last().unwrap().text);
    }

    #[test]
    fn summary_retains_early_topic() {
        let e = embedder();
        let mut s = Session::new("s1", SessionConfig::default());
        s.push(
            Role::User,
            "Tell me about the Eiffel Tower in Paris France.",
            &e,
        );
        s.push(
            Role::Assistant,
            "The Eiffel Tower in Paris France was completed in 1889.",
            &e,
        );
        for i in 0..8 {
            s.push(Role::User, &format!("Unrelated follow-up number {i}."), &e);
        }
        // The early Paris topic must survive in the hierarchical summary
        // (it dominates the semantic centroid of the folded turns).
        let all_context = s
            .context_turns()
            .iter()
            .map(|m| m.text.clone())
            .collect::<Vec<_>>()
            .join(" ")
            .to_lowercase();
        assert!(
            all_context.contains("eiffel") || all_context.contains("paris"),
            "context lost the early topic: {all_context}"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let e = embedder();
        let mut s = Session::new("s1", SessionConfig::default());
        s.push(Role::User, "hello there", &e);
        let json = serde_json::to_string(&s).unwrap();
        let back: Session = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, s.id);
        assert_eq!(back.recent().len(), 1);
    }
}
