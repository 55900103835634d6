//! # llmms — LLM-MS: A Multi-Model LLM Search Engine (Rust reproduction)
//!
//! Facade crate re-exporting the whole workspace under one name, the way a
//! downstream user would depend on the platform:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`core`] | `llmms-core` | OUA / MAB orchestration (the paper's contribution) |
//! | [`models`] | `llmms-models` | simulated LLM runtime (Ollama substitute) |
//! | [`embed`] | `llmms-embed` | deterministic text embeddings |
//! | [`vectordb`] | `llmms-vectordb` | embedded vector database (ChromaDB substitute) |
//! | [`rag`] | `llmms-rag` | retrieval-augmented generation pipeline |
//! | [`session`] | `llmms-session` | sessions + hierarchical summarization |
//! | [`tokenizer`] | `llmms-embed` | text normalization and F1 word tokens |
//! | [`eval`] | `llmms-eval` | TruthfulQA-style benchmark + §8 harness |
//! | [`server`] | `llmms-server` | HTTP/SSE application layer |
//!
//! ## Quickstart
//!
//! ```
//! use llmms::platform::Platform;
//!
//! let platform = Platform::evaluation_default();
//! let answer = platform.ask("What is the capital of France?").unwrap();
//! assert!(!answer.response().is_empty());
//! ```

#![warn(missing_docs)]

pub use llmms_core as core;
pub use llmms_embed as embed;
pub use llmms_embed::tokenizer;
pub use llmms_eval as eval;
pub use llmms_exec as exec;
pub use llmms_models as models;
pub use llmms_obs as obs;
pub use llmms_rag as rag;
pub use llmms_server as server;
pub use llmms_session as session;
pub use llmms_vectordb as vectordb;

/// Re-export of the channel crate: its `Sender<OrchestrationEvent>` is an
/// [`core::EventSink`], so a caller of the streaming APIs
/// ([`Platform::ask_streaming`], `Orchestrator::run_streaming_with`) can
/// collect the events on another thread.
pub use crossbeam_channel;

pub mod nlconfig;
pub mod platform;
mod service_impl;

pub use platform::{Platform, PlatformBuilder, PlatformError};
