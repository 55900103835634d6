//! # llmms-core
//!
//! The primary contribution of *LLM-MS: A Multi-Model LLM Search Engine*:
//! dynamic multi-model orchestration with token-budget-aware model selection.
//!
//! Instead of routing a query to one fixed LLM, the orchestrator runs a pool
//! of candidates, continuously scores their **partial outputs** with
//!
//! ```text
//! score = α · cos(query, response) + β · inter-model agreement      (Eq. 6.1)
//! ```
//!
//! and reallocates the token budget λ_max with one of two strategies:
//!
//! * [`config::OuaConfig`] — the **Overperformers–Underperformers Algorithm**
//!   (Algorithm 1): even split, round-robin partials, margin-based pruning of
//!   the worst model and margin-based early return of a finished winner.
//! * [`config::MabConfig`] — the **Multi-Armed Bandit** strategy
//!   (Algorithm 2): UCB1 arm selection per token chunk with exploration
//!   coefficient γ = γ₀·(1 − used/λ_max).
//!
//! ## Example
//!
//! ```
//! use llmms_core::{Orchestrator, OrchestratorConfig, Strategy, OuaConfig};
//! use llmms_models::{KnowledgeEntry, KnowledgeStore, ModelRegistry};
//! use std::sync::Arc;
//!
//! let knowledge = Arc::new(KnowledgeStore::build(
//!     vec![KnowledgeEntry {
//!         id: "q1".into(),
//!         question: "What is the capital of France?".into(),
//!         category: "geography".into(),
//!         golden: "The capital of France is Paris".into(),
//!         correct: vec![],
//!         incorrect: vec!["The capital of France is Lyon".into()],
//!     }],
//!     llmms_embed::default_embedder(),
//! ));
//! let registry = ModelRegistry::evaluation_setup(knowledge);
//! let models = registry.load_all().unwrap();
//!
//! let orchestrator = Orchestrator::new(
//!     llmms_embed::default_embedder(),
//!     OrchestratorConfig::builder()
//!         .strategy(Strategy::Oua(OuaConfig::default()))
//!         .build(),
//! );
//! let result = orchestrator.run(&models, "What is the capital of France?").unwrap();
//! assert!(!result.response().is_empty());
//! ```

#![warn(missing_docs)]

pub mod brownout;
pub mod budget;
mod chaos_tests;
pub mod config;
pub mod deadline;
mod engine;
mod equivalence_tests;
pub mod error;
pub mod events;
mod failure_tests;
mod golden_tests;
mod hybrid;
mod invariant_tests;
mod mab;
pub mod orchestrator;
mod oua;
#[cfg(test)]
mod reference;
pub mod result;
pub mod reward;
pub mod router;
mod runpool;
pub mod scoring;

pub use brownout::{BrownoutConfig, BrownoutController, PressureInputs};
pub use budget::{Lease, TokenBudget};
pub use config::{
    MabConfig, MabSelection, OrchestratorConfig, OrchestratorConfigBuilder, OuaConfig, Strategy,
};
pub use error::OrchestratorError;
pub use events::{EventRecorder, EventSink, OrchestrationEvent};
pub use hybrid::HybridConfig;
pub use llmms_exec::Priority as QueryPriority;
pub use orchestrator::{Orchestrator, QueryOverrides};
pub use result::{ModelOutcome, OrchestrationResult};
pub use reward::{combined_score, inter_model_agreement, score_all, RewardWeights};
pub use router::{RouterConfig, TaskIndex, TaskProfile};
pub use scoring::ScoreCache;
