//! The high-level [`Platform`] facade: registry + orchestrator + RAG +
//! sessions wired together the way the thesis's layered architecture
//! composes them (hardware → storage → computation → application).

use llmms_core::{
    OrchestrationResult, Orchestrator, OrchestratorConfig, OrchestratorError, Strategy,
};
use llmms_embed::SharedEmbedder;
use llmms_models::{KnowledgeEntry, KnowledgeStore, ModelError, ModelRegistry, SharedModel};
use llmms_rag::RetrieverConfig;
use llmms_rag::{HistoryTurn, PromptBuilder, PromptConfig, RagError, Retriever};
use llmms_session::{MemoryGraph, MemoryGraphConfig, Recalled, Role, SessionError, SessionStore};
use llmms_vectordb::{Database, DbError, StorageConfig};
use parking_lot::RwLock;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Errors surfaced by the platform facade.
#[derive(Debug)]
pub enum PlatformError {
    /// Model registry failure.
    Model(ModelError),
    /// Orchestration failure.
    Orchestrator(OrchestratorError),
    /// RAG pipeline failure.
    Rag(RagError),
    /// Session lookup failure.
    Session(SessionError),
    /// Durable vector-store failure (open/recovery/checkpoint).
    Storage(DbError),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Model(e) => write!(f, "model error: {e}"),
            PlatformError::Orchestrator(e) => write!(f, "orchestrator error: {e}"),
            PlatformError::Rag(e) => write!(f, "rag error: {e}"),
            PlatformError::Session(e) => write!(f, "session error: {e}"),
            PlatformError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<ModelError> for PlatformError {
    fn from(e: ModelError) -> Self {
        PlatformError::Model(e)
    }
}

impl From<OrchestratorError> for PlatformError {
    fn from(e: OrchestratorError) -> Self {
        PlatformError::Orchestrator(e)
    }
}

impl From<RagError> for PlatformError {
    fn from(e: RagError) -> Self {
        PlatformError::Rag(e)
    }
}

impl From<SessionError> for PlatformError {
    fn from(e: SessionError) -> Self {
        PlatformError::Session(e)
    }
}

impl From<DbError> for PlatformError {
    fn from(e: DbError) -> Self {
        PlatformError::Storage(e)
    }
}

/// Options for one [`Platform::ask_with`] call.
#[derive(Debug, Clone)]
pub struct AskOptions {
    /// Session to read context from and record the turn into.
    pub session_id: Option<String>,
    /// How many RAG context chunks to retrieve (0 disables retrieval).
    pub top_k: usize,
    /// Restrict retrieval to one ingested document.
    pub document_id: Option<String>,
    /// How many past exchanges to recall from the cross-session memory
    /// graph into the prompt (0 disables — the §9.5 "contextual memory
    /// graphs" extension).
    pub recall_memory: usize,
    /// Client deadline budget in milliseconds. Tightens — never loosens —
    /// the configured query deadline, and the remaining budget propagates
    /// to federated peers.
    pub deadline_ms: Option<u64>,
    /// Brownout degradation level chosen by the serving layer (0 = none).
    /// Level ≥ 3 additionally skips RAG retrieval here.
    pub brownout_level: u8,
    /// Tenant this query is billed to in the cross-query scheduler
    /// (`None` → the shared `"default"` tenant).
    pub tenant: Option<String>,
    /// Scheduler priority class: `High` jumps the EDF queue within the
    /// tenant's share, `Batch` yields to interactive traffic.
    pub priority: llmms_core::QueryPriority,
}

impl Default for AskOptions {
    fn default() -> Self {
        Self {
            session_id: None,
            top_k: 3,
            document_id: None,
            recall_memory: 0,
            deadline_ms: None,
            brownout_level: 0,
            tenant: None,
            priority: llmms_core::QueryPriority::default(),
        }
    }
}

/// The assembled multi-model querying platform.
pub struct Platform {
    registry: ModelRegistry,
    models: Vec<SharedModel>,
    embedder: SharedEmbedder,
    orchestrator: RwLock<Orchestrator>,
    retriever: Retriever,
    sessions: SessionStore,
    prompt_config: PromptConfig,
    /// Model names excluded from the pool by NL directives ("avoid llama").
    excluded: RwLock<Vec<String>>,
    /// Preferred model for `Strategy::Single` ("prioritize qwen").
    preferred: RwLock<Option<String>>,
    /// Cross-session memory of past exchanges (§9.5 memory graphs).
    memory: RwLock<MemoryGraph>,
}

impl Platform {
    /// Start building a platform.
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::default()
    }

    /// A ready-to-use platform over the paper's three evaluation models,
    /// preloaded with the synthetic TruthfulQA knowledge — the configuration
    /// the examples and the demo server use.
    pub fn evaluation_default() -> Self {
        let knowledge =
            llmms_eval::generate(&llmms_eval::GeneratorConfig::default()).to_knowledge();
        Self::builder()
            .knowledge(knowledge)
            .build()
            .expect("default platform must assemble")
    }

    /// The loaded model pool, sorted by name.
    pub fn models(&self) -> &[SharedModel] {
        &self.models
    }

    /// The pool after applying any active exclusions — what queries
    /// actually run against. Never empty: when every model is excluded the
    /// exclusions are ignored.
    pub fn active_pool(&self) -> Vec<SharedModel> {
        let excluded = self.excluded.read();
        let pool: Vec<SharedModel> = self
            .models
            .iter()
            .filter(|m| !excluded.iter().any(|e| e == m.name()))
            .cloned()
            .collect();
        if pool.is_empty() {
            self.models.clone()
        } else {
            pool
        }
    }

    /// Apply a natural-language configuration instruction (the §9.5
    /// extension): strategy switches, budget/word caps, model exclusions
    /// and preferences. Returns the parsed directives — including any
    /// clauses the interpreter did not understand — so callers can echo
    /// them back to the user.
    pub fn instruct(&self, instruction: &str) -> crate::nlconfig::ConfigDirectives {
        let names: Vec<String> = self.models.iter().map(|m| m.name().to_owned()).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let directives = crate::nlconfig::interpret(instruction, &name_refs);

        let mut config = self.orchestrator_config();
        directives.apply_to(&mut config);
        self.set_orchestrator_config(config);

        if !directives.avoid_models.is_empty() {
            let mut excluded = self.excluded.write();
            for m in &directives.avoid_models {
                if !excluded.contains(m) {
                    excluded.push(m.clone());
                }
            }
        }
        if directives.avoid_slow {
            if let Some(slowest) = self
                .models
                .iter()
                .min_by(|a, b| {
                    a.info()
                        .decode_tokens_per_second
                        .partial_cmp(&b.info().decode_tokens_per_second)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|m| m.name().to_owned())
            {
                let mut excluded = self.excluded.write();
                if !excluded.contains(&slowest) {
                    excluded.push(slowest);
                }
            }
        }
        if let Some(model) = &directives.prefer_model {
            *self.preferred.write() = Some(model.clone());
        }
        directives
    }

    /// Clear any pool exclusions and preferences set by [`Platform::instruct`].
    pub fn reset_pool(&self) {
        self.excluded.write().clear();
        *self.preferred.write() = None;
    }

    /// Recall past exchanges related to `query` from the cross-session
    /// memory graph (recorded automatically for session-threaded asks).
    pub fn recall_related(&self, query: &str, k: usize) -> Vec<(String, String, String)> {
        self.memory
            .read()
            .recall(query, k)
            .into_iter()
            .map(|hit: Recalled<'_>| {
                (
                    hit.node.session_id.clone(),
                    hit.node.question.clone(),
                    hit.node.answer.clone(),
                )
            })
            .collect()
    }

    /// The model registry (load/unload, hardware report).
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The session store.
    pub fn sessions(&self) -> &SessionStore {
        &self.sessions
    }

    /// The RAG retriever.
    pub fn retriever(&self) -> &Retriever {
        &self.retriever
    }

    /// The vector database backing the retriever.
    pub fn vector_db(&self) -> &Arc<Database> {
        self.retriever.database()
    }

    /// Whether ingested documents persist across restarts (the platform
    /// was built with [`PlatformBuilder::persist_path`]).
    pub fn is_durable(&self) -> bool {
        self.vector_db().is_durable()
    }

    /// Snapshot the durable vector store and truncate its write-ahead
    /// logs. No-op on an in-memory platform.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Storage`] on I/O failure.
    pub fn checkpoint_storage(&self) -> Result<(), PlatformError> {
        Ok(self.vector_db().checkpoint()?)
    }

    /// The embedder shared across the platform.
    pub fn embedder(&self) -> &SharedEmbedder {
        &self.embedder
    }

    /// Current orchestrator configuration.
    pub fn orchestrator_config(&self) -> OrchestratorConfig {
        self.orchestrator.read().config().clone()
    }

    /// Swap the orchestration strategy/settings (the settings panel).
    pub fn set_orchestrator_config(&self, config: OrchestratorConfig) {
        self.orchestrator.write().set_config(config);
    }

    /// Ingest a document for retrieval-augmented answers.
    ///
    /// # Errors
    ///
    /// RAG pipeline failures propagate.
    pub fn ingest_document(&self, id: &str, text: &str) -> Result<usize, PlatformError> {
        Ok(self.retriever.ingest_text(id, text)?)
    }

    /// Ask with default options (RAG top-3, no session).
    ///
    /// # Errors
    ///
    /// See [`Platform::ask_with`].
    pub fn ask(&self, question: &str) -> Result<OrchestrationResult, PlatformError> {
        self.ask_with(question, &AskOptions::default())
    }

    /// Ask a question through the full query lifecycle of thesis §6.1:
    /// retrieve context → assemble session history → build the prompt →
    /// orchestrate the model pool → record the turn.
    ///
    /// # Errors
    ///
    /// Propagates RAG, session, and orchestration failures.
    pub fn ask_with(
        &self,
        question: &str,
        options: &AskOptions,
    ) -> Result<OrchestrationResult, PlatformError> {
        self.ask_inner(question, options, None)
    }

    /// Like [`Platform::ask_with`], forwarding live orchestration events
    /// into `sink` (the server's SSE feed).
    ///
    /// # Errors
    ///
    /// As [`Platform::ask_with`].
    pub fn ask_streaming(
        &self,
        question: &str,
        options: &AskOptions,
        sink: crossbeam_channel::Sender<llmms_core::OrchestrationEvent>,
    ) -> Result<OrchestrationResult, PlatformError> {
        self.ask_inner(question, options, Some(sink))
    }

    fn ask_inner(
        &self,
        question: &str,
        options: &AskOptions,
        sink: Option<crossbeam_channel::Sender<llmms_core::OrchestrationEvent>>,
    ) -> Result<OrchestrationResult, PlatformError> {
        // Register this query with the cross-query scheduler before
        // retrieval so segment-search and embed jobs are billed to the
        // tenant too, not just generation rounds. The ambient scope makes
        // the orchestrator reuse this handle instead of registering its
        // own.
        let _sched_scope = llmms_exec::enter_query(
            options.tenant.as_deref(),
            options.priority,
            options
                .deadline_ms
                .map(|ms| std::time::Instant::now() + std::time::Duration::from_millis(ms)),
        );

        // Brownout level 3 skips retrieval entirely: under that much
        // pressure the embedding + search cost buys too little.
        let context = if options.top_k > 0 && options.brownout_level < 3 {
            self.retriever
                .retrieve(question, options.top_k, options.document_id.as_deref())?
        } else {
            Vec::new()
        };

        let mut history: Vec<HistoryTurn> = Vec::new();
        // Cross-session memory recall comes first (oldest context first).
        if options.recall_memory > 0 {
            let memory = self.memory.read();
            for hit in memory.recall(question, options.recall_memory) {
                history.push(HistoryTurn {
                    role: "assistant".to_owned(),
                    text: format!(
                        "(remembered from {}) Q: {} A: {}",
                        hit.node.session_id, hit.node.question, hit.node.answer
                    ),
                });
            }
        }
        if let Some(id) = &options.session_id {
            let session = self.sessions.get(id)?;
            for m in session.read().context_turns() {
                history.push(HistoryTurn {
                    role: m.role.as_str().to_owned(),
                    text: m.text,
                });
            }
        }

        let prompt = PromptBuilder::new(self.prompt_config.clone())
            .question(question)
            .context(context)
            .history(history)
            .build();

        let result = {
            let orchestrator = self.orchestrator.read();
            let active = self.active_pool();
            let pool: Vec<SharedModel> = match orchestrator.config().strategy {
                Strategy::Single => {
                    let preferred = self.preferred.read();
                    let chosen = preferred
                        .as_deref()
                        .and_then(|name| active.iter().find(|m| m.name() == name))
                        .unwrap_or(&active[0]);
                    vec![chosen.clone()]
                }
                _ => active,
            };
            let overrides = llmms_core::QueryOverrides {
                deadline_ms: options.deadline_ms,
                brownout_level: options.brownout_level,
                tenant: options.tenant.clone(),
                priority: options.priority,
            };
            match sink {
                Some(sink) => orchestrator.run_streaming_with(&pool, &prompt, sink, overrides)?,
                None => orchestrator.run_with(&pool, &prompt, overrides)?,
            }
        };

        if let Some(id) = &options.session_id {
            let session = self.sessions.get(id)?;
            let mut guard = session.write();
            guard.push(Role::User, question, &self.embedder);
            guard.push(Role::Assistant, result.response(), &self.embedder);
            // Feed the exchange into the cross-session memory graph.
            self.memory.write().record(id, question, result.response());
        }
        Ok(result)
    }
}

/// Builder for [`Platform`].
#[derive(Default)]
pub struct PlatformBuilder {
    knowledge: Vec<KnowledgeEntry>,
    config: OrchestratorConfig,
    embedder: Option<SharedEmbedder>,
    prompt_config: PromptConfig,
    persist_path: Option<PathBuf>,
    storage_config: StorageConfig,
    extra_models: Vec<SharedModel>,
}

impl PlatformBuilder {
    /// Seed the models' shared knowledge.
    #[must_use]
    pub fn knowledge(mut self, knowledge: Vec<KnowledgeEntry>) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// Set the orchestrator configuration.
    #[must_use]
    pub fn orchestrator_config(mut self, config: OrchestratorConfig) -> Self {
        self.config = config;
        self
    }

    /// Use a custom embedder.
    #[must_use]
    pub fn embedder(mut self, embedder: SharedEmbedder) -> Self {
        self.embedder = Some(embedder);
        self
    }

    /// Use a custom prompt template.
    #[must_use]
    pub fn prompt_config(mut self, prompt_config: PromptConfig) -> Self {
        self.prompt_config = prompt_config;
        self
    }

    /// Persist the RAG vector store under `path` (WAL + snapshots).
    /// Documents ingested through the platform survive restarts; on build,
    /// any store already at `path` is recovered.
    #[must_use]
    pub fn persist_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist_path = Some(path.into());
        self
    }

    /// Fsync the write-ahead log every `n` appends (`0` = never fsync,
    /// `1` = every append). Only meaningful together with
    /// [`PlatformBuilder::persist_path`].
    #[must_use]
    pub fn fsync_every(mut self, n: usize) -> Self {
        self.storage_config.fsync_every = n;
        self
    }

    /// Snapshot + truncate the WAL automatically every `n` appends
    /// (`0` = only on explicit [`Platform::checkpoint_storage`]). Only
    /// meaningful together with [`PlatformBuilder::persist_path`].
    #[must_use]
    pub fn snapshot_every(mut self, n: u64) -> Self {
        self.storage_config.snapshot_every = n;
        self
    }

    /// Append custom models — chaos-wrapped arms, federated
    /// [`RemoteModel`](llmms_server::RemoteModel) adapters — to the
    /// evaluation pool.
    #[must_use]
    pub fn extra_models(mut self, models: Vec<SharedModel>) -> Self {
        self.extra_models = models;
        self
    }

    /// Assemble the platform: build the knowledge store, register and load
    /// the three evaluation models, wire the retriever and session store.
    ///
    /// # Errors
    ///
    /// Model-loading failures propagate.
    pub fn build(self) -> Result<Platform, PlatformError> {
        let embedder = self.embedder.unwrap_or_else(llmms_embed::default_embedder);
        let embedder2 = Arc::clone(&embedder);
        let knowledge = Arc::new(KnowledgeStore::build(self.knowledge, Arc::clone(&embedder)));
        let registry = ModelRegistry::evaluation_setup(knowledge);
        let mut models = registry.load_all()?;
        models.extend(self.extra_models);
        let retriever = match &self.persist_path {
            Some(path) => {
                let db = Arc::new(Database::open_with(path, self.storage_config)?);
                Retriever::new(db, Arc::clone(&embedder), RetrieverConfig::default())
            }
            None => Retriever::in_memory(Arc::clone(&embedder)),
        };
        let orchestrator = Orchestrator::new(Arc::clone(&embedder), self.config);
        Ok(Platform {
            registry,
            models,
            embedder,
            orchestrator: RwLock::new(orchestrator),
            retriever,
            sessions: SessionStore::default(),
            prompt_config: self.prompt_config,
            excluded: RwLock::new(Vec::new()),
            preferred: RwLock::new(None),
            memory: RwLock::new(MemoryGraph::new(
                Arc::clone(&embedder2),
                MemoryGraphConfig::default(),
            )),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmms_core::OuaConfig;

    fn platform() -> Platform {
        Platform::evaluation_default()
    }

    #[test]
    fn default_platform_answers() {
        let p = platform();
        let r = p.ask("What is the capital of France?").unwrap();
        assert!(!r.response().is_empty());
        assert_eq!(p.models().len(), 3);
    }

    #[test]
    fn session_records_turns() {
        let p = platform();
        let session = p.sessions().create();
        let id = session.read().id.clone();
        let options = AskOptions {
            session_id: Some(id.clone()),
            ..Default::default()
        };
        p.ask_with("What is the capital of France?", &options)
            .unwrap();
        assert_eq!(session.read().total_messages(), 2);
        let unknown = AskOptions {
            session_id: Some("missing".into()),
            ..Default::default()
        };
        assert!(matches!(
            p.ask_with("q", &unknown),
            Err(PlatformError::Session(_))
        ));
    }

    #[test]
    fn rag_grounding_flows_into_answers() {
        let p = Platform::builder().build().unwrap(); // no knowledge at all
        p.ingest_document(
            "facts",
            "The capital of the fictional land of Zorblax is the crystal city of Vantar.",
        )
        .unwrap();
        let r = p.ask("What is the capital of Zorblax?").unwrap();
        // Models know nothing, but the prompt will carry the retrieved
        // context; the refusal/hedge answer is still a valid response.
        assert!(!r.response().is_empty());
    }

    #[test]
    fn strategy_switch_applies() {
        let p = platform();
        let mut cfg = p.orchestrator_config();
        cfg.strategy = Strategy::Single;
        p.set_orchestrator_config(cfg);
        let r = p.ask("What is the capital of France?").unwrap();
        assert_eq!(r.strategy, "single");
        let mut cfg = p.orchestrator_config();
        cfg.strategy = Strategy::Oua(OuaConfig::default());
        p.set_orchestrator_config(cfg);
        let r = p.ask("What is the capital of France?").unwrap();
        assert_eq!(r.strategy, "LLM-MS OUA");
    }

    #[test]
    fn persisted_platform_recovers_ingested_documents() {
        let dir = std::env::temp_dir().join(format!(
            "llmms-platform-persist-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        {
            let p = Platform::builder()
                .persist_path(&dir)
                .fsync_every(1)
                .build()
                .unwrap();
            assert!(p.is_durable());
            p.ingest_document("zorblax", "The capital of Zorblax is Vantar.")
                .unwrap();
            p.checkpoint_storage().unwrap();
        }
        let p = Platform::builder().persist_path(&dir).build().unwrap();
        assert_eq!(p.retriever().documents(), ["zorblax"]);
        let hits = p
            .retriever()
            .retrieve("capital of Zorblax", 1, None)
            .unwrap();
        assert!(hits[0].text.contains("Vantar"), "hits: {hits:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_platform_is_not_durable() {
        let p = Platform::builder().build().unwrap();
        assert!(!p.is_durable());
        p.checkpoint_storage().unwrap(); // no-op, must not fail
    }

    #[test]
    fn top_k_zero_disables_retrieval() {
        let p = platform();
        let r = p
            .ask_with(
                "What is the capital of France?",
                &AskOptions {
                    top_k: 0,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!r.response().is_empty());
    }
}

#[cfg(test)]
mod nl_tests {
    use super::*;

    #[test]
    fn instruct_switches_strategy_and_budget() {
        let p = Platform::evaluation_default();
        let d = p.instruct("use the bandit, budget 300 tokens");
        assert!(d.unrecognized.is_empty());
        let cfg = p.orchestrator_config();
        assert!(matches!(cfg.strategy, Strategy::Mab(_)));
        assert_eq!(cfg.token_budget, 300);
    }

    #[test]
    fn instruct_excludes_models_from_the_pool() {
        let p = Platform::evaluation_default();
        p.instruct("avoid llama");
        let pool: Vec<String> = p
            .active_pool()
            .iter()
            .map(|m| m.name().to_owned())
            .collect();
        assert_eq!(pool, ["mistral-7b", "qwen2-7b"]);
        let r = p.ask("What is the capital of France?").unwrap();
        assert!(r.outcomes.iter().all(|o| o.model != "llama3-8b"));
        p.reset_pool();
        assert_eq!(p.active_pool().len(), 3);
    }

    #[test]
    fn avoid_slow_drops_the_slowest_model() {
        let p = Platform::evaluation_default();
        p.instruct("avoid slow models");
        let pool: Vec<String> = p
            .active_pool()
            .iter()
            .map(|m| m.name().to_owned())
            .collect();
        // llama3-8b has the lowest decode speed of the three profiles.
        assert!(!pool.contains(&"llama3-8b".to_owned()), "pool: {pool:?}");
    }

    #[test]
    fn prefer_routes_single_mode() {
        let p = Platform::evaluation_default();
        p.instruct("prioritize qwen");
        let r = p.ask("What is the capital of France?").unwrap();
        assert_eq!(r.strategy, "single");
        assert_eq!(r.best_outcome().model, "qwen2-7b");
    }

    #[test]
    fn excluding_everything_falls_back_to_full_pool() {
        let p = Platform::evaluation_default();
        p.instruct("avoid llama");
        p.instruct("avoid mistral");
        p.instruct("avoid qwen");
        assert_eq!(
            p.active_pool().len(),
            3,
            "exclusions ignored when pool would be empty"
        );
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;

    #[test]
    fn session_exchanges_feed_the_memory_graph() {
        let p = Platform::evaluation_default();
        let session = p.sessions().create();
        let sid = session.read().id.clone();
        let options = AskOptions {
            session_id: Some(sid.clone()),
            ..Default::default()
        };
        p.ask_with("What is the capital of France?", &options)
            .unwrap();
        p.ask_with("How long is a goldfish's memory?", &options)
            .unwrap();

        let related = p.recall_related("remind me about france's capital", 1);
        assert_eq!(related.len(), 1);
        assert!(related[0].1.contains("France"), "recalled: {related:?}");
        assert_eq!(related[0].0, sid);
    }

    #[test]
    fn recall_memory_option_injects_past_exchanges() {
        let p = Platform::evaluation_default();
        let s1 = p.sessions().create().read().id.clone();
        p.ask_with(
            "What is the capital of France?",
            &AskOptions {
                session_id: Some(s1),
                ..Default::default()
            },
        )
        .unwrap();

        // A brand-new session with memory recall enabled: the prompt carries
        // the remembered exchange, and the query still succeeds.
        let s2 = p.sessions().create().read().id.clone();
        let r = p
            .ask_with(
                "What did we say about the capital of France?",
                &AskOptions {
                    session_id: Some(s2),
                    recall_memory: 2,
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(!r.response().is_empty());
    }

    #[test]
    fn non_session_asks_do_not_pollute_memory() {
        let p = Platform::evaluation_default();
        p.ask("What is the capital of France?").unwrap();
        assert!(p.recall_related("france", 1).is_empty());
    }
}
