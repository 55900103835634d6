//! The retrieval pipeline: ingest documents, retrieve top-k context.

use crate::chunker::{chunk, ChunkStrategy};
use crate::parser::{parse, DocumentFormat, ParseError, ParsedDocument};
use llmms_embed::SharedEmbedder;
use llmms_vectordb::{meta, CollectionConfig, Database, DbError, Filter, Record};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Errors from the retriever.
#[derive(Debug, Clone, PartialEq)]
pub enum RagError {
    /// Document parsing failed.
    Parse(ParseError),
    /// Vector store operation failed.
    Db(DbError),
}

impl fmt::Display for RagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RagError::Parse(e) => write!(f, "parse error: {e}"),
            RagError::Db(e) => write!(f, "vector store error: {e}"),
        }
    }
}

impl std::error::Error for RagError {}

impl From<ParseError> for RagError {
    fn from(e: ParseError) -> Self {
        RagError::Parse(e)
    }
}

impl From<DbError> for RagError {
    fn from(e: DbError) -> Self {
        RagError::Db(e)
    }
}

/// A retrieved context fragment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrievedChunk {
    /// Id of the source document.
    pub document_id: String,
    /// Chunk index within the document.
    pub chunk_index: usize,
    /// The chunk text.
    pub text: String,
    /// Cosine similarity to the query.
    pub score: f32,
}

/// The vector-database collection the chunks live in. A durable store
/// names its files after it (`rag-chunks.wal`, `.snap`, `.idx.bin`), so it
/// must not change.
const COLLECTION: &str = "rag-chunks";

/// Configuration of a [`Retriever`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrieverConfig {
    /// Minimum similarity for a chunk to count as relevant context.
    pub min_score: f32,
}

impl Default for RetrieverConfig {
    fn default() -> Self {
        Self { min_score: 0.1 }
    }
}

/// Ingests documents into the vector store and answers top-k context
/// queries — the pipeline of thesis §6.2 (parse → chunk → embed → upsert,
/// then embed query → cosine top-k).
pub struct Retriever {
    db: Arc<Database>,
    embedder: SharedEmbedder,
    config: RetrieverConfig,
    ingested: RwLock<Vec<String>>,
}

impl Retriever {
    /// Create a retriever over `db`, embedding with `embedder`.
    ///
    /// When `db` already holds the chunk collection (e.g. a durable
    /// database recovered via [`Database::open`]), the ingested-document
    /// list is rebuilt from the stored chunk metadata (sorted by id —
    /// original ingestion order does not survive a restart), so previously
    /// ingested documents stay listed and retrievable.
    pub fn new(db: Arc<Database>, embedder: SharedEmbedder, config: RetrieverConfig) -> Self {
        let coll = db.get_or_create(COLLECTION, CollectionConfig::flat(embedder.dim()));
        let mut recovered: Vec<String> = Vec::new();
        for record in coll.read().iter() {
            if let Some(doc) = record.metadata.get("document_id").and_then(|v| v.as_str()) {
                if !recovered.iter().any(|d| d == doc) {
                    recovered.push(doc.to_owned());
                }
            }
        }
        recovered.sort();
        Self {
            db,
            embedder,
            config,
            ingested: RwLock::new(recovered),
        }
    }

    /// Convenience constructor with defaults and a fresh in-memory store.
    pub fn in_memory(embedder: SharedEmbedder) -> Self {
        Self::new(
            Arc::new(Database::new()),
            embedder,
            RetrieverConfig::default(),
        )
    }

    /// The underlying vector database (e.g. to checkpoint or flush a
    /// durable store).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Ids of ingested documents, in ingestion order.
    pub fn documents(&self) -> Vec<String> {
        self.ingested.read().clone()
    }

    /// Parse and ingest a document; returns the number of chunks stored.
    ///
    /// # Errors
    ///
    /// Parse failures and vector-store failures propagate as [`RagError`].
    pub fn ingest_bytes(
        &self,
        document_id: &str,
        bytes: &[u8],
        format: DocumentFormat,
    ) -> Result<usize, RagError> {
        let parsed = parse(bytes, format, document_id)?;
        self.ingest_parsed(document_id, &parsed)
    }

    /// Ingest plain text directly.
    ///
    /// # Errors
    ///
    /// As [`Retriever::ingest_bytes`].
    pub fn ingest_text(&self, document_id: &str, text: &str) -> Result<usize, RagError> {
        self.ingest_bytes(document_id, text.as_bytes(), DocumentFormat::PlainText)
    }

    fn ingest_parsed(&self, document_id: &str, doc: &ParsedDocument) -> Result<usize, RagError> {
        let chunks = chunk(&doc.paragraphs, &ChunkStrategy::default());
        // Embed every chunk *before* taking the collection write lock:
        // embedding is the expensive part of ingestion and holding the lock
        // through it would stall every concurrent `retrieve`.
        let records: Vec<Record> = chunks
            .iter()
            .map(|c| {
                Record::new(
                    format!("{document_id}#{}", c.index),
                    self.embedder.embed(&c.text),
                )
                .with_document(c.text.clone())
                .with_metadata(meta([
                    ("document_id", document_id.into()),
                    ("chunk_index", (c.index as i64).into()),
                    ("title", doc.title.as_str().into()),
                ]))
            })
            .collect();
        let coll = self.db.collection(COLLECTION)?;
        {
            let mut guard = coll.write();
            // Delete-then-upsert under one guard: upserting only over
            // matching ids would leave stale high-index chunks behind when
            // a re-ingested document now yields *fewer* chunks.
            guard.delete_matching(&Filter::eq_str("document_id", document_id))?;
            guard.upsert_batch(records)?;
        }
        let mut ingested = self.ingested.write();
        if !ingested.iter().any(|d| d == document_id) {
            ingested.push(document_id.to_owned());
        }
        Ok(chunks.len())
    }

    /// Remove every chunk of `document_id`. The scan and the deletes run
    /// under one write guard, so a concurrent ingest cannot interleave and
    /// leave orphaned chunks.
    ///
    /// # Errors
    ///
    /// Vector-store failures propagate.
    pub fn remove_document(&self, document_id: &str) -> Result<usize, RagError> {
        let coll = self.db.collection(COLLECTION)?;
        let removed = coll
            .write()
            .delete_matching(&Filter::eq_str("document_id", document_id))?;
        self.ingested.write().retain(|d| d != document_id);
        Ok(removed)
    }

    /// Retrieve the top-`k` chunks for `query`, optionally restricted to one
    /// document. Chunks below `min_score` are dropped.
    ///
    /// # Errors
    ///
    /// Vector-store failures propagate.
    pub fn retrieve(
        &self,
        query: &str,
        k: usize,
        document_id: Option<&str>,
    ) -> Result<Vec<RetrievedChunk>, RagError> {
        if k == 0 {
            return Ok(Vec::new());
        }
        let _span = llmms_obs::span("rag_retrieve");
        let mut tspan = llmms_obs::trace::span_here("rag_retrieve");
        tspan.set_attr("k", k);
        let result = self.retrieve_inner(query, k, document_id);
        match &result {
            Ok(chunks) => tspan.set_attr("hits", chunks.len()),
            Err(e) => {
                tspan.set_status(llmms_obs::SpanStatus::Error);
                tspan.attr_with("error", || e.to_string());
            }
        }
        tspan.end();
        result
    }

    fn retrieve_inner(
        &self,
        query: &str,
        k: usize,
        document_id: Option<&str>,
    ) -> Result<Vec<RetrievedChunk>, RagError> {
        let coll = self.db.collection(COLLECTION)?;
        let guard = coll.read();
        if guard.is_empty() {
            return Ok(Vec::new());
        }
        let embedding = self.embedder.embed(query);
        let filter = document_id.map(|d| Filter::eq_str("document_id", d));
        let hits = guard.query(&embedding, k, filter.as_ref())?;
        Ok(hits
            .into_iter()
            .filter(|h| h.score >= self.config.min_score)
            .map(|h| RetrievedChunk {
                document_id: h
                    .metadata
                    .get("document_id")
                    .and_then(|v| v.as_str())
                    .unwrap_or_default()
                    .to_owned(),
                chunk_index: h
                    .metadata
                    .get("chunk_index")
                    .and_then(|v| v.as_i64())
                    .and_then(|i| usize::try_from(i).ok())
                    .unwrap_or(0),
                text: h.document.unwrap_or_default(),
                score: h.score,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn retriever() -> Retriever {
        let r = Retriever::in_memory(llmms_embed::default_embedder());
        r.ingest_text(
            "geography",
            "The capital of France is Paris. Paris sits on the Seine river.\n\n\
             The capital of Japan is Tokyo. Tokyo is the most populous metropolis.",
        )
        .unwrap();
        r.ingest_text(
            "biology",
            "Photosynthesis converts sunlight into chemical energy in plants.\n\n\
             Mitochondria are the powerhouse of the cell.",
        )
        .unwrap();
        r
    }

    #[test]
    fn ingest_counts_chunks() {
        let r = Retriever::in_memory(llmms_embed::default_embedder());
        let n = r
            .ingest_text("d", "One sentence. Another sentence.")
            .unwrap();
        assert!(n >= 1);
        assert_eq!(r.documents(), ["d"]);
    }

    #[test]
    fn retrieves_relevant_chunk_first() {
        let r = retriever();
        let hits = r
            .retrieve("what is the capital of france", 2, None)
            .unwrap();
        assert!(!hits.is_empty());
        assert!(
            hits[0].text.to_lowercase().contains("paris"),
            "top hit: {:?}",
            hits[0].text
        );
        assert_eq!(hits[0].document_id, "geography");
    }

    #[test]
    fn document_filter_restricts_results() {
        let r = retriever();
        let hits = r
            .retrieve("what is the capital of france", 5, Some("biology"))
            .unwrap();
        assert!(hits.iter().all(|h| h.document_id == "biology"));
    }

    #[test]
    fn k_zero_returns_empty() {
        let r = retriever();
        assert!(r.retrieve("anything", 0, None).unwrap().is_empty());
    }

    #[test]
    fn empty_store_returns_empty() {
        let r = Retriever::in_memory(llmms_embed::default_embedder());
        assert!(r.retrieve("anything", 3, None).unwrap().is_empty());
    }

    #[test]
    fn min_score_filters_irrelevant() {
        let db = Arc::new(Database::new());
        let r = Retriever::new(
            db,
            llmms_embed::default_embedder(),
            RetrieverConfig {
                min_score: 0.9, // effectively exact-match only
            },
        );
        r.ingest_text("d", "The capital of France is Paris.")
            .unwrap();
        let hits = r
            .retrieve("completely unrelated quantum chromodynamics", 3, None)
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn remove_document_deletes_chunks() {
        let r = retriever();
        let removed = r.remove_document("geography").unwrap();
        assert!(removed >= 1);
        let hits = r
            .retrieve("what is the capital of france", 3, None)
            .unwrap();
        assert!(hits.iter().all(|h| h.document_id != "geography"));
        assert_eq!(r.documents(), ["biology"]);
    }

    #[test]
    fn reingesting_same_document_overwrites() {
        let r = Retriever::in_memory(llmms_embed::default_embedder());
        r.ingest_text("d", "Old content about cats.").unwrap();
        r.ingest_text("d", "New content about dogs.").unwrap();
        let hits = r.retrieve("dogs", 5, None).unwrap();
        assert!(hits.iter().any(|h| h.text.contains("dogs")));
    }

    #[test]
    fn reingesting_with_fewer_chunks_leaves_no_stale_chunks() {
        // Regression: the old ingest path upserted over matching ids only,
        // so re-ingesting a document whose new chunking yields fewer chunks
        // left the old high-index chunks alive and retrievable.
        let r = Retriever::in_memory(llmms_embed::default_embedder());
        let many: String = (0..8)
            .map(|i| format!("Unique stale paragraph number {i} about zebras and canyon {i}.\n\n"))
            .collect();
        let n_many = r.ingest_text("doc", &many).unwrap();
        assert!(n_many > 1, "setup needs a multi-chunk document");
        let n_few = r.ingest_text("doc", "One short replacement.").unwrap();
        assert!(n_few < n_many);

        // Count what is actually stored for the document.
        let db = &r.db;
        let coll = db.collection(COLLECTION).unwrap();
        let stored = coll
            .read()
            .iter()
            .filter(|rec| {
                rec.metadata
                    .get("document_id")
                    .and_then(|v| v.as_str())
                    .is_some_and(|d| d == "doc")
            })
            .count();
        assert_eq!(stored, n_few, "stale chunks survived re-ingestion");

        // The shrink-then-retrieve round-trip: stale content must be gone.
        let hits = r
            .retrieve("zebras canyon stale paragraph", 10, None)
            .unwrap();
        assert!(
            hits.iter().all(|h| !h.text.contains("zebras")),
            "retrieved a stale chunk: {hits:?}"
        );
        // And the ingested list must not carry duplicates.
        assert_eq!(r.documents(), ["doc"]);
    }

    #[test]
    fn chunk_index_roundtrips_through_metadata() {
        let r = Retriever::in_memory(llmms_embed::default_embedder());
        r.ingest_text(
            "multi",
            "First paragraph about alpine glaciers.\n\n\
             Second paragraph about desert dunes.\n\n\
             Third paragraph about ocean trenches.",
        )
        .unwrap();
        let hits = r.retrieve("desert dunes", 3, None).unwrap();
        assert!(!hits.is_empty());
        for h in &hits {
            // Every retrieved chunk's index must point at the stored record
            // carrying the same text — the i64 metadata survived intact.
            let db = &r.db;
            let coll = db.collection(COLLECTION).unwrap();
            let guard = coll.read();
            let rec = guard
                .get(&format!("{}#{}", h.document_id, h.chunk_index))
                .expect("chunk_index must address a live record");
            assert_eq!(rec.document.as_deref(), Some(h.text.as_str()));
        }
    }

    #[test]
    fn durable_retriever_survives_reopen_with_identical_results() {
        use llmms_vectordb::StorageConfig;
        let dir = std::env::temp_dir().join(format!(
            "llmms-rag-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let queries = ["capital of france", "photosynthesis energy", "powerhouse"];

        let before: Vec<Vec<RetrievedChunk>> = {
            let db = Arc::new(
                Database::open_with(
                    &dir,
                    StorageConfig {
                        fsync_every: 2,
                        snapshot_every: 3, // force snapshot + WAL-suffix mix
                    },
                )
                .unwrap(),
            );
            let r = Retriever::new(
                db,
                llmms_embed::default_embedder(),
                RetrieverConfig::default(),
            );
            r.ingest_text(
                "geography",
                "The capital of France is Paris. Paris sits on the Seine river.\n\n\
                 The capital of Japan is Tokyo.",
            )
            .unwrap();
            r.ingest_text(
                "biology",
                "Photosynthesis converts sunlight into chemical energy.\n\n\
                 Mitochondria are the powerhouse of the cell.",
            )
            .unwrap();
            // Mutate after the last snapshot so reopen exercises WAL replay.
            r.ingest_text("geography", "The capital of France is Paris, on the Seine.")
                .unwrap();
            queries
                .iter()
                .map(|q| r.retrieve(q, 3, None).unwrap())
                .collect()
        };

        let db = Arc::new(Database::open(&dir).unwrap());
        let r = Retriever::new(
            db,
            llmms_embed::default_embedder(),
            RetrieverConfig::default(),
        );
        assert_eq!(r.documents(), ["biology", "geography"]);
        for (q, expected) in queries.iter().zip(&before) {
            assert_eq!(&r.retrieve(q, 3, None).unwrap(), expected, "query {q:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn markdown_ingestion_via_bytes() {
        let r = Retriever::in_memory(llmms_embed::default_embedder());
        let n = r
            .ingest_bytes(
                "md",
                b"# Title\n\nThe mitochondria is the powerhouse of the cell.",
                DocumentFormat::Markdown,
            )
            .unwrap();
        assert!(n >= 1);
        let hits = r.retrieve("mitochondria powerhouse", 1, None).unwrap();
        assert!(!hits.is_empty());
    }
}
