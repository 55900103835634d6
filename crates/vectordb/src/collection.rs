//! A named collection of embedded records — the unit of storage and query,
//! mirroring ChromaDB's `Collection`.

use crate::error::DbError;
use crate::filter::Filter;
use crate::index::{HnswConfig, IndexKind, InternalId, VectorIndex};
use crate::metadata::{MetaValue, Metadata};
use crate::persist::{self, Snapshot};
use crate::segment::{SegmentConfig, SegmentedIndex};
use crate::wal::{CollectionStorage, WalOp};
use llmms_embed::{Embedding, Metric};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;

/// Configuration a collection is created with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionConfig {
    /// Embedding dimensionality every record must match.
    pub dim: usize,
    /// Similarity metric for queries.
    pub metric: Metric,
    /// Index implementation.
    pub index: IndexKind,
    /// HNSW parameters (ignored for [`IndexKind::Flat`]).
    pub hnsw: HnswConfig,
    /// Sealed-segment knobs (see [`SegmentConfig`]).
    #[serde(default)]
    pub segment: SegmentConfig,
}

impl CollectionConfig {
    /// A flat (exact) collection with cosine similarity — the platform
    /// default, matching the thesis's ChromaDB configuration.
    pub fn flat(dim: usize) -> Self {
        Self {
            dim,
            metric: Metric::Cosine,
            index: IndexKind::Flat,
            hnsw: HnswConfig::default(),
            segment: SegmentConfig::default(),
        }
    }

    /// An HNSW-indexed collection with cosine similarity.
    pub fn hnsw(dim: usize) -> Self {
        Self {
            index: IndexKind::Hnsw,
            ..Self::flat(dim)
        }
    }
}

/// A stored record: id, vector, optional source text, metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// User-facing identifier, unique within the collection.
    pub id: String,
    /// The record's embedding (dimension fixed by the collection).
    pub embedding: Embedding,
    /// Optional raw document text the embedding was computed from.
    pub document: Option<String>,
    /// Attached metadata, queryable through [`Filter`]s.
    pub metadata: Metadata,
}

impl Record {
    /// Convenience constructor.
    pub fn new(id: impl Into<String>, embedding: Embedding) -> Self {
        Self {
            id: id.into(),
            embedding,
            document: None,
            metadata: Metadata::new(),
        }
    }

    /// Attach document text.
    #[must_use]
    pub fn with_document(mut self, doc: impl Into<String>) -> Self {
        self.document = Some(doc.into());
        self
    }

    /// Attach metadata.
    #[must_use]
    pub fn with_metadata(mut self, metadata: Metadata) -> Self {
        self.metadata = metadata;
        self
    }
}

/// A single query hit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// Id of the matching record.
    pub id: String,
    /// Similarity score (higher is better; negative distance for Euclidean).
    pub score: f32,
    /// The record's document text, if stored.
    pub document: Option<String>,
    /// The record's metadata.
    pub metadata: Metadata,
}

/// A named, indexed set of records.
pub struct Collection {
    name: String,
    config: CollectionConfig,
    records: HashMap<InternalId, Record>,
    id_map: HashMap<String, InternalId>,
    /// `key → string value → internal ids` (ascending) for every
    /// string-valued metadata entry of a live record. Derived state: only
    /// [`Collection::apply_upsert`] and [`Collection::apply_delete`] touch
    /// it, so snapshot load and WAL replay rebuild it and nothing persists.
    postings: HashMap<String, HashMap<String, Vec<InternalId>>>,
    index: SegmentedIndex,
    next_internal: InternalId,
    /// Durability state (WAL + snapshot paths) when the owning database is
    /// persistent; `None` for in-memory collections.
    storage: Option<CollectionStorage>,
}

impl Collection {
    /// Create an empty collection.
    pub fn new(name: impl Into<String>, config: CollectionConfig) -> Self {
        let index = Self::fresh_index(&config);
        Self {
            name: name.into(),
            config,
            records: HashMap::new(),
            id_map: HashMap::new(),
            postings: HashMap::new(),
            index,
            next_internal: 0,
            storage: None,
        }
    }

    fn fresh_index(config: &CollectionConfig) -> SegmentedIndex {
        SegmentedIndex::new(
            config.index,
            config.dim,
            config.metric,
            config.hnsw.clone(),
            config.segment.clone(),
        )
    }

    /// Rebuild a collection from a decoded snapshot. Its index is empty:
    /// the caller follows with [`Collection::install_index`] (sidecar read
    /// back) or [`Collection::rebuild_index_from_records`].
    pub(crate) fn from_snapshot(snapshot: Snapshot) -> Self {
        let mut collection = Self::new(snapshot.name, snapshot.config);
        collection.next_internal = snapshot.next_internal;
        for (internal, record) in snapshot.records {
            collection.insert_record(internal, record);
        }
        collection
    }

    /// Stream this collection's snapshot (records in internal-id order)
    /// into `out`; returns the bytes written.
    pub(crate) fn write_snapshot(&self, out: impl io::Write, last_seq: u64) -> io::Result<u64> {
        let ids = self.sorted_internal_ids();
        persist::write_snapshot(
            out,
            last_seq,
            &self.name,
            &self.config,
            self.next_internal,
            ids.iter().map(|id| (*id, &self.records[id])),
        )
    }

    fn sorted_internal_ids(&self) -> Vec<InternalId> {
        let mut ids: Vec<InternalId> = self.records.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    pub(crate) fn index(&self) -> &SegmentedIndex {
        &self.index
    }

    /// Install an index read back from the binary sidecar — the reopen fast
    /// path. The caller has verified the sidecar's sequence number matches
    /// the snapshot this collection came from.
    pub(crate) fn install_index(&mut self, index: SegmentedIndex) {
        self.index = index;
    }

    /// Rebuild the index from live records in internal-id order — the slow
    /// recovery fallback when no usable sidecar exists. Tombstones are gone
    /// (only live records exist), so the result is a *compacted* equivalent
    /// of the lost index: same live vectors, same ids, deterministic.
    pub(crate) fn rebuild_index_from_records(&mut self) {
        let mut index = Self::fresh_index(&self.config);
        for id in self.sorted_internal_ids() {
            index.insert(id, self.records[&id].embedding.as_slice());
        }
        self.index = index;
    }

    /// Attach durability state (recovery and persistent-database wiring).
    pub(crate) fn attach_storage(&mut self, storage: CollectionStorage) {
        self.storage = Some(storage);
    }

    /// Whether mutations on this collection are written ahead to a log.
    pub fn is_durable(&self) -> bool {
        self.storage.is_some()
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration the collection was created with.
    pub fn config(&self) -> &CollectionConfig {
        &self.config
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn check_dim(&self, embedding: &Embedding) -> Result<(), DbError> {
        if embedding.dim() != self.config.dim {
            return Err(DbError::DimensionMismatch {
                expected: self.config.dim,
                actual: embedding.dim(),
            });
        }
        Ok(())
    }

    /// Write `ops` ahead to the log (no-op for in-memory collections).
    /// Returns whether an automatic checkpoint is due.
    fn log_ops(&mut self, ops: &[&WalOp]) -> Result<bool, DbError> {
        match &mut self.storage {
            None => Ok(false),
            Some(storage) => storage.log(ops),
        }
    }

    /// Apply an upsert to in-memory state only (validation and logging
    /// already done). Replace = delete old + insert new (ids inside indexes
    /// are never reused, matching the tombstone design).
    pub(crate) fn apply_upsert(&mut self, record: Record) {
        self.apply_delete(&record.id);
        let internal = self.next_internal;
        self.next_internal += 1;
        self.index.insert(internal, record.embedding.as_slice());
        self.insert_record(internal, record);
    }

    /// Apply a delete to in-memory state only; `false` when absent.
    pub(crate) fn apply_delete(&mut self, id: &str) -> bool {
        let Some(internal) = self.id_map.remove(id) else {
            return false;
        };
        self.index.remove(internal);
        let record = self
            .records
            .remove(&internal)
            .expect("id_map entry has a record");
        for (key, value) in string_entries(&record.metadata) {
            let values = self.postings.get_mut(key).expect("posted on insert");
            let ids = values.get_mut(value).expect("posted on insert");
            // Internal ids only grow, so every list is ascending.
            ids.remove(ids.binary_search(&internal).expect("posted on insert"));
            if ids.is_empty() {
                values.remove(value);
                if values.is_empty() {
                    self.postings.remove(key);
                }
            }
        }
        true
    }

    /// Record-side bookkeeping of an insert (everything but the index):
    /// `internal` must exceed every internal id inserted before it.
    fn insert_record(&mut self, internal: InternalId, record: Record) {
        for (key, value) in string_entries(&record.metadata) {
            self.postings
                .entry(key.to_owned())
                .or_default()
                .entry(value.to_owned())
                .or_default()
                .push(internal);
        }
        self.id_map.insert(record.id.clone(), internal);
        self.records.insert(internal, record);
    }

    /// Insert or replace a record by id. On durable collections the record
    /// is framed and appended to the WAL before memory is touched.
    ///
    /// # Errors
    ///
    /// [`DbError::DimensionMismatch`] when the embedding does not match the
    /// collection dimension; [`DbError::Persistence`] when the write-ahead
    /// append fails (in-memory state is then unchanged).
    pub fn upsert(&mut self, record: Record) -> Result<(), DbError> {
        self.check_dim(&record.embedding)?;
        let op = WalOp::Upsert { record };
        let checkpoint_due = self.log_ops(&[&op])?;
        let WalOp::Upsert { record } = op else {
            unreachable!("op constructed above")
        };
        self.apply_upsert(record);
        if checkpoint_due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Insert many records as one batch: every record is validated first,
    /// then all frames are appended with a single write (and at most one
    /// fsync), then memory is updated — the batched-ingest fast path.
    ///
    /// # Errors
    ///
    /// As [`Collection::upsert`]; validation failures leave both the log
    /// and memory untouched.
    pub fn upsert_batch(&mut self, records: Vec<Record>) -> Result<(), DbError> {
        for r in &records {
            self.check_dim(&r.embedding)?;
        }
        let ops: Vec<WalOp> = records
            .into_iter()
            .map(|record| WalOp::Upsert { record })
            .collect();
        let refs: Vec<&WalOp> = ops.iter().collect();
        let checkpoint_due = self.log_ops(&refs)?;
        for op in ops {
            let WalOp::Upsert { record } = op else {
                unreachable!("ops constructed above")
            };
            self.apply_upsert(record);
        }
        if checkpoint_due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Fetch a record by id.
    pub fn get(&self, id: &str) -> Option<&Record> {
        self.id_map.get(id).and_then(|i| self.records.get(i))
    }

    /// Delete a record by id.
    ///
    /// # Errors
    ///
    /// [`DbError::RecordNotFound`] when no record has this id;
    /// [`DbError::Persistence`] when the write-ahead append fails.
    pub fn delete(&mut self, id: &str) -> Result<(), DbError> {
        if !self.id_map.contains_key(id) {
            return Err(DbError::RecordNotFound(id.to_owned()));
        }
        let op = WalOp::Delete { id: id.to_owned() };
        let checkpoint_due = self.log_ops(&[&op])?;
        self.apply_delete(id);
        if checkpoint_due {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Delete every record whose metadata matches `filter`, atomically with
    /// respect to other writers (the caller already holds the collection's
    /// write access by having `&mut self`). Returns the number of records
    /// removed. The scan and the deletes happen under the same exclusive
    /// access, so no concurrent upsert can slip records in between.
    ///
    /// # Errors
    ///
    /// [`DbError::Persistence`] when the write-ahead append fails (memory
    /// is then unchanged).
    pub fn delete_matching(&mut self, filter: &Filter) -> Result<usize, DbError> {
        let ids: Vec<String> = match filter {
            // Equality on a string value is answered from the postings —
            // O(matches), which is what re-ingesting one document needs.
            Filter::Eq(key, MetaValue::Str(value)) => self
                .postings
                .get(key)
                .and_then(|values| values.get(value))
                .into_iter()
                .flatten()
                .map(|internal| self.records[internal].id.clone())
                .collect(),
            _ => self
                .records
                .values()
                .filter(|r| filter.matches(&r.metadata))
                .map(|r| r.id.clone())
                .collect(),
        };
        if ids.is_empty() {
            return Ok(0);
        }
        let ops: Vec<WalOp> = ids
            .iter()
            .map(|id| WalOp::Delete { id: id.clone() })
            .collect();
        let refs: Vec<&WalOp> = ops.iter().collect();
        let checkpoint_due = self.log_ops(&refs)?;
        for id in &ids {
            self.apply_delete(id);
        }
        if checkpoint_due {
            self.checkpoint()?;
        }
        Ok(ids.len())
    }

    /// Rewrite this collection's snapshot file and truncate its WAL. No-op
    /// for in-memory collections.
    ///
    /// # Errors
    ///
    /// [`DbError::Persistence`] on I/O or serialization failure.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        // Detached so the storage can read `self` while it writes.
        let Some(mut storage) = self.storage.take() else {
            return Ok(());
        };
        let result = storage.checkpoint(self);
        self.storage = Some(storage);
        result
    }

    /// Force any WAL appends still buffered by the fsync-batching policy to
    /// stable storage. No-op for in-memory collections.
    ///
    /// # Errors
    ///
    /// [`DbError::Persistence`] on fsync failure.
    pub fn flush(&mut self) -> Result<(), DbError> {
        match &mut self.storage {
            None => Ok(()),
            Some(storage) => storage.flush(),
        }
    }

    /// Top-`k` records most similar to `query`, optionally restricted by a
    /// metadata [`Filter`]. A `k` beyond the store's size returns every
    /// match.
    ///
    /// # Errors
    ///
    /// [`DbError::InvalidQuery`] for `k == 0`, [`DbError::DimensionMismatch`]
    /// for a query vector of the wrong dimension.
    pub fn query(
        &self,
        query: &Embedding,
        k: usize,
        filter: Option<&Filter>,
    ) -> Result<Vec<QueryResult>, DbError> {
        if k == 0 {
            return Err(DbError::InvalidQuery("k must be positive".into()));
        }
        if query.dim() != self.config.dim {
            return Err(DbError::DimensionMismatch {
                expected: self.config.dim,
                actual: query.dim(),
            });
        }
        let registry = llmms_obs::Registry::global();
        let _span = registry.enabled().then(|| {
            let kind = match self.config.index {
                IndexKind::Flat => "flat",
                IndexKind::Hnsw => "hnsw",
            };
            registry.span_on(&registry.histogram_with("vectordb_search_us", &[("index", kind)]))
        });
        // `k` comes straight from request bodies and sizes the top-k heaps
        // and HNSW beams. No search can visit more slots than internal ids
        // were ever issued, so this cap changes no result, while an
        // unclamped 10^12 would abort the process on allocation.
        let k = k.min(self.next_internal as usize);
        let accept = filter.map(|f| {
            let records = &self.records;
            move |id: InternalId| records.get(&id).is_some_and(|r| f.matches(&r.metadata))
        });
        let hits = self.index.search(
            query.as_slice(),
            k,
            accept.as_ref().map(|f| f as &dyn Fn(InternalId) -> bool),
        );
        Ok(hits
            .into_iter()
            .filter_map(|h| {
                self.records.get(&h.id).map(|r| QueryResult {
                    id: r.id.clone(),
                    score: h.score,
                    document: r.document.clone(),
                    metadata: r.metadata.clone(),
                })
            })
            .collect())
    }

    /// Iterate over all live records (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.values()
    }

    /// Run several queries against the same snapshot of the collection.
    ///
    /// # Errors
    ///
    /// As [`Collection::query`]; fails on the first bad query.
    pub fn query_batch(
        &self,
        queries: &[&Embedding],
        k: usize,
        filter: Option<&Filter>,
    ) -> Result<Vec<Vec<QueryResult>>, DbError> {
        queries.iter().map(|q| self.query(q, k, filter)).collect()
    }

    /// Rebuild the index from live records, dropping every tombstone.
    ///
    /// Deletions and upserts leave logically-deleted vectors in the index
    /// (ids are never reused); after heavy churn an HNSW graph accumulates
    /// dead nodes that widen its search beams. Compaction rebuilds from
    /// scratch — the "lifecycle management" the thesis flags for its
    /// temporary embedding stores (§9.4). Returns the number of tombstones
    /// dropped.
    pub fn compact(&mut self) -> usize {
        let live = self.records.len();
        let before = self.next_internal as usize;
        let mut records: Vec<Record> = self.records.drain().map(|(_, r)| r).collect();
        // Deterministic rebuild order.
        records.sort_by(|a, b| a.id.cmp(&b.id));
        self.id_map.clear();
        self.postings.clear();
        self.index = Self::fresh_index(&self.config);
        self.next_internal = 0;
        // Rebuild through the no-log apply path: compaction changes no
        // logical state, so durable collections must not re-log records.
        for record in records {
            self.apply_upsert(record);
        }
        before - live
    }

    /// Merge adjacent underfilled *sealed segments* in place (dropping
    /// their tombstones) without touching record state or internal ids —
    /// the cheap, incremental sibling of [`Collection::compact`], safe to
    /// run from the background compactor under the write guard. Returns the
    /// number of segment merges performed.
    pub fn compact_segments(&mut self) -> usize {
        self.index.compact_segments()
    }

    /// Whether [`Collection::compact_segments`] currently has work to do.
    pub fn needs_segment_compaction(&self) -> bool {
        self.index.needs_compaction()
    }

    /// Point-in-time statistics for monitoring dashboards.
    pub fn stats(&self) -> CollectionStats {
        let documents = self
            .records
            .values()
            .filter(|r| r.document.is_some())
            .count();
        let metadata_keys: std::collections::BTreeSet<&str> = self
            .records
            .values()
            .flat_map(|r| r.metadata.keys().map(String::as_str))
            .collect();
        let (live, slots) = self.index.occupancy();
        CollectionStats {
            records: self.records.len(),
            with_documents: documents,
            dim: self.config.dim,
            index: self.config.index,
            metadata_keys: metadata_keys.into_iter().map(str::to_owned).collect(),
            sealed_segments: self.index.sealed_count(),
            tombstones: slots - live,
        }
    }
}

/// The string-valued entries of `metadata` — the ones the postings index.
fn string_entries(metadata: &Metadata) -> impl Iterator<Item = (&str, &str)> {
    metadata
        .iter()
        .filter_map(|(key, value)| Some((key.as_str(), value.as_str()?)))
}

/// Snapshot statistics of a collection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionStats {
    /// Live records.
    pub records: usize,
    /// Records carrying document text.
    pub with_documents: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Index flavor.
    pub index: IndexKind,
    /// Distinct metadata keys in use, sorted.
    pub metadata_keys: Vec<String>,
    /// Immutable sealed segments currently backing the index.
    #[serde(default)]
    pub sealed_segments: usize,
    /// Logically-deleted index slots awaiting compaction.
    #[serde(default)]
    pub tombstones: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::meta;

    fn emb(values: &[f32]) -> Embedding {
        Embedding::new(values.to_vec()).normalized()
    }

    fn sample() -> Collection {
        let mut c = Collection::new("docs", CollectionConfig::flat(2));
        c.upsert(
            Record::new("a", emb(&[1.0, 0.0]))
                .with_document("alpha doc")
                .with_metadata(meta([("category", "science".into())])),
        )
        .unwrap();
        c.upsert(
            Record::new("b", emb(&[0.0, 1.0]))
                .with_document("beta doc")
                .with_metadata(meta([("category", "history".into())])),
        )
        .unwrap();
        c.upsert(
            Record::new("c", emb(&[0.7, 0.7]))
                .with_metadata(meta([("category", "science".into())])),
        )
        .unwrap();
        c
    }

    #[test]
    fn upsert_get_len() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get("a").unwrap().document.as_deref(), Some("alpha doc"));
        assert!(c.get("zz").is_none());
    }

    #[test]
    fn query_orders_by_similarity() {
        let c = sample();
        let hits = c.query(&emb(&[1.0, 0.05]), 3, None).unwrap();
        assert_eq!(hits[0].id, "a");
        assert_eq!(hits[1].id, "c");
        assert_eq!(hits[2].id, "b");
    }

    #[test]
    fn huge_k_is_clamped_to_the_store() {
        let mut c = Collection::new("docs", CollectionConfig::flat(2));
        c.upsert(Record::new("a", emb(&[1.0, 0.0]))).unwrap();
        let hits = c.query(&emb(&[1.0, 0.0]), 1_000_000_000_000, None).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, "a");
    }

    #[test]
    fn query_with_filter() {
        let c = sample();
        let f = Filter::eq_str("category", "science");
        let hits = c.query(&emb(&[0.0, 1.0]), 3, Some(&f)).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.id == "a" || h.id == "c"));
        assert_eq!(hits[0].id, "c", "closest science doc first");
    }

    #[test]
    fn upsert_replaces_existing() {
        let mut c = sample();
        c.upsert(Record::new("a", emb(&[0.0, 1.0]))).unwrap();
        assert_eq!(c.len(), 3);
        let hits = c.query(&emb(&[0.0, 1.0]), 1, None).unwrap();
        // "a" now points the other way; either "a" or "b" is acceptable at
        // rank 0, but "a" must score maximally.
        assert!((hits[0].score - 1.0).abs() < 1e-5);
    }

    #[test]
    fn delete_removes() {
        let mut c = sample();
        c.delete("a").unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get("a").is_none());
        assert_eq!(c.delete("a"), Err(DbError::RecordNotFound("a".to_owned())));
        let hits = c.query(&emb(&[1.0, 0.0]), 3, None).unwrap();
        assert!(hits.iter().all(|h| h.id != "a"));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut c = sample();
        let err = c
            .upsert(Record::new("x", emb(&[1.0, 0.0, 0.0])))
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::DimensionMismatch {
                expected: 2,
                actual: 3
            }
        ));
        let err = c.query(&emb(&[1.0]), 1, None).unwrap_err();
        assert!(matches!(err, DbError::DimensionMismatch { .. }));
    }

    #[test]
    fn k_zero_rejected() {
        let c = sample();
        assert!(matches!(
            c.query(&emb(&[1.0, 0.0]), 0, None),
            Err(DbError::InvalidQuery(_))
        ));
    }

    #[test]
    fn hnsw_collection_behaves_like_flat_on_small_data() {
        let mut c = Collection::new("h", CollectionConfig::hnsw(2));
        for (i, v) in [[1.0f32, 0.0], [0.0, 1.0], [0.7, 0.7]].iter().enumerate() {
            c.upsert(Record::new(format!("r{i}"), emb(v))).unwrap();
        }
        let hits = c.query(&emb(&[1.0, 0.1]), 2, None).unwrap();
        assert_eq!(hits[0].id, "r0");
    }

    #[test]
    fn snapshot_roundtrip() {
        let c = sample();
        let mut bytes = Vec::new();
        c.write_snapshot(&mut bytes, 9).unwrap();
        let snapshot = persist::decode_snapshot(&bytes).unwrap();
        assert_eq!(snapshot.last_seq, 9);
        let mut back = Collection::from_snapshot(snapshot);
        back.rebuild_index_from_records();
        assert_eq!(back.len(), 3);
        let hits = back.query(&emb(&[1.0, 0.05]), 1, None).unwrap();
        assert_eq!(hits[0].id, "a");
        // Postings are derived on load, not persisted.
        assert_eq!(
            back.delete_matching(&Filter::eq_str("category", "science")),
            Ok(2)
        );
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::metadata::meta;

    fn emb(values: &[f32]) -> Embedding {
        Embedding::new(values.to_vec()).normalized()
    }

    #[test]
    fn stats_reflect_contents() {
        let mut c = Collection::new("s", CollectionConfig::flat(2));
        c.upsert(
            Record::new("a", emb(&[1.0, 0.0]))
                .with_document("text")
                .with_metadata(meta([("category", "x".into())])),
        )
        .unwrap();
        c.upsert(Record::new("b", emb(&[0.0, 1.0])).with_metadata(meta([("page", 1i64.into())])))
            .unwrap();
        let s = c.stats();
        assert_eq!(s.records, 2);
        assert_eq!(s.with_documents, 1);
        assert_eq!(s.dim, 2);
        assert_eq!(s.index, IndexKind::Flat);
        assert_eq!(s.metadata_keys, ["category", "page"]);
    }

    #[test]
    fn batch_query_matches_individual_queries() {
        let mut c = Collection::new("s", CollectionConfig::flat(2));
        for (i, v) in [[1.0f32, 0.0], [0.0, 1.0], [0.7, 0.7]].iter().enumerate() {
            c.upsert(Record::new(format!("r{i}"), emb(v))).unwrap();
        }
        let q1 = emb(&[1.0, 0.1]);
        let q2 = emb(&[0.1, 1.0]);
        let batch = c.query_batch(&[&q1, &q2], 2, None).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0], c.query(&q1, 2, None).unwrap());
        assert_eq!(batch[1], c.query(&q2, 2, None).unwrap());
    }
}

#[cfg(test)]
mod compact_tests {
    use super::*;

    fn emb(values: &[f32]) -> Embedding {
        Embedding::new(values.to_vec()).normalized()
    }

    #[test]
    fn compact_drops_tombstones_and_preserves_queries() {
        for config in [CollectionConfig::flat(2), CollectionConfig::hnsw(2)] {
            let mut c = Collection::new("t", config);
            for i in 0..20 {
                let angle = i as f32 * 0.3;
                c.upsert(Record::new(
                    format!("r{i}"),
                    emb(&[angle.cos(), angle.sin()]),
                ))
                .unwrap();
            }
            for i in (0..20).step_by(2) {
                c.delete(&format!("r{i}")).unwrap();
            }
            // Churn: re-upsert a few survivors (each re-upsert tombstones).
            for i in [1, 3, 5] {
                let angle = i as f32 * 0.3;
                c.upsert(Record::new(
                    format!("r{i}"),
                    emb(&[angle.cos(), angle.sin()]),
                ))
                .unwrap();
            }
            let q = emb(&[1.0, 0.05]);
            let before = c.query(&q, 3, None).unwrap();
            let dropped = c.compact();
            assert!(dropped >= 10, "dropped {dropped}");
            assert_eq!(c.len(), 10);
            let after = c.query(&q, 3, None).unwrap();
            assert_eq!(
                before.iter().map(|h| &h.id).collect::<Vec<_>>(),
                after.iter().map(|h| &h.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn compact_on_clean_collection_is_a_noop() {
        let mut c = Collection::new("t", CollectionConfig::flat(2));
        c.upsert(Record::new("a", emb(&[1.0, 0.0]))).unwrap();
        assert_eq!(c.compact(), 0);
        assert_eq!(c.len(), 1);
    }
}
