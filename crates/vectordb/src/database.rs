//! The top-level [`Database`]: a set of named collections behind a lock,
//! in memory or durable under a directory — the workspace's stand-in for a
//! ChromaDB server instance.

use crate::collection::{Collection, CollectionConfig};
use crate::error::DbError;
use crate::persist;
use crate::wal::{self, CollectionStorage, Paths, StorageConfig, WalOp};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A thread-safe set of named [`Collection`]s.
///
/// Collections are individually locked so concurrent queries on different
/// collections never contend. The thesis runs ChromaDB "within an isolated
/// read-only Docker container" whose contents are discarded after the
/// session; [`Database`] likewise defaults to in-memory operation, with
/// [`Database::open`] when persistence is wanted.
#[derive(Default)]
pub struct Database {
    collections: RwLock<HashMap<String, Arc<RwLock<Collection>>>>,
    /// Present when the database is durable: every collection gets a WAL
    /// and snapshot files inside this directory.
    durable: Option<DurableDir>,
}

struct DurableDir {
    dir: PathBuf,
    config: StorageConfig,
}

impl Database {
    /// Create an empty in-memory database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or create) a durable database rooted at directory `path`,
    /// with default [`StorageConfig`].
    ///
    /// Recovery replays, for every collection found on disk, its snapshot
    /// (if any) plus the WAL suffix whose sequence numbers the snapshot
    /// does not already contain. A torn WAL tail — from a crash mid-append
    /// at any byte offset — is detected by the frame checksums and
    /// discarded, recovering the longest fully-committed prefix.
    ///
    /// # Errors
    ///
    /// [`DbError::Persistence`] on I/O failures (unreadable directory,
    /// unwritable WAL) and on files that are *wrong* rather than torn: a
    /// snapshot that does not verify, a checksummed WAL frame that does not
    /// decode, or files in the JSON format of earlier releases. The error
    /// names the file, and nothing on disk is changed. Torn log *tails* are
    /// not errors.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, DbError> {
        Self::open_with(path, StorageConfig::default())
    }

    /// [`Database::open`] with explicit durability knobs.
    ///
    /// # Errors
    ///
    /// As [`Database::open`].
    pub fn open_with(path: impl AsRef<Path>, config: StorageConfig) -> Result<Self, DbError> {
        let dir = path.as_ref().to_owned();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DbError::Persistence(format!("create {}: {e}", dir.display())))?;
        let mut map = HashMap::new();
        let entries = std::fs::read_dir(&dir)
            .map_err(|e| DbError::Persistence(format!("read {}: {e}", dir.display())))?;
        // One recovery unit per `<base>.wal` / `<base>.snap` pair.
        let mut bases: Vec<String> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| DbError::Persistence(e.to_string()))?;
            let file = entry.file_name().to_string_lossy().into_owned();
            if file.ends_with(".snap.json") {
                return Err(DbError::Persistence(format!(
                    "{}: {}",
                    entry.path().display(),
                    persist::OLD_SNAPSHOT_FORMAT
                )));
            }
            let base = file
                .strip_suffix(".wal")
                .or_else(|| file.strip_suffix(".snap"));
            if let Some(base) = base {
                if !bases.iter().any(|b| b == base) {
                    bases.push(base.to_owned());
                }
            }
        }
        bases.sort();
        for base in bases {
            if let Some((name, collection)) = recover_collection(&dir, &base, &config)? {
                map.insert(name, Arc::new(RwLock::new(collection)));
            }
        }
        Ok(Self {
            collections: RwLock::new(map),
            durable: Some(DurableDir { dir, config }),
        })
    }

    /// Whether this database persists mutations to disk.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Create a collection. On a durable database this also creates the
    /// collection's WAL seeded with a `Create` frame, so the collection
    /// survives restart even before its first snapshot.
    ///
    /// # Errors
    ///
    /// [`DbError::CollectionExists`] when the name is taken;
    /// [`DbError::Persistence`] when the WAL cannot be created.
    pub fn create_collection(
        &self,
        name: &str,
        config: CollectionConfig,
    ) -> Result<Arc<RwLock<Collection>>, DbError> {
        let mut map = self.collections.write();
        if map.contains_key(name) {
            return Err(DbError::CollectionExists(name.to_owned()));
        }
        let mut collection = Collection::new(name, config.clone());
        if let Some(durable) = &self.durable {
            let storage = CollectionStorage::create(&durable.dir, name, &config, &durable.config)?;
            collection.attach_storage(storage);
        }
        let coll = Arc::new(RwLock::new(collection));
        map.insert(name.to_owned(), Arc::clone(&coll));
        Ok(coll)
    }

    /// Get an existing collection.
    ///
    /// # Errors
    ///
    /// [`DbError::CollectionNotFound`] when absent.
    pub fn collection(&self, name: &str) -> Result<Arc<RwLock<Collection>>, DbError> {
        self.collections
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::CollectionNotFound(name.to_owned()))
    }

    /// Get a collection, creating it with `config` when absent — the
    /// idempotent entry point services use at startup.
    pub fn get_or_create(&self, name: &str, config: CollectionConfig) -> Arc<RwLock<Collection>> {
        if let Ok(c) = self.collection(name) {
            return c;
        }
        match self.create_collection(name, config) {
            Ok(c) => c,
            // Raced with another creator: fetch theirs.
            Err(_) => self
                .collection(name)
                .expect("collection must exist after create race"),
        }
    }

    /// Drop a collection and all its records. On a durable database the
    /// collection's WAL and snapshot files are removed from disk.
    ///
    /// # Errors
    ///
    /// [`DbError::CollectionNotFound`] when absent.
    pub fn delete_collection(&self, name: &str) -> Result<(), DbError> {
        self.collections
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::CollectionNotFound(name.to_owned()))?;
        if let Some(durable) = &self.durable {
            let paths = Paths::of(&durable.dir, &wal::encode_name(name));
            for path in [paths.wal, paths.snapshot, paths.index] {
                std::fs::remove_file(&path).ok();
                std::fs::remove_file(wal::tmp_path(&path)).ok();
            }
        }
        Ok(())
    }

    /// Snapshot every collection and truncate its WAL — the explicit
    /// checkpoint (also triggered automatically every
    /// [`StorageConfig::snapshot_every`] appends). No-op when in-memory.
    ///
    /// # Errors
    ///
    /// [`DbError::Persistence`] on I/O or serialization failure; earlier
    /// collections stay checkpointed.
    pub fn checkpoint(&self) -> Result<(), DbError> {
        let collections: Vec<Arc<RwLock<Collection>>> =
            self.collections.read().values().cloned().collect();
        for coll in collections {
            coll.write().checkpoint()?;
        }
        Ok(())
    }

    /// Fsync every collection's pending WAL appends regardless of the
    /// batching policy. No-op when in-memory.
    ///
    /// # Errors
    ///
    /// [`DbError::Persistence`] on fsync failure.
    pub fn flush(&self) -> Result<(), DbError> {
        let collections: Vec<Arc<RwLock<Collection>>> =
            self.collections.read().values().cloned().collect();
        for coll in collections {
            coll.write().flush()?;
        }
        Ok(())
    }

    /// Names of all collections, sorted.
    pub fn list_collections(&self) -> Vec<String> {
        let mut names: Vec<String> = self.collections.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of collections.
    pub fn len(&self) -> usize {
        self.collections.read().len()
    }

    /// Whether the database holds no collections.
    pub fn is_empty(&self) -> bool {
        self.collections.read().is_empty()
    }

    /// Run one sweep of segment compaction across all collections: each
    /// collection that has merge-eligible sealed segments is compacted
    /// under its own write guard (other collections stay fully available).
    /// Returns the total number of segment merges performed.
    pub fn compact_segments(&self) -> usize {
        let collections: Vec<Arc<RwLock<Collection>>> =
            self.collections.read().values().cloned().collect();
        let mut merges = 0usize;
        for coll in collections {
            // Cheap read-locked check first so idle collections never take
            // the write lock.
            if coll.read().needs_segment_compaction() {
                merges += coll.write().compact_segments();
            }
        }
        merges
    }

    /// Spawn the background segment compactor: a thread that sweeps
    /// [`Database::compact_segments`] every `interval`. The thread holds
    /// only a [`Weak`] reference, so dropping the database (and the
    /// returned handle) stops it; the handle's [`Drop`] also stops it
    /// eagerly and joins.
    pub fn spawn_compactor(self: &Arc<Self>, interval: std::time::Duration) -> CompactorHandle {
        let stop = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let weak = Arc::downgrade(self);
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("llmms-compactor".into())
            .spawn(move || loop {
                {
                    let (lock, cvar) = &*thread_stop;
                    let mut stopped = lock.lock().expect("compactor stop lock");
                    if !*stopped {
                        stopped = cvar
                            .wait_timeout(stopped, interval)
                            .expect("compactor stop lock")
                            .0;
                    }
                    if *stopped {
                        return;
                    }
                }
                let Some(db) = weak.upgrade() else { return };
                db.compact_segments();
            })
            .expect("spawn compactor thread");
        CompactorHandle {
            stop,
            handle: Some(handle),
        }
    }
}

/// Handle to the background segment compactor spawned by
/// [`Database::spawn_compactor`]. Dropping it stops the thread and joins.
pub struct CompactorHandle {
    stop: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().expect("compactor stop lock") = true;
        cvar.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Recover one collection from `<base>.snap` + `<base>.wal`: load the
/// snapshot if present, replay every WAL frame whose sequence number the
/// snapshot does not cover, truncate any torn tail, and reattach live
/// storage. Returns `None` when neither file yields a usable collection
/// (e.g. an empty WAL with no snapshot).
fn recover_collection(
    dir: &Path,
    base: &str,
    config: &StorageConfig,
) -> Result<Option<(String, Collection)>, DbError> {
    let paths = Paths::of(dir, base);

    let mut last_seq: Option<u64> = None;
    let mut collection: Option<Collection> = None;
    match std::fs::read(&paths.snapshot) {
        Ok(bytes) => {
            // Snapshots are installed by rename, so one that does not verify
            // was never torn: it is damaged or foreign. Falling back to the
            // WAL would open the collection without its checkpointed records
            // and the next checkpoint would make that permanent.
            let snapshot = persist::decode_snapshot(&bytes)
                .map_err(|e| persist::in_file(paths.snapshot.display(), e))?;
            drop(bytes);
            last_seq = Some(snapshot.last_seq);
            let mut c = Collection::from_snapshot(snapshot);
            // The checkpoint persisted the index separately as a binary
            // sidecar; install it when it is exactly as new as the snapshot
            // (the embedded sequence numbers must agree), otherwise rebuild
            // the index from the snapshot's records. Either way the WAL
            // suffix below replays on top.
            let reopened = std::fs::read(&paths.index)
                .ok()
                .and_then(|bytes| persist::decode_index(&bytes).ok())
                .filter(|(seq, _)| Some(*seq) == last_seq)
                .map(|(_, index)| c.install_index(index))
                .is_some();
            if !reopened {
                c.rebuild_index_from_records();
            }
            let registry = llmms_obs::Registry::global();
            if registry.enabled() {
                let counter = if reopened {
                    "ann_index_reopened_total"
                } else {
                    "ann_index_rebuilt_total"
                };
                registry.counter(counter).metric.inc();
            }
            collection = Some(c);
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => {
            return Err(DbError::Persistence(format!(
                "read {}: {e}",
                paths.snapshot.display()
            )))
        }
    }

    let replayed = wal::replay(&paths.wal)?;
    let mut max_seq = last_seq;
    let mut applied: u64 = 0;
    for (seq, op) in replayed.frames {
        if max_seq.is_some_and(|m| seq <= m) {
            continue; // the snapshot already contains this op
        }
        max_seq = Some(seq);
        match op {
            WalOp::Create { name, config } => {
                if collection.is_none() {
                    collection = Some(Collection::new(name, config));
                }
            }
            WalOp::Upsert { record } => {
                if let Some(c) = &mut collection {
                    if record.embedding.dim() == c.config().dim {
                        c.apply_upsert(record);
                        applied += 1;
                    }
                }
            }
            WalOp::Delete { id } => {
                if let Some(c) = &mut collection {
                    // Tolerate already-absent ids: replay onto a snapshot
                    // that outran an interrupted truncation is idempotent.
                    c.apply_delete(&id);
                    applied += 1;
                }
            }
        }
    }
    let registry = llmms_obs::Registry::global();
    if registry.enabled() {
        if applied > 0 {
            registry
                .counter("recovery_replayed_frames")
                .metric
                .add(applied);
        }
        if replayed.torn {
            registry.counter("recovery_torn_tails_total").metric.inc();
        }
    }

    let Some(mut collection) = collection else {
        return Ok(None);
    };
    let name = collection.name().to_owned();
    let storage = CollectionStorage::reattach(dir, &name, config, replayed.good_len, max_seq)?;
    collection.attach_storage(storage);
    Ok(Some((name, collection)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Record;
    use llmms_embed::Embedding;

    fn emb(values: &[f32]) -> Embedding {
        Embedding::new(values.to_vec()).normalized()
    }

    #[test]
    fn create_get_delete_lifecycle() {
        let db = Database::new();
        assert!(db.is_empty());
        db.create_collection("docs", CollectionConfig::flat(2))
            .unwrap();
        assert_eq!(db.len(), 1);
        assert!(db.collection("docs").is_ok());
        assert!(matches!(
            db.create_collection("docs", CollectionConfig::flat(2)),
            Err(DbError::CollectionExists(_))
        ));
        db.delete_collection("docs").unwrap();
        assert!(matches!(
            db.collection("docs"),
            Err(DbError::CollectionNotFound(_))
        ));
        assert!(matches!(
            db.delete_collection("docs"),
            Err(DbError::CollectionNotFound(_))
        ));
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let db = Database::new();
        let a = db.get_or_create("x", CollectionConfig::flat(2));
        let b = db.get_or_create("x", CollectionConfig::flat(2));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn list_is_sorted() {
        let db = Database::new();
        for n in ["zeta", "alpha", "mid"] {
            db.create_collection(n, CollectionConfig::flat(2)).unwrap();
        }
        assert_eq!(db.list_collections(), ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn concurrent_access_different_collections() {
        let db = Arc::new(Database::new());
        db.create_collection("a", CollectionConfig::flat(2))
            .unwrap();
        db.create_collection("b", CollectionConfig::flat(2))
            .unwrap();
        let handles: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    let coll = db.collection(name).unwrap();
                    for i in 0..50 {
                        coll.write()
                            .upsert(Record::new(format!("{name}{i}"), emb(&[1.0, i as f32])))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.collection("a").unwrap().read().len(), 50);
        assert_eq!(db.collection("b").unwrap().read().len(), 50);
    }
}
