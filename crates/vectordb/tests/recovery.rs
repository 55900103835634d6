//! Crash-recovery contract of the durable vector store.
//!
//! The acceptance property: a store killed mid-WAL-append at an *arbitrary*
//! byte offset reopens to a prefix-consistent state — exactly the records
//! produced by the first `k` committed operations, for some `k` that only
//! grows as more bytes survive — and serves identical query results for all
//! fully-committed state.

use llmms_embed::Embedding;
use llmms_vectordb::{
    meta, CollectionConfig, Database, Filter, MetaValue, Metadata, Record, SegmentConfig,
    StorageConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "llmms-recovery-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn emb(values: &[f32]) -> Embedding {
    Embedding::new(values.to_vec()).normalized()
}

/// A committed operation, mirrored onto an in-memory model of the state.
#[derive(Debug, Clone)]
enum Op {
    Upsert(String, Vec<f32>),
    Delete(String),
}

type Model = BTreeMap<String, Vec<f32>>;

fn apply_model(model: &mut Model, op: &Op) {
    match op {
        Op::Upsert(id, v) => {
            // Mirror what the store keeps: the normalized embedding.
            model.insert(id.clone(), emb(v).as_slice().to_vec());
        }
        Op::Delete(id) => {
            model.remove(id);
        }
    }
}

/// Read the live state of collection `name` (empty map when the collection
/// itself was not recovered).
fn observe(db: &Database, name: &str) -> Model {
    let Ok(coll) = db.collection(name) else {
        return Model::new();
    };
    let guard = coll.read();
    guard
        .iter()
        .map(|r| (r.id.clone(), r.embedding.as_slice().to_vec()))
        .collect()
}

/// Apply `ops` to a fresh durable database at `dir`, returning the model
/// state after every prefix (index 0 = empty).
fn run_ops(dir: &std::path::Path, ops: &[Op], config: StorageConfig) -> Vec<Model> {
    let db = Database::open_with(dir, config).unwrap();
    let coll = db
        .create_collection("c", CollectionConfig::flat(2))
        .unwrap();
    let mut states = vec![Model::new()];
    let mut model = Model::new();
    for op in ops {
        {
            let mut guard = coll.write();
            match op {
                Op::Upsert(id, v) => guard.upsert(Record::new(id.clone(), emb(v))).unwrap(),
                Op::Delete(id) => {
                    let _ = guard.delete(id);
                }
            }
        }
        apply_model(&mut model, op);
        states.push(model.clone());
    }
    db.flush().unwrap();
    states
}

fn sample_ops() -> Vec<Op> {
    vec![
        Op::Upsert("a".into(), vec![1.0, 0.0]),
        Op::Upsert("b".into(), vec![0.0, 1.0]),
        Op::Upsert("c".into(), vec![0.7, 0.7]),
        Op::Delete("a".into()),
        Op::Upsert("b".into(), vec![0.5, -0.5]), // overwrite
        Op::Upsert("d".into(), vec![-1.0, 0.1]),
        Op::Delete("c".into()),
        Op::Upsert("a".into(), vec![0.2, 0.9]), // resurrect
    ]
}

/// Kill the WAL at EVERY byte offset; each truncation must reopen to some
/// prefix state, and the recovered prefix length must never shrink as more
/// bytes survive.
#[test]
fn killed_wal_at_every_byte_offset_recovers_a_prefix() {
    let live = unique_dir("every-offset-live");
    let ops = sample_ops();
    // No snapshots: the whole history lives in the WAL under test.
    let states = run_ops(
        &live,
        &ops,
        StorageConfig {
            fsync_every: 1,
            snapshot_every: 0,
        },
    );
    let wal_path = live.join("c.wal");
    let bytes = std::fs::read(&wal_path).unwrap();
    assert!(bytes.len() > 100, "setup produced a trivial WAL");

    let crash = unique_dir("every-offset-crash");
    let mut last_k = 0usize;
    for cut in 0..=bytes.len() {
        std::fs::remove_dir_all(&crash).ok();
        std::fs::create_dir_all(&crash).unwrap();
        std::fs::write(crash.join("c.wal"), &bytes[..cut]).unwrap();
        let db = Database::open(&crash).unwrap();
        let got = observe(&db, "c");
        let k = states
            .iter()
            .position(|s| *s == got)
            .unwrap_or_else(|| panic!("cut {cut}: recovered state {got:?} is not a prefix state"));
        assert!(
            k >= last_k,
            "cut {cut}: recovered prefix length went backwards ({k} < {last_k})"
        );
        last_k = k;
    }
    assert_eq!(
        last_k,
        ops.len(),
        "the full WAL must recover the final state"
    );
    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&crash).ok();
}

/// The same property against a snapshot + WAL-suffix layout: ops committed
/// before the snapshot can never be lost, whatever happens to the WAL.
#[test]
fn killed_wal_after_snapshot_never_loses_snapshotted_ops() {
    let live = unique_dir("snap-live");
    let ops = sample_ops();
    let snapshot_every = 4; // checkpoint mid-sequence
    let states = run_ops(
        &live,
        &ops,
        StorageConfig {
            fsync_every: 1,
            snapshot_every,
        },
    );
    let bytes = std::fs::read(live.join("c.wal")).unwrap();
    let snap = std::fs::read(live.join("c.snap")).unwrap();

    let crash = unique_dir("snap-crash");
    for cut in 0..=bytes.len() {
        std::fs::remove_dir_all(&crash).ok();
        std::fs::create_dir_all(&crash).unwrap();
        std::fs::write(crash.join("c.snap"), &snap).unwrap();
        std::fs::write(crash.join("c.wal"), &bytes[..cut]).unwrap();
        let db = Database::open(&crash).unwrap();
        let got = observe(&db, "c");
        let k = states
            .iter()
            .position(|s| *s == got)
            .unwrap_or_else(|| panic!("cut {cut}: not a prefix state: {got:?}"));
        // The snapshot was taken after `snapshot_every` appends (the Create
        // frame is not an op, so at least that many ops are stable).
        assert!(
            k as u64 >= snapshot_every,
            "cut {cut}: snapshotted ops lost (recovered only {k})"
        );
    }
    std::fs::remove_dir_all(&live).ok();
    std::fs::remove_dir_all(&crash).ok();
}

/// Reopen-equivalence: a durable store (snapshot + WAL replay) must answer
/// queries identically to the live store it recovers, across checkpoints.
#[test]
fn reopened_store_serves_identical_queries() {
    let dir = unique_dir("reopen");
    let db = Database::open_with(
        &dir,
        StorageConfig {
            fsync_every: 4,
            snapshot_every: 5,
        },
    )
    .unwrap();
    let coll = db
        .create_collection("docs", CollectionConfig::flat(3))
        .unwrap();
    for i in 0..23 {
        let angle = i as f32 * 0.37;
        coll.write()
            .upsert(
                Record::new(
                    format!("r{i}"),
                    emb(&[angle.cos(), angle.sin(), (i as f32 * 0.11).cos()]),
                )
                .with_document(format!("document number {i}")),
            )
            .unwrap();
    }
    for i in (0..23).step_by(5) {
        coll.write().delete(&format!("r{i}")).unwrap();
    }
    let queries: Vec<Embedding> = (0..6)
        .map(|q| emb(&[(q as f32).cos(), (q as f32).sin(), 0.4]))
        .collect();
    let before: Vec<_> = queries
        .iter()
        .map(|q| coll.read().query(q, 4, None).unwrap())
        .collect();
    db.flush().unwrap();
    drop(coll);
    drop(db);

    let reopened = Database::open(&dir).unwrap();
    let coll = reopened.collection("docs").unwrap();
    let after: Vec<_> = queries
        .iter()
        .map(|q| coll.read().query(q, 4, None).unwrap())
        .collect();
    assert_eq!(before, after);

    // An explicit checkpoint truncates the WAL; a further reopen must still
    // be equivalent (now from the snapshot alone).
    reopened.checkpoint().unwrap();
    let wal_len = std::fs::metadata(dir.join("docs.wal")).unwrap().len();
    assert!(
        wal_len < 300,
        "WAL not truncated by checkpoint ({wal_len} bytes)"
    );
    drop(coll);
    drop(reopened);
    let again = Database::open(&dir).unwrap();
    let coll = again.collection("docs").unwrap();
    let third: Vec<_> = queries
        .iter()
        .map(|q| coll.read().query(q, 4, None).unwrap())
        .collect();
    assert_eq!(before, third);
    std::fs::remove_dir_all(&dir).ok();
}

/// Collection lifecycle is durable: created collections survive reopen,
/// deleted ones stay deleted.
#[test]
fn collection_lifecycle_is_durable() {
    let dir = unique_dir("lifecycle");
    {
        let db = Database::open(&dir).unwrap();
        db.create_collection("keep", CollectionConfig::flat(2))
            .unwrap();
        db.create_collection("drop", CollectionConfig::hnsw(2))
            .unwrap();
        db.collection("keep")
            .unwrap()
            .write()
            .upsert(Record::new("x", emb(&[1.0, 0.0])))
            .unwrap();
        db.delete_collection("drop").unwrap();
        db.flush().unwrap();
    }
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.list_collections(), ["keep"]);
    assert_eq!(db.collection("keep").unwrap().read().len(), 1);
    // Names needing encoding round-trip too.
    db.create_collection("odd/name with spaces", CollectionConfig::flat(2))
        .unwrap();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert!(db.collection("odd/name with spaces").is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// Writing through a recovered store keeps extending the same log without
/// corrupting or replaying earlier state.
#[test]
fn recovered_store_accepts_further_writes() {
    let dir = unique_dir("continue");
    {
        let db = Database::open(&dir).unwrap();
        let coll = db
            .create_collection("c", CollectionConfig::flat(2))
            .unwrap();
        coll.write()
            .upsert(Record::new("a", emb(&[1.0, 0.0])))
            .unwrap();
        db.flush().unwrap();
    }
    {
        let db = Database::open(&dir).unwrap();
        let coll = db.collection("c").unwrap();
        coll.write()
            .upsert(Record::new("b", emb(&[0.0, 1.0])))
            .unwrap();
        coll.write().delete("a").unwrap();
        db.flush().unwrap();
    }
    let db = Database::open(&dir).unwrap();
    let got = observe(&db, "c");
    assert_eq!(got.keys().collect::<Vec<_>>(), ["b"]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpointed store of 40 records plus a 5-op WAL suffix, and the
/// state it must reopen to.
fn checkpointed_store(tag: &str) -> (std::path::PathBuf, Model) {
    let dir = unique_dir(tag);
    let ops: Vec<Op> = (0..40)
        .map(|i| Op::Upsert(format!("r{i}"), vec![(i as f32).cos(), (i as f32).sin()]))
        .chain([Op::Delete("r3".into()), Op::Delete("r4".into())])
        .chain((40..43).map(|i| Op::Upsert(format!("r{i}"), vec![1.0, i as f32])))
        .collect();
    let states = run_ops(
        &dir,
        &ops,
        StorageConfig {
            fsync_every: 1,
            snapshot_every: 40,
        },
    );
    assert!(dir.join("c.snap").exists() && dir.join("c.idx.bin").exists());
    (dir, states.last().unwrap().clone())
}

/// Torn is not wrong: a snapshot is installed by rename, so one that does
/// not verify is damaged, and opening "whatever the WAL still has" would
/// silently drop every checkpointed record. One flipped bit anywhere in
/// `.snap` must refuse to open — and must leave the files alone.
#[test]
fn snapshot_corrupted_at_any_byte_refuses_to_open() {
    let (dir, expected) = checkpointed_store("snap-flip");
    let snap_path = dir.join("c.snap");
    let snap = std::fs::read(&snap_path).unwrap();
    let wal = std::fs::read(dir.join("c.wal")).unwrap();
    for offset in 0..snap.len() {
        let mut bad = snap.clone();
        bad[offset] ^= 0x10;
        std::fs::write(&snap_path, &bad).unwrap();
        match Database::open(&dir) {
            Err(e) => assert!(e.to_string().contains("c.snap"), "flip at {offset}: {e}"),
            Ok(db) => panic!(
                "flip at {offset}: opened with {} of {} records",
                observe(&db, "c").len(),
                expected.len()
            ),
        }
    }
    assert_eq!(
        std::fs::read(dir.join("c.wal")).unwrap(),
        wal,
        "a refused open must not touch the log"
    );
    std::fs::write(&snap_path, &snap).unwrap();
    assert_eq!(observe(&Database::open(&dir).unwrap(), "c"), expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// The sidecar is derived state: damaged, missing or stale, it degrades to
/// an index rebuild with identical contents and answers.
#[test]
fn sidecar_corruption_degrades_to_a_rebuild() {
    let (dir, expected) = checkpointed_store("idx-flip");
    let idx_path = dir.join("c.idx.bin");
    let idx = std::fs::read(&idx_path).unwrap();
    let query = emb(&[0.3, 0.9]);
    let answer = |db: &Database| db.collection("c").unwrap().read().query(&query, 5, None);
    let want = answer(&Database::open(&dir).unwrap()).unwrap();
    for offset in (0..idx.len()).step_by(7) {
        let mut bad = idx.clone();
        bad[offset] ^= 0x10;
        std::fs::write(&idx_path, &bad).unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(observe(&db, "c"), expected, "flip at {offset}");
        assert_eq!(answer(&db).unwrap(), want, "flip at {offset}");
    }
    std::fs::remove_file(&idx_path).unwrap();
    assert_eq!(observe(&Database::open(&dir).unwrap(), "c"), expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checksummed frame that does not decode is a wrong log, not a torn one:
/// opening fails and the bytes after it are not truncated away.
#[test]
fn undecodable_frame_refuses_to_open_and_is_not_truncated() {
    let (dir, _) = checkpointed_store("wrong-frame");
    let wal_path = dir.join("c.wal");
    let mut wal = std::fs::read(&wal_path).unwrap();
    // Re-stamp the second frame (first op after `Create`) with an unknown
    // op tag and a matching CRC.
    let first = 8 + u32::from_le_bytes(wal[0..4].try_into().unwrap()) as usize;
    let len = u32::from_le_bytes(wal[first..first + 4].try_into().unwrap()) as usize;
    wal[first + 16] = 0x7F;
    let crc = llmms_vectordb::wal::crc32(&wal[first + 8..first + 8 + len]);
    wal[first + 4..first + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&wal_path, &wal).unwrap();
    let err = Database::open(&dir).err().expect("wrong frame accepted");
    assert!(err.to_string().contains("c.wal"), "{err}");
    assert_eq!(std::fs::read(&wal_path).unwrap(), wal, "log was modified");
    std::fs::remove_dir_all(&dir).ok();
}

/// Directories written by releases before the binary format are refused by
/// name — never opened empty, truncated or deleted.
#[test]
fn old_json_format_is_refused_and_left_untouched() {
    // A JSON snapshot beside a log.
    let dir = unique_dir("old-snap");
    std::fs::create_dir_all(&dir).unwrap();
    let old_snap = br#"{"last_seq":3,"collection":{"name":"c"}}"#;
    std::fs::write(dir.join("c.snap.json"), old_snap).unwrap();
    let err = Database::open(&dir).err().expect("old snapshot accepted");
    let text = err.to_string();
    assert!(
        text.contains("c.snap.json") && text.contains("JSON snapshot"),
        "{text}"
    );
    assert_eq!(std::fs::read(dir.join("c.snap.json")).unwrap(), old_snap);
    assert!(!dir.join("c.wal").exists(), "refusal must not create a log");
    std::fs::remove_dir_all(&dir).ok();

    // A log of JSON frames and no snapshot at all.
    let dir = unique_dir("old-wal");
    std::fs::create_dir_all(&dir).unwrap();
    let mut body = 0u64.to_le_bytes().to_vec();
    body.extend_from_slice(br#"{"Create":{"name":"c","config":{"dim":2}}}"#);
    let mut old_wal = (body.len() as u32).to_le_bytes().to_vec();
    old_wal.extend_from_slice(&llmms_vectordb::wal::crc32(&body).to_le_bytes());
    old_wal.extend_from_slice(&body);
    std::fs::write(dir.join("c.wal"), &old_wal).unwrap();
    let err = Database::open(&dir).err().expect("old log accepted");
    let text = err.to_string();
    assert!(
        text.contains("c.wal") && text.contains("JSON frame payload"),
        "{text}"
    );
    assert_eq!(std::fs::read(dir.join("c.wal")).unwrap(), old_wal);
    std::fs::remove_dir_all(&dir).ok();
}

/// One step of the postings-vs-scan churn below.
#[derive(Debug, Clone)]
enum Churn {
    Upsert(String, Metadata),
    Delete(String),
    DeleteMatching(Filter),
    Reopen,
    CompactSegments,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `delete_matching` on a string equality is answered from postings the
    /// collection maintains on the side; every other filter scans. Both
    /// must remove exactly the records `Filter::matches` selects — under
    /// upsert / replace / delete churn, after a reopen from snapshot + WAL
    /// suffix (postings are rebuilt, not persisted), and after segment
    /// compaction.
    #[test]
    fn delete_matching_removes_exactly_what_the_filter_matches(
        raw in proptest::collection::vec((0u8..12, 0usize..14, 0usize..4, 0usize..3), 1..90),
    ) {
        let docs = ["d0", "d1", "d2", "d3"];
        let tags = ["x", "y", ""];
        let steps: Vec<Churn> = raw
            .into_iter()
            .map(|(kind, id, doc, tag)| match kind {
                0..=5 => {
                    let mut m = meta([("doc", docs[doc].into()), ("n", (id as i64).into())]);
                    // A second string key on some records, and one whose
                    // *value type* varies under the same key.
                    if tag < 2 {
                        m.insert("tag".into(), tags[tag].into());
                    } else {
                        m.insert("tag".into(), MetaValue::Int(7));
                    }
                    if id % 3 == 0 {
                        m.remove("doc");
                    }
                    Churn::Upsert(format!("id{id}"), m)
                }
                6 => Churn::Delete(format!("id{id}")),
                7 | 8 => Churn::DeleteMatching(Filter::eq_str("doc", docs[doc])),
                9 => Churn::DeleteMatching(match tag {
                    0 => Filter::eq_str("tag", tags[doc % 3]),
                    1 => Filter::eq_str("absent", "x"),
                    // Not a top-level string equality: the scan path.
                    _ => Filter::eq_str("doc", docs[doc]).and(Filter::Gt("n".into(), 4.0)),
                }),
                10 => Churn::Reopen,
                _ => Churn::CompactSegments,
            })
            .collect();

        let dir = unique_dir("postings");
        let storage = StorageConfig { fsync_every: 0, snapshot_every: 16 };
        let mut config = CollectionConfig::flat(2);
        config.segment = SegmentConfig {
            seal_threshold: 8,
            quantize_sealed: false,
            compact_min_live: 6,
        };
        let mut db = Database::open_with(&dir, storage.clone()).unwrap();
        db.create_collection("c", config).unwrap();
        let mut model: BTreeMap<String, Metadata> = BTreeMap::new();
        for (i, step) in steps.iter().enumerate() {
            let coll = db.collection("c").unwrap();
            match step {
                Churn::Upsert(id, m) => {
                    let record = Record::new(id.clone(), emb(&[1.0, i as f32]))
                        .with_metadata(m.clone());
                    coll.write().upsert(record).unwrap();
                    model.insert(id.clone(), m.clone());
                }
                Churn::Delete(id) => {
                    let _ = coll.write().delete(id);
                    model.remove(id);
                }
                Churn::DeleteMatching(filter) => {
                    let before = model.len();
                    model.retain(|_, m| !filter.matches(m));
                    let removed = coll.write().delete_matching(filter).unwrap();
                    prop_assert_eq!(removed, before - model.len(), "step {}: {:?}", i, filter);
                }
                Churn::Reopen => {
                    db.flush().unwrap();
                    drop(coll);
                    drop(db);
                    db = Database::open_with(&dir, storage.clone()).unwrap();
                }
                Churn::CompactSegments => {
                    let mut guard = coll.write();
                    while guard.needs_segment_compaction() && guard.compact_segments() > 0 {}
                }
            }
            let coll = db.collection("c").unwrap();
            let live: BTreeMap<String, Metadata> = coll
                .read()
                .iter()
                .map(|r| (r.id.clone(), r.metadata.clone()))
                .collect();
            prop_assert_eq!(&live, &model, "after step {} ({:?})", i, step);
        }
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash-recovery proptest: for ANY op sequence and ANY byte offset the
    /// WAL is killed at, the reopened state equals the state after some
    /// prefix of the committed operations.
    #[test]
    fn any_truncation_recovers_a_prefix_of_committed_ops(
        raw_ops in proptest::collection::vec(
            (0u8..3, 0usize..6, -1.0f32..1.0, -1.0f32..1.0), 1..24),
        cut_frac in 0.0f64..1.0,
    ) {
        let ops: Vec<Op> = raw_ops
            .into_iter()
            .map(|(kind, id, x, y)| {
                let id = format!("id{id}");
                match kind {
                    0 | 1 => Op::Upsert(id, vec![x.max(0.01), y]),
                    _ => Op::Delete(id),
                }
            })
            .collect();
        let live = unique_dir("prop-live");
        let states = run_ops(
            &live,
            &ops,
            StorageConfig { fsync_every: 3, snapshot_every: 0 },
        );
        let bytes = std::fs::read(live.join("c.wal")).unwrap();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;

        let crash = unique_dir("prop-crash");
        std::fs::create_dir_all(&crash).unwrap();
        std::fs::write(crash.join("c.wal"), &bytes[..cut]).unwrap();
        let db = Database::open(&crash).unwrap();
        let got = observe(&db, "c");
        prop_assert!(
            states.contains(&got),
            "cut {cut}/{}: {got:?} is not a prefix state",
            bytes.len()
        );
        std::fs::remove_dir_all(&live).ok();
        std::fs::remove_dir_all(&crash).ok();
    }
}
