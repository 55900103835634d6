//! Durable storage for collections: a per-collection append-only
//! write-ahead log plus periodic full snapshots with log truncation.
//!
//! The thesis backs its RAG pipeline with ChromaDB, a *persistent* store;
//! this module gives [`crate::Database`] the same property. Every mutation
//! is framed, checksummed and appended to `<collection>.wal` *before* it is
//! applied in memory; a full binary snapshot (`<collection>.snap`, layout in
//! `persist.rs`) is rewritten periodically, after which the log is truncated
//! and restarted.
//!
//! ## Frame format
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][seq: u64 LE][payload: len - 8 bytes]
//! ```
//!
//! `len` counts the `seq` field plus the payload (an op tag and the binary
//! record codec of `persist.rs`); `crc` is CRC-32 (IEEE) over those same
//! bytes. `seq` increases monotonically across the
//! life of a collection — snapshots record the last applied sequence number
//! so replay after an un-truncated (crashed) checkpoint skips frames the
//! snapshot already contains.
//!
//! ## Recovery contract
//!
//! [`replay`] reads frames until the first short read, oversized length or
//! checksum mismatch, and reports the byte length of the valid prefix. A
//! torn tail — a crash mid-append at *any* byte offset — therefore loses at
//! most the ops that were never fully written: recovery is prefix-consistent
//! with the committed operation sequence. A frame whose checksum holds but
//! whose payload does not decode is not torn but *wrong* (another format, a
//! bug): replay fails naming the file, and nothing is truncated.

use crate::collection::{Collection, CollectionConfig, Record};
use crate::error::DbError;
use crate::persist;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Frames larger than this are treated as corruption during replay (the
/// payloads are single records; 64 MiB is far beyond any legitimate frame).
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Durability knobs for a persistent [`crate::Database`].
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Fsync the WAL after every N appended frames. `1` makes every commit
    /// durable before the mutation is applied; larger values batch the
    /// fsync cost across appends (a crash can lose at most the last N-1
    /// frames, never corrupt earlier ones). `0` never fsyncs explicitly and
    /// leaves flushing to the OS.
    pub fsync_every: usize,
    /// Rewrite the snapshot and truncate the WAL after this many appended
    /// frames. `0` disables automatic checkpoints (explicit
    /// [`crate::Database::checkpoint`] only).
    pub snapshot_every: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            fsync_every: 8,
            snapshot_every: 4096,
        }
    }
}

/// One logged operation. `Create` opens every WAL generation so a
/// collection that has never been snapshotted can still be rebuilt from its
/// log alone.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Collection created (or WAL generation restarted after a snapshot).
    Create {
        /// Collection name (authoritative — file names are encoded).
        name: String,
        /// Configuration to rebuild the collection with.
        config: CollectionConfig,
    },
    /// A record was inserted or replaced.
    Upsert {
        /// The full record as stored.
        record: Record,
    },
    /// A record was deleted.
    Delete {
        /// Id of the deleted record.
        id: String,
    },
}

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table,
/// `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Fold `bytes` into a running (pre-inverted) CRC-32 state, eight bytes per
/// step. Start from `!0` and invert the result; see [`crc32`].
pub(crate) fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 (IEEE 802.3) over `bytes` — the frame and file checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Append one frame for `op` to `buf`: length + checksum header, sequence
/// number, payload — encoded in place, then the header is patched in.
fn encode_frame(buf: &mut Vec<u8>, seq: u64, op: &WalOp) {
    let header = buf.len();
    buf.extend_from_slice(&[0u8; 8]);
    buf.extend_from_slice(&seq.to_le_bytes());
    persist::encode_op(op, buf);
    let body = &buf[header + 8..];
    let (len, crc) = (body.len() as u32, crc32(body));
    buf[header..header + 4].copy_from_slice(&len.to_le_bytes());
    buf[header + 4..header + 8].copy_from_slice(&crc.to_le_bytes());
}

/// The result of replaying a WAL file.
pub(crate) struct Replayed {
    /// Decoded `(seq, op)` frames of the valid prefix, in file order.
    pub frames: Vec<(u64, WalOp)>,
    /// Byte length of the valid prefix (everything past it is torn tail).
    pub good_len: u64,
    /// Whether bytes beyond `good_len` existed (a torn tail was dropped).
    pub torn: bool,
}

/// Read every fully-committed frame of the log at `path`.
///
/// A torn write — short header, absurd length, checksum mismatch — ends the
/// replay at the last good frame rather than failing, implementing
/// prefix-consistent recovery.
///
/// # Errors
///
/// I/O failures opening or reading the file (a missing file is an empty
/// log, not an error), and a checksummed frame whose payload does not
/// decode: that log is wrong, not torn, and must not be truncated.
pub(crate) fn replay(path: &Path) -> Result<Replayed, DbError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(DbError::Persistence(format!(
                "read {}: {e}",
                path.display()
            )))
        }
    };
    let mut frames = Vec::new();
    let mut pos = 0usize;
    let mut good = 0usize;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < 8 {
            break; // torn header
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len < 8 || len as u32 > MAX_FRAME_LEN || rest.len() < 8 + len {
            break; // torn or corrupt length
        }
        let body = &rest[8..8 + len];
        if crc32(body) != crc {
            break; // corrupt frame
        }
        let seq = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
        let op = persist::decode_op(&body[8..])
            .map_err(|e| persist::in_file(format_args!("{} frame seq {seq}", path.display()), e))?;
        pos += 8 + len;
        good = pos;
        frames.push((seq, op));
    }
    Ok(Replayed {
        frames,
        good_len: good as u64,
        torn: good < bytes.len(),
    })
}

/// Append half of the log: an open file handle plus fsync accounting.
pub(crate) struct Wal {
    file: File,
    path: PathBuf,
    fsync_every: usize,
    appends_since_fsync: usize,
    next_seq: u64,
}

impl Wal {
    /// Open (or create) the log at `path` for appending, truncating any
    /// torn tail to `good_len` first so new frames extend the valid prefix.
    fn open_for_append(
        path: &Path,
        fsync_every: usize,
        good_len: u64,
        next_seq: u64,
    ) -> Result<Self, DbError> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            // Keep the committed prefix; set_len below trims only the tail.
            .truncate(false)
            .open(path)
            .map_err(|e| DbError::Persistence(format!("open {}: {e}", path.display())))?;
        file.set_len(good_len)
            .map_err(|e| DbError::Persistence(format!("truncate {}: {e}", path.display())))?;
        Ok(Self {
            file,
            path: path.to_owned(),
            fsync_every,
            appends_since_fsync: 0,
            next_seq,
        })
    }

    /// Append `ops` as consecutive frames with one write and at most one
    /// fsync, honoring the batching policy. Returns the sequence number of
    /// the last appended frame.
    fn append_batch(&mut self, ops: &[&WalOp]) -> Result<u64, DbError> {
        let mut tspan = llmms_obs::trace::span_here("wal_append");
        tspan.set_attr("ops", ops.len());
        let result = self.append_batch_inner(ops);
        if let Err(e) = &result {
            tspan.set_status(llmms_obs::SpanStatus::Error);
            tspan.attr_with("error", || e.to_string());
        }
        tspan.end();
        result
    }

    fn append_batch_inner(&mut self, ops: &[&WalOp]) -> Result<u64, DbError> {
        let mut buf = Vec::new();
        for op in ops {
            encode_frame(&mut buf, self.next_seq, op);
            self.next_seq += 1;
        }
        // Appends are positioned writes at the tracked end of the valid
        // prefix; the handle is opened read-write so recovery truncation
        // and appending share one descriptor.
        use std::io::Seek;
        self.file
            .seek(std::io::SeekFrom::End(0))
            .and_then(|_| self.file.write_all(&buf))
            .map_err(|e| DbError::Persistence(format!("append {}: {e}", self.path.display())))?;
        let registry = llmms_obs::Registry::global();
        if registry.enabled() {
            registry
                .counter("wal_appends_total")
                .metric
                .add(ops.len() as u64);
        }
        self.appends_since_fsync += ops.len();
        if self.fsync_every > 0 && self.appends_since_fsync >= self.fsync_every {
            self.fsync()?;
        }
        Ok(self.next_seq - 1)
    }

    /// Force pending appends to stable storage.
    fn fsync(&mut self) -> Result<(), DbError> {
        let start = Instant::now();
        let mut tspan = llmms_obs::trace::span_here("wal_fsync");
        let synced = self
            .file
            .sync_data()
            .map_err(|e| DbError::Persistence(format!("fsync {}: {e}", self.path.display())));
        if let Err(e) = &synced {
            tspan.set_status(llmms_obs::SpanStatus::Error);
            tspan.attr_with("error", || e.to_string());
        }
        tspan.end();
        synced?;
        self.appends_since_fsync = 0;
        let registry = llmms_obs::Registry::global();
        if registry.enabled() {
            registry
                .histogram("wal_fsync_us")
                .metric
                .record_duration(start.elapsed());
        }
        Ok(())
    }
}

/// Fill `path` through `write` via tmp + fsync + rename so readers see
/// either the old complete file or the new one, never a torn mix. Returns
/// what `write` returns (the byte count).
fn write_atomic(
    path: &Path,
    write: impl FnOnce(&mut File) -> io::Result<u64>,
) -> Result<u64, DbError> {
    let tmp = tmp_path(path);
    let written = File::create(&tmp)
        .and_then(|mut f| {
            let written = write(&mut f)?;
            f.sync_data()?;
            Ok(written)
        })
        .map_err(|e| DbError::Persistence(format!("write {}: {e}", tmp.display())))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| DbError::Persistence(format!("rename {}: {e}", path.display())))?;
    Ok(written)
}

/// Where [`write_atomic`] stages `path`: the same name plus `.tmp`.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Encode a collection name into a filesystem-safe base name: ASCII
/// alphanumerics, `-`, `_` and `.` pass through, everything else becomes
/// `%XX`. Injective, so distinct names never collide on disk.
pub(crate) fn encode_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' => out.push(b as char),
            other => out.push_str(&format!("%{other:02X}")),
        }
    }
    out
}

/// The files of one collection, from its encoded base name.
pub(crate) struct Paths {
    pub wal: PathBuf,
    pub snapshot: PathBuf,
    pub index: PathBuf,
}

impl Paths {
    pub(crate) fn of(dir: &Path, base: &str) -> Self {
        Self {
            wal: dir.join(format!("{base}.wal")),
            snapshot: dir.join(format!("{base}.snap")),
            index: dir.join(format!("{base}.idx.bin")),
        }
    }
}

/// Durability state attached to one collection: its WAL, snapshot path and
/// checkpoint accounting. Lives inside [`Collection`], detached while a
/// checkpoint reads the collection it belongs to.
pub struct CollectionStorage {
    wal: Wal,
    paths: Paths,
    dir: PathBuf,
    snapshot_every: u64,
    appends_since_snapshot: u64,
}

impl CollectionStorage {
    /// Create fresh storage for a new collection: an empty WAL opened and
    /// seeded with a `Create` frame describing the collection.
    pub(crate) fn create(
        dir: &Path,
        name: &str,
        config: &CollectionConfig,
        storage_config: &StorageConfig,
    ) -> Result<Self, DbError> {
        let mut storage = Self::reattach(dir, name, storage_config, 0, None)?;
        storage.start_generation(name, config)?;
        Ok(storage)
    }

    /// Reattach storage to a recovered collection, truncating any torn WAL
    /// tail and continuing the sequence numbering after `last_seq`.
    pub(crate) fn reattach(
        dir: &Path,
        name: &str,
        storage_config: &StorageConfig,
        good_len: u64,
        last_seq: Option<u64>,
    ) -> Result<Self, DbError> {
        let paths = Paths::of(dir, &encode_name(name));
        let wal = Wal::open_for_append(
            &paths.wal,
            storage_config.fsync_every,
            good_len,
            last_seq.map_or(0, |s| s + 1),
        )?;
        Ok(Self {
            wal,
            paths,
            dir: dir.to_owned(),
            snapshot_every: storage_config.snapshot_every,
            appends_since_snapshot: 0,
        })
    }

    /// Seed the (empty) log with a durable `Create` frame.
    fn start_generation(&mut self, name: &str, config: &CollectionConfig) -> Result<(), DbError> {
        let create = WalOp::Create {
            name: name.to_owned(),
            config: config.clone(),
        };
        self.wal.append_batch(&[&create])?;
        self.wal.fsync()
    }

    /// Log `ops` (write-ahead: callers append before mutating in-memory
    /// state). Returns `true` when an automatic checkpoint is now due.
    pub(crate) fn log(&mut self, ops: &[&WalOp]) -> Result<bool, DbError> {
        self.wal.append_batch(ops)?;
        self.appends_since_snapshot += ops.len() as u64;
        Ok(self.snapshot_every > 0 && self.appends_since_snapshot >= self.snapshot_every)
    }

    /// Fsync pending appends regardless of the batching policy.
    pub(crate) fn flush(&mut self) -> Result<(), DbError> {
        self.wal.fsync()
    }

    /// Stream `collection`'s index sidecar and snapshot to disk atomically
    /// (tmp + fsync + rename each, then a directory fsync), then start a
    /// fresh WAL generation seeded with a `Create` frame.
    pub(crate) fn checkpoint(&mut self, collection: &Collection) -> Result<(), DbError> {
        let mut tspan = llmms_obs::trace::span_here("snapshot");
        tspan.attr_with("collection", || collection.name().to_owned());
        let result = self.checkpoint_inner(collection);
        match &result {
            Ok((snapshot_bytes, index_bytes)) => {
                tspan.set_attr("bytes", *snapshot_bytes);
                tspan.set_attr("index_bytes", *index_bytes);
            }
            Err(e) => {
                tspan.set_status(llmms_obs::SpanStatus::Error);
                tspan.attr_with("error", || e.to_string());
            }
        }
        tspan.end();
        result.map(|_| ())
    }

    /// Returns the bytes written to the snapshot and to the sidecar.
    fn checkpoint_inner(&mut self, collection: &Collection) -> Result<(u64, u64), DbError> {
        let start = Instant::now();
        // Make the log durable first: the snapshot must never be *ahead* of
        // the WAL it claims to subsume.
        self.wal.fsync()?;
        let last_seq = self.last_seq();
        // Index sidecar first, snapshot second. Recovery trusts the sidecar
        // only when its embedded sequence number equals the snapshot's, so
        // a crash between the two renames leaves a mismatched pair and
        // degrades to an index rebuild — never to a stale index silently
        // serving a newer snapshot.
        let index_bytes = write_atomic(&self.paths.index, |f| {
            persist::write_index(f, collection.index(), last_seq)
        })?;
        let snapshot_bytes = write_atomic(&self.paths.snapshot, |f| {
            collection.write_snapshot(f, last_seq)
        })?;
        // Persist the rename itself (the directory entry).
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        // Truncate the log and restart the generation. A crash before the
        // truncate leaves old frames behind; their sequence numbers are
        // <= the snapshot's last_seq, so replay skips them.
        let next_seq = self.wal.next_seq;
        self.wal = Wal::open_for_append(&self.paths.wal, self.wal.fsync_every, 0, next_seq)?;
        self.start_generation(collection.name(), collection.config())?;
        self.appends_since_snapshot = 0;
        let registry = llmms_obs::Registry::global();
        if registry.enabled() {
            registry
                .histogram("snapshot_us")
                .metric
                .record_duration(start.elapsed());
            registry.counter("snapshots_total").metric.inc();
        }
        Ok((snapshot_bytes, index_bytes))
    }

    /// Last sequence number written to the log.
    pub(crate) fn last_seq(&self) -> u64 {
        self.wal.next_seq.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The algorithm this module shipped with before the byte tables: one
    /// 16-entry table, two steps per byte. Kept as the oracle.
    fn crc32_nibble(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 16];
        for (i, slot) in table.iter_mut().enumerate() {
            *slot = (0..4).fold(i as u32, |crc, _| {
                if crc & 1 != 0 {
                    (crc >> 1) ^ CRC_POLY
                } else {
                    crc >> 1
                }
            });
        }
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 4) ^ table[((crc ^ b as u32) & 0xF) as usize];
            crc = (crc >> 4) ^ table[((crc ^ (b as u32 >> 4)) & 0xF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_agrees_with_the_nibble_algorithm_on_random_buffers() {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..265 {
            // Every short length once, then random ones up to 4096.
            let len = if i <= 64 { i } else { (next() % 4097) as usize };
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_nibble(&buf), "len {len}");
            // Streaming in two pieces at any split gives the same state.
            let split = if len == 0 { 0 } else { next() as usize % len };
            let state = crc32_update(crc32_update(!0, &buf[..split]), &buf[split..]);
            assert_eq!(!state, crc32(&buf), "len {len} split {split}");
        }
    }

    #[test]
    fn checksummed_frame_that_does_not_decode_is_an_error_not_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("llmms-wal-wrong-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        for (payload, needle) in [
            (&br#"{"Delete":{"id":"x"}}"#[..], "JSON frame payload"),
            (&[0x09, 1, 2, 3][..], "unknown op tag 9"),
            (&[3, 200, 0, 0, 0][..], "implausible"), // Delete with a short id
        ] {
            let mut bytes = Vec::new();
            encode_frame(&mut bytes, 0, &WalOp::Delete { id: "ok".into() });
            let mut body = 1u64.to_le_bytes().to_vec();
            body.extend_from_slice(payload);
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(&body).to_le_bytes());
            bytes.extend_from_slice(&body);
            std::fs::write(&path, &bytes).unwrap();
            let Err(err) = replay(&path) else {
                panic!("{needle}: replay accepted a wrong frame");
            };
            let text = err.to_string();
            assert!(text.contains("t.wal") && text.contains(needle), "{text}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_roundtrip_through_replay() {
        let dir = std::env::temp_dir().join(format!("llmms-wal-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        let mut wal = Wal::open_for_append(&path, 1, 0, 0).unwrap();
        let ops = [
            WalOp::Create {
                name: "c".into(),
                config: CollectionConfig::flat(2),
            },
            WalOp::Delete { id: "x".into() },
        ];
        wal.append_batch(&[&ops[0], &ops[1]]).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(!replayed.torn);
        assert_eq!(replayed.frames.len(), 2);
        assert_eq!(replayed.frames[0].0, 0);
        assert_eq!(replayed.frames[1].0, 1);
        assert_eq!(replayed.frames[1].1, ops[1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_at_every_offset_is_a_frame_prefix() {
        let dir = std::env::temp_dir().join(format!("llmms-wal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        let mut wal = Wal::open_for_append(&path, 0, 0, 0).unwrap();
        let ops: Vec<WalOp> = (0..5)
            .map(|i| WalOp::Delete {
                id: format!("id-{i}"),
            })
            .collect();
        let refs: Vec<&WalOp> = ops.iter().collect();
        wal.append_batch(&refs).unwrap();
        wal.fsync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let torn_path = dir.join("torn.wal");
        for cut in 0..=bytes.len() {
            std::fs::write(&torn_path, &bytes[..cut]).unwrap();
            let replayed = replay(&torn_path).unwrap();
            // The recovered ops must be exactly the first k committed ops.
            let k = replayed.frames.len();
            assert!(k <= ops.len());
            for (i, (seq, op)) in replayed.frames.iter().enumerate() {
                assert_eq!(*seq, i as u64);
                assert_eq!(op, &ops[i]);
            }
            assert_eq!(replayed.torn, replayed.good_len < cut as u64);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_middle_frame_truncates_to_prefix() {
        let dir = std::env::temp_dir().join(format!("llmms-wal-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        let mut wal = Wal::open_for_append(&path, 0, 0, 0).unwrap();
        let ops: Vec<WalOp> = (0..3)
            .map(|i| WalOp::Delete {
                id: format!("id-{i}"),
            })
            .collect();
        let refs: Vec<&WalOp> = ops.iter().collect();
        wal.append_batch(&refs).unwrap();
        wal.fsync().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte in the middle of the file.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let replayed = replay(&path).unwrap();
        assert!(replayed.torn);
        assert!(replayed.frames.len() < 3);
        for (i, (_, op)) in replayed.frames.iter().enumerate() {
            assert_eq!(op, &ops[i]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn encode_name_is_safe_and_injective() {
        assert_eq!(encode_name("rag-chunks"), "rag-chunks");
        assert_eq!(encode_name("a/b"), "a%2Fb");
        assert_ne!(encode_name("a/b"), encode_name("a%2Fb"));
        assert_eq!(encode_name("a%2Fb"), "a%252Fb");
    }
}
