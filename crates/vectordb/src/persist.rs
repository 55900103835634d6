//! Binary persistence: one record codec shared by the WAL and the snapshot,
//! plus the segmented index's sidecar.
//!
//! A checkpointed collection is two files. `<base>.snap` holds the records
//! (the source of truth); `<base>.idx.bin` holds the index structure — HNSW
//! graphs, quantized code arenas, RNG state and all — so `Database::open`
//! *reads* it back instead of re-running graph construction over every
//! vector, which at million-vector scale is the difference between
//! milliseconds and minutes. Both record the WAL sequence number they are
//! consistent with; recovery installs the sidecar only when the two numbers
//! match, so a crash between the two file writes degrades to an index
//! rebuild, never to wrong results. Between checkpoints every mutation is a
//! WAL frame whose payload is the same record encoding behind an op tag.
//!
//! ## Container (both files; all integers little-endian)
//!
//! ```text
//! magic    4 bytes          "LMIX" sidecar, "LMSN" snapshot
//! version  u32              currently 1 for both
//! last_seq u64              WAL seq this state includes
//! <body>                    see encode_segmented / write_snapshot
//! crc32    u32              IEEE CRC-32 over everything above
//! ```
//!
//! The version gates the body layout: readers reject unknown versions
//! instead of misparsing them, and the CRC (same polynomial as the WAL
//! frames) rejects torn or bit-rotted files. Both are streamed through a
//! `BufWriter`, so writing one never holds the file in memory.
//!
//! The snapshot body is name, config, `next_internal`, a count, and that
//! many `(internal id, record)` pairs in increasing id order; a WAL payload
//! is an op tag and the same record (or a name + config, or an id).
//! DESIGN.md §11 tabulates every field.

use crate::collection::{CollectionConfig, Record};
use crate::error::DbError;
use crate::index::hnsw::Node;
use crate::index::{FlatIndex, HnswConfig, HnswIndex, IndexKind, InternalId, QuantizedFlatIndex};
use crate::metadata::{MetaValue, Metadata};
use crate::segment::{Segment, SegmentConfig, SegmentIndex, SegmentedIndex};
use crate::wal::{crc32, crc32_update, WalOp};
use llmms_embed::{Embedding, Metric};
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::sync::Arc;

const INDEX_MAGIC: &[u8; 4] = b"LMIX";
const INDEX_VERSION: u32 = 1;
const SNAPSHOT_MAGIC: &[u8; 4] = b"LMSN";
const SNAPSHOT_VERSION: u32 = 1;

const TAG_FLAT: u8 = 0;
const TAG_HNSW: u8 = 1;
const TAG_QUANT: u8 = 2;

const OP_CREATE: u8 = 1;
const OP_UPSERT: u8 = 2;
const OP_DELETE: u8 = 3;

const META_BOOL: u8 = 0;
const META_INT: u8 = 1;
const META_FLOAT: u8 = 2;
const META_STR: u8 = 3;

fn metric_to_u8(m: Metric) -> u8 {
    match m {
        Metric::Cosine => 0,
        Metric::Dot => 1,
        Metric::Euclidean => 2,
    }
}

fn metric_from_u8(b: u8) -> Result<Metric, DbError> {
    match b {
        0 => Ok(Metric::Cosine),
        1 => Ok(Metric::Dot),
        2 => Ok(Metric::Euclidean),
        other => Err(corrupt(format!("unknown metric tag {other}"))),
    }
}

fn corrupt(msg: impl std::fmt::Display) -> DbError {
    DbError::Persistence(msg.to_string())
}

/// Prefix a decode error with where (which file) it came from.
pub(crate) fn in_file(at: impl std::fmt::Display, e: DbError) -> DbError {
    match e {
        DbError::Persistence(msg) => DbError::Persistence(format!("{at}: {msg}")),
        other => other,
    }
}

// ------------------------------------------------------------------ writer

/// Little-endian field writer over any sink. The first I/O error is latched
/// and reported once by the container, so encoders stay infallible.
struct Writer<W: Write> {
    out: W,
    err: Option<io::Error>,
}

impl<W: Write> Writer<W> {
    fn new(out: W) -> Self {
        Self { out, err: None }
    }

    fn bytes(&mut self, b: &[u8]) {
        if self.err.is_none() {
            self.err = self.out.write_all(b).err();
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Fixed-width elements, converted through a stack buffer so a large
    /// arena costs one `write_all` per 4 KiB instead of one per element.
    fn packed<T: Copy, const N: usize>(&mut self, vs: &[T], to_bytes: impl Fn(T) -> [u8; N]) {
        let mut buf = [0u8; 4096];
        for chunk in vs.chunks(buf.len() / N) {
            for (dst, &v) in buf.chunks_exact_mut(N).zip(chunk) {
                dst.copy_from_slice(&to_bytes(v));
            }
            self.bytes(&buf[..chunk.len() * N]);
        }
    }

    fn f32s(&mut self, vs: &[f32]) {
        self.packed(vs, f32::to_le_bytes);
    }

    fn u32s(&mut self, vs: &[u32]) {
        self.packed(vs, u32::to_le_bytes);
    }

    fn bools(&mut self, vs: &[bool]) {
        self.packed(vs, |b| [b as u8]);
    }

    fn i8s(&mut self, vs: &[i8]) {
        self.packed(vs, |b| [b as u8]);
    }
}

// ------------------------------------------------------------------ reader

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| corrupt("truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DbError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A `len`-prefixed count, bounds-checked against the bytes remaining so
    /// corrupt lengths fail instead of OOM-ing on `Vec::with_capacity`.
    fn count(&mut self, elem_size: usize) -> Result<usize, DbError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size.max(1)) > self.buf.len() - self.pos {
            return Err(corrupt(format!("implausible element count {n}")));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, DbError> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| corrupt("invalid UTF-8"))
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, DbError> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, DbError> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    fn bools(&mut self, n: usize) -> Result<Vec<bool>, DbError> {
        Ok(self.take(n)?.iter().map(|&b| b != 0).collect())
    }

    fn i8s(&mut self, n: usize) -> Result<Vec<i8>, DbError> {
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }

    /// The whole buffer must have been consumed.
    fn finish(self) -> Result<(), DbError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes"))
        }
    }
}

// ------------------------------------------------------------ record codec

fn encode_record(w: &mut Writer<impl Write>, record: &Record) {
    w.str(&record.id);
    w.u32(record.embedding.dim() as u32);
    w.f32s(record.embedding.as_slice());
    match &record.document {
        None => w.u8(0),
        Some(text) => {
            w.u8(1);
            w.str(text);
        }
    }
    w.u32(record.metadata.len() as u32);
    for (key, value) in &record.metadata {
        w.str(key);
        match value {
            MetaValue::Bool(b) => {
                w.u8(META_BOOL);
                w.u8(*b as u8);
            }
            MetaValue::Int(i) => {
                w.u8(META_INT);
                w.u64(*i as u64);
            }
            MetaValue::Float(f) => {
                w.u8(META_FLOAT);
                w.u64(f.to_bits());
            }
            MetaValue::Str(s) => {
                w.u8(META_STR);
                w.str(s);
            }
        }
    }
}

fn decode_record(r: &mut Reader) -> Result<Record, DbError> {
    let id = r.str()?;
    let dim = r.count(4)?;
    let embedding = Embedding::new(r.f32s(dim)?);
    let document = match r.u8()? {
        0 => None,
        1 => Some(r.str()?),
        other => return Err(corrupt(format!("unknown document tag {other}"))),
    };
    let mut metadata = Metadata::new();
    // Smallest entry: empty key (4) + tag (1) + bool (1).
    for _ in 0..r.count(6)? {
        let key = r.str()?;
        let value = match r.u8()? {
            META_BOOL => MetaValue::Bool(r.u8()? != 0),
            META_INT => MetaValue::Int(r.u64()? as i64),
            META_FLOAT => MetaValue::Float(f64::from_bits(r.u64()?)),
            META_STR => MetaValue::Str(r.str()?),
            other => return Err(corrupt(format!("unknown metadata tag {other}"))),
        };
        metadata.insert(key, value);
    }
    Ok(Record {
        id,
        embedding,
        document,
        metadata,
    })
}

fn encode_hnsw_config(w: &mut Writer<impl Write>, c: &HnswConfig) {
    w.u32(c.m as u32);
    w.u32(c.ef_construction as u32);
    w.u32(c.ef_search as u32);
    w.u64(c.seed);
}

fn decode_hnsw_config(r: &mut Reader) -> Result<HnswConfig, DbError> {
    Ok(HnswConfig {
        m: r.u32()? as usize,
        ef_construction: r.u32()? as usize,
        ef_search: r.u32()? as usize,
        seed: r.u64()?,
    })
}

/// A collection's configuration — also the header of the segmented index
/// body, which is built from exactly these fields.
fn encode_config(w: &mut Writer<impl Write>, c: &CollectionConfig) {
    w.u8(match c.index {
        IndexKind::Flat => 0,
        IndexKind::Hnsw => 1,
    });
    w.u8(metric_to_u8(c.metric));
    w.u32(c.dim as u32);
    encode_hnsw_config(w, &c.hnsw);
    w.u64(c.segment.seal_threshold as u64);
    w.u8(c.segment.quantize_sealed as u8);
    w.u64(c.segment.compact_min_live as u64);
}

fn decode_config(r: &mut Reader) -> Result<CollectionConfig, DbError> {
    let index = match r.u8()? {
        0 => IndexKind::Flat,
        1 => IndexKind::Hnsw,
        other => return Err(corrupt(format!("unknown index kind {other}"))),
    };
    Ok(CollectionConfig {
        index,
        metric: metric_from_u8(r.u8()?)?,
        dim: r.u32()? as usize,
        hnsw: decode_hnsw_config(r)?,
        segment: SegmentConfig {
            seal_threshold: r.u64()? as usize,
            quantize_sealed: r.u8()? != 0,
            compact_min_live: r.u64()? as usize,
        },
    })
}

// -------------------------------------------------------------- WAL payload

/// Append the payload of one WAL frame for `op` to `out`.
pub(crate) fn encode_op(op: &WalOp, out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    match op {
        WalOp::Create { name, config } => {
            w.u8(OP_CREATE);
            w.str(name);
            encode_config(&mut w, config);
        }
        WalOp::Upsert { record } => {
            w.u8(OP_UPSERT);
            encode_record(&mut w, record);
        }
        WalOp::Delete { id } => {
            w.u8(OP_DELETE);
            w.str(id);
        }
    }
}

/// Decode a frame payload written by [`encode_op`].
///
/// # Errors
///
/// [`DbError::Persistence`] when the payload is not a complete op of this
/// format. The caller has already verified the frame's CRC, so this is a
/// *wrong* log (another format, a bug), never a torn one.
pub(crate) fn decode_op(payload: &[u8]) -> Result<WalOp, DbError> {
    let mut r = Reader::new(payload);
    let op = match r.u8()? {
        OP_CREATE => WalOp::Create {
            name: r.str()?,
            config: decode_config(&mut r)?,
        },
        OP_UPSERT => WalOp::Upsert {
            record: decode_record(&mut r)?,
        },
        OP_DELETE => WalOp::Delete { id: r.str()? },
        b'{' => return Err(corrupt(OLD_WAL_FORMAT)),
        other => return Err(corrupt(format!("unknown op tag {other}"))),
    };
    r.finish()?;
    Ok(op)
}

const OLD_WAL_FORMAT: &str = "JSON frame payload, written by a release before the binary \
     store format; this build reads only binary frames and leaves the log untouched \
     (open the directory with the release that wrote it, or re-ingest into a fresh one)";

/// What [`Database::open`](crate::Database::open) says about a
/// `<base>.snap.json` it finds.
pub(crate) const OLD_SNAPSHOT_FORMAT: &str = "JSON snapshot, written by a release before the \
     binary store format; this build reads only `.snap` files and leaves the directory \
     untouched (open it with the release that wrote it, or re-ingest into a fresh one)";

// ----------------------------------------------------------- per-index blobs

fn encode_flat(w: &mut Writer<impl Write>, i: &FlatIndex) {
    w.u8(TAG_FLAT);
    w.u8(metric_to_u8(i.metric));
    w.u32(i.dim as u32);
    w.u32(i.ids.len() as u32);
    w.u32s(&i.ids);
    w.bools(&i.deleted);
    w.u64(i.non_unit_live as u64);
    w.f32s(&i.data);
}

fn decode_flat(r: &mut Reader) -> Result<FlatIndex, DbError> {
    let metric = metric_from_u8(r.u8()?)?;
    let dim = r.u32()? as usize;
    let n = r.count(4)?;
    let ids = r.u32s(n)?;
    let deleted = r.bools(n)?;
    let non_unit_live = r.u64()? as usize;
    let data = r.f32s(n * dim)?;
    let live = deleted.iter().filter(|&&d| !d).count();
    Ok(FlatIndex {
        metric,
        dim,
        data,
        ids,
        deleted,
        live,
        non_unit_live,
    })
}

fn encode_quant(w: &mut Writer<impl Write>, i: &QuantizedFlatIndex) {
    w.u8(TAG_QUANT);
    w.u8(metric_to_u8(i.metric));
    w.u32(i.dim as u32);
    w.u32(i.ids.len() as u32);
    w.u32s(&i.ids);
    w.bools(&i.deleted);
    w.f32s(&i.scales);
    w.f32s(&i.inv_norms);
    w.i8s(&i.codes);
}

fn decode_quant(r: &mut Reader) -> Result<QuantizedFlatIndex, DbError> {
    let metric = metric_from_u8(r.u8()?)?;
    let dim = r.u32()? as usize;
    let n = r.count(4)?;
    let ids = r.u32s(n)?;
    let deleted = r.bools(n)?;
    let scales = r.f32s(n)?;
    let inv_norms = r.f32s(n)?;
    let codes = r.i8s(n * dim)?;
    let live = deleted.iter().filter(|&&d| !d).count();
    Ok(QuantizedFlatIndex {
        metric,
        dim,
        codes,
        scales,
        inv_norms,
        ids,
        deleted,
        live,
    })
}

fn encode_hnsw(w: &mut Writer<impl Write>, i: &HnswIndex) {
    w.u8(TAG_HNSW);
    encode_hnsw_config(w, &i.config);
    w.u8(metric_to_u8(i.metric));
    w.u32(i.dim as u32);
    // Entry point: u32::MAX encodes "none" (slots are bounded by node
    // count, which never reaches u32::MAX).
    w.u32(i.entry.unwrap_or(u32::MAX));
    w.u32(i.max_level as u32);
    w.u64(i.rng_state);
    w.u64(i.non_unit as u64);
    w.u32(i.nodes.len() as u32);
    w.f32s(&i.data);
    for node in &i.nodes {
        w.u32(node.id);
        w.u8(node.deleted as u8);
        w.u32(node.neighbors.len() as u32);
        for layer in &node.neighbors {
            w.u32(layer.len() as u32);
            w.u32s(layer);
        }
    }
}

fn decode_hnsw(r: &mut Reader) -> Result<HnswIndex, DbError> {
    let config = decode_hnsw_config(r)?;
    let metric = metric_from_u8(r.u8()?)?;
    let dim = r.u32()? as usize;
    let entry = match r.u32()? {
        u32::MAX => None,
        slot => Some(slot),
    };
    let max_level = r.u32()? as usize;
    let rng_state = r.u64()?;
    let non_unit = r.u64()? as usize;
    let n = r.count(dim.max(1) * 4)?;
    let data = r.f32s(n * dim)?;
    let mut nodes = Vec::with_capacity(n);
    let mut id_to_slot = HashMap::with_capacity(n);
    let mut live = 0usize;
    for slot in 0..n {
        let id = r.u32()?;
        let deleted = r.u8()? != 0;
        let layers = r.count(4)?;
        let mut neighbors = Vec::with_capacity(layers);
        for _ in 0..layers {
            let len = r.count(4)?;
            neighbors.push(r.u32s(len)?);
        }
        nodes.push(Node {
            id,
            deleted,
            neighbors,
        });
        id_to_slot.insert(id, slot as u32);
        if !deleted {
            live += 1;
        }
    }
    Ok(HnswIndex {
        config,
        metric,
        dim,
        data,
        nodes,
        id_to_slot,
        entry,
        max_level,
        rng_state,
        live,
        non_unit,
    })
}

fn encode_segment_index(w: &mut Writer<impl Write>, i: &SegmentIndex) {
    match i {
        SegmentIndex::Flat(f) => encode_flat(w, f),
        SegmentIndex::Hnsw(h) => encode_hnsw(w, h),
        SegmentIndex::Quant(q) => encode_quant(w, q),
    }
}

fn decode_segment_index(r: &mut Reader) -> Result<SegmentIndex, DbError> {
    match r.u8()? {
        TAG_FLAT => Ok(SegmentIndex::Flat(decode_flat(r)?)),
        TAG_HNSW => Ok(SegmentIndex::Hnsw(decode_hnsw(r)?)),
        TAG_QUANT => Ok(SegmentIndex::Quant(decode_quant(r)?)),
        other => Err(corrupt(format!("unknown segment tag {other}"))),
    }
}

fn encode_segmented(w: &mut Writer<impl Write>, idx: &SegmentedIndex) {
    encode_config(
        w,
        &CollectionConfig {
            dim: idx.dim,
            metric: idx.metric,
            index: idx.kind,
            hnsw: idx.hnsw.clone(),
            segment: idx.seg.clone(),
        },
    );
    w.u32(idx.head_start);
    w.u32(idx.sealed.len() as u32);
    for segment in &idx.sealed {
        w.u32(segment.start);
        w.u32(segment.end);
        encode_segment_index(w, &segment.index);
    }
    encode_segment_index(w, &idx.head);
}

fn decode_segmented(r: &mut Reader) -> Result<SegmentedIndex, DbError> {
    let config = decode_config(r)?;
    let head_start = r.u32()?;
    let n_sealed = r.count(8)?;
    let mut sealed = Vec::with_capacity(n_sealed);
    for _ in 0..n_sealed {
        let start = r.u32()?;
        let end = r.u32()?;
        let index = decode_segment_index(r)?;
        sealed.push(Arc::new(Segment { start, end, index }));
    }
    let head = decode_segment_index(r)?;
    Ok(SegmentedIndex {
        kind: config.index,
        metric: config.metric,
        dim: config.dim,
        hnsw: config.hnsw,
        seg: config.segment,
        sealed,
        head,
        head_start,
    })
}

// --------------------------------------------------------------- container

/// Checksums and counts what passes through to `inner`. Sits *under* the
/// `BufWriter`, so the CRC runs over 64 KiB blocks, not single fields.
struct CrcSink<W: Write> {
    inner: W,
    crc: u32,
    len: u64,
}

impl<W: Write> Write for CrcSink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc = crc32_update(self.crc, &buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Stream one container into `out`: header, `body`, trailing CRC. Returns
/// the bytes written.
fn write_container<W: Write>(
    out: W,
    magic: &[u8; 4],
    version: u32,
    last_seq: u64,
    body: impl FnOnce(&mut Writer<BufWriter<CrcSink<W>>>),
) -> io::Result<u64> {
    let sink = CrcSink {
        inner: out,
        crc: !0,
        len: 0,
    };
    let mut w = Writer::new(BufWriter::with_capacity(64 * 1024, sink));
    w.bytes(magic);
    w.u32(version);
    w.u64(last_seq);
    body(&mut w);
    if let Some(e) = w.err {
        return Err(e);
    }
    let mut sink = w.out.into_inner().map_err(io::IntoInnerError::into_error)?;
    sink.inner.write_all(&(!sink.crc).to_le_bytes())?;
    Ok(sink.len + 4)
}

/// Verify a container's CRC, magic and version; returns the stamped
/// sequence number and a reader over the body.
fn open_container<'a>(
    bytes: &'a [u8],
    magic: &[u8; 4],
    version: u32,
) -> Result<(u64, Reader<'a>), DbError> {
    if bytes.len() < magic.len() + 4 + 8 + 4 {
        return Err(corrupt("too short"));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(trailer.try_into().expect("4"));
    if crc32(body) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader::new(body);
    if r.take(4)? != magic {
        return Err(corrupt("bad magic"));
    }
    let found = r.u32()?;
    if found != version {
        return Err(corrupt(format!(
            "unsupported format version {found} (this build reads version {version})"
        )));
    }
    let last_seq = r.u64()?;
    Ok((last_seq, r))
}

/// Stream `index` into the sidecar container, stamped with the WAL
/// sequence number the index state includes. Returns the bytes written.
pub(crate) fn write_index(
    out: impl Write,
    index: &SegmentedIndex,
    last_seq: u64,
) -> io::Result<u64> {
    write_container(out, INDEX_MAGIC, INDEX_VERSION, last_seq, |w| {
        encode_segmented(w, index);
    })
}

/// Decode a sidecar produced by [`write_index`], returning the stamped
/// sequence number and the index.
///
/// # Errors
///
/// [`DbError::Persistence`] on any structural problem — bad magic, unknown
/// version, truncation, checksum mismatch, invalid tags. Callers treat every
/// failure identically: fall back to rebuilding the index from records.
pub(crate) fn decode_index(bytes: &[u8]) -> Result<(u64, SegmentedIndex), DbError> {
    let (last_seq, mut r) = open_container(bytes, INDEX_MAGIC, INDEX_VERSION)?;
    let index = decode_segmented(&mut r)?;
    r.finish()?;
    Ok((last_seq, index))
}

/// A decoded `<base>.snap`: everything a collection is rebuilt from except
/// its index (sidecar or rebuild) and postings (derived).
#[derive(Debug)]
pub(crate) struct Snapshot {
    pub last_seq: u64,
    pub name: String,
    pub config: CollectionConfig,
    pub next_internal: InternalId,
    /// `(internal id, record)` in strictly increasing internal-id order.
    pub records: Vec<(InternalId, Record)>,
}

/// Stream a snapshot into `out`; `records` must come in increasing
/// internal-id order. Returns the bytes written.
pub(crate) fn write_snapshot<'a>(
    out: impl Write,
    last_seq: u64,
    name: &str,
    config: &CollectionConfig,
    next_internal: InternalId,
    records: impl ExactSizeIterator<Item = (InternalId, &'a Record)>,
) -> io::Result<u64> {
    write_container(out, SNAPSHOT_MAGIC, SNAPSHOT_VERSION, last_seq, |w| {
        w.str(name);
        encode_config(w, config);
        w.u32(next_internal);
        w.u32(records.len() as u32);
        for (internal, record) in records {
            w.u32(internal);
            encode_record(w, record);
        }
    })
}

/// Decode a snapshot produced by [`write_snapshot`].
///
/// # Errors
///
/// [`DbError::Persistence`] on any structural problem. Unlike the sidecar
/// there is nothing to fall back to: the caller must refuse to open.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, DbError> {
    let (last_seq, mut r) = open_container(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
    let name = r.str()?;
    let config = decode_config(&mut r)?;
    let next_internal = r.u32()?;
    // Smallest record: internal id + empty id + dim + document tag + count.
    let count = r.count(4 + 4 + 4 + 1 + 4)?;
    let mut records: Vec<(InternalId, Record)> = Vec::with_capacity(count);
    for _ in 0..count {
        let internal = r.u32()?;
        let record = decode_record(&mut r)?;
        if internal >= next_internal || records.last().is_some_and(|(prev, _)| *prev >= internal) {
            return Err(corrupt(format!("internal id {internal} out of order")));
        }
        if record.embedding.dim() != config.dim {
            return Err(corrupt(format!(
                "record {:?} has dimension {}, collection has {}",
                record.id,
                record.embedding.dim(),
                config.dim
            )));
        }
        records.push((internal, record));
    }
    r.finish()?;
    Ok(Snapshot {
        last_seq,
        name,
        config,
        next_internal,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::VectorIndex;
    use crate::metadata::meta;
    use proptest::prelude::*;

    fn encode_index(index: &SegmentedIndex, last_seq: u64) -> Vec<u8> {
        let mut bytes = Vec::new();
        let written = write_index(&mut bytes, index, last_seq).unwrap();
        assert_eq!(written, bytes.len() as u64);
        bytes
    }

    fn unit_vectors(n: usize, dim: usize) -> Vec<Vec<f32>> {
        let mut state = 0x0dd5_eed5_u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / (1u32 << 24) as f32 - 0.5
        };
        (0..n)
            .map(|_| {
                let mut v: Vec<f32> = (0..dim).map(|_| next()).collect();
                let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                for x in &mut v {
                    *x /= norm;
                }
                v
            })
            .collect()
    }

    fn build(
        kind: IndexKind,
        quantize: bool,
        n: usize,
        dim: usize,
    ) -> (SegmentedIndex, Vec<Vec<f32>>) {
        let vs = unit_vectors(n, dim);
        let mut idx = SegmentedIndex::new(
            kind,
            dim,
            Metric::Cosine,
            HnswConfig::default(),
            SegmentConfig {
                seal_threshold: 16,
                quantize_sealed: quantize,
                compact_min_live: 4,
            },
        );
        for (i, v) in vs.iter().enumerate() {
            idx.insert(i as InternalId, v);
        }
        (idx, vs)
    }

    #[test]
    fn roundtrip_is_bit_identical_for_search() {
        for (kind, quantize) in [
            (IndexKind::Flat, false),
            (IndexKind::Flat, true),
            (IndexKind::Hnsw, false),
        ] {
            let (mut idx, vs) = build(kind, quantize, 60, 8);
            idx.remove(5);
            idx.remove(33);
            let bytes = encode_index(&idx, 1234);
            let (seq, back) = decode_index(&bytes).unwrap();
            assert_eq!(seq, 1234);
            assert_eq!(back.sealed_count(), idx.sealed_count());
            for q in vs.iter().step_by(7) {
                let a = idx.search(q, 10, None);
                let b = back.search(q, 10, None);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.id, y.id, "{kind:?} quantize={quantize}");
                    assert_eq!(
                        x.score.to_bits(),
                        y.score.to_bits(),
                        "scores must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn reopened_index_accepts_further_inserts() {
        let (idx, _) = build(IndexKind::Hnsw, false, 40, 8);
        let bytes = encode_index(&idx, 0);
        let (_, mut back) = decode_index(&bytes).unwrap();
        let more = unit_vectors(5, 8);
        for (i, v) in more.iter().enumerate() {
            back.insert((40 + i) as InternalId, v);
        }
        assert_eq!(back.len(), 45);
        // `more` reuses the generator seed, so more[0] duplicates vs[0];
        // either copy may win the tie, but the score must be exact.
        let hits = back.search(&more[0], 1, None);
        assert!(hits[0].score > 0.9999, "self-query score {}", hits[0].score);
    }

    #[test]
    fn corruption_is_rejected_at_every_flip() {
        let (idx, _) = build(IndexKind::Flat, true, 20, 4);
        let bytes = encode_index(&idx, 7);
        assert!(decode_index(&bytes).is_ok());
        // Flip one bit at a spread of offsets; the CRC must catch each.
        for offset in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x01;
            assert!(decode_index(&bad).is_err(), "flip at {offset} accepted");
        }
        // Truncations at every length must fail, not panic.
        for cut in (0..bytes.len()).step_by(31) {
            assert!(decode_index(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let (idx, _) = build(IndexKind::Flat, false, 4, 4);
        let mut bytes = encode_index(&idx, 0);
        bytes[4] = 99; // version byte
                       // Re-stamp the CRC so only the version check can object.
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = decode_index(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }
    fn encode_record_bytes(record: &Record) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_op(
            &WalOp::Upsert {
                record: record.clone(),
            },
            &mut bytes,
        );
        bytes
    }

    /// Field-by-field, bit-exact comparison (`PartialEq` on floats would
    /// call NaN unequal to itself and -0.0 equal to 0.0).
    fn assert_same(a: &Record, b: &Record) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.document, b.document);
        let bits = |r: &Record| -> Vec<u32> {
            r.embedding.as_slice().iter().map(|x| x.to_bits()).collect()
        };
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.metadata.len(), b.metadata.len());
        for ((ka, va), (kb, vb)) in a.metadata.iter().zip(&b.metadata) {
            assert_eq!(ka, kb);
            match (va, vb) {
                (MetaValue::Float(x), MetaValue::Float(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(va, vb),
            }
        }
    }

    #[test]
    fn record_roundtrip_keeps_awkward_values_bit_exact() {
        let record = Record {
            id: "ключ-🦀-\u{0}".into(),
            embedding: Embedding::new(vec![
                f32::NAN,
                -0.0,
                f32::MIN_POSITIVE / 2.0,     // subnormal
                f32::from_bits(0x7FC0_1234), // NaN with a payload
                f32::INFINITY,
            ]),
            document: Some(String::new()), // present but empty
            metadata: meta([
                ("b", false.into()),
                ("i", i64::MIN.into()),
                ("f", MetaValue::Float(-0.0)),
                ("nan", MetaValue::Float(f64::NAN)),
                ("s", "".into()),
                ("ü", "值".into()),
            ]),
        };
        let bytes = encode_record_bytes(&record);
        let WalOp::Upsert { record: back } = decode_op(&bytes).unwrap() else {
            panic!("wrong op");
        };
        assert_same(&record, &back);
        assert_eq!(back.document.as_deref(), Some(""));

        let absent = Record::new("x", Embedding::new(vec![]));
        let WalOp::Upsert { record: back } = decode_op(&encode_record_bytes(&absent)).unwrap()
        else {
            panic!("wrong op");
        };
        assert_eq!(
            back.document, None,
            "absent text must not become empty text"
        );
    }

    #[test]
    fn create_and_delete_ops_roundtrip() {
        let mut config = CollectionConfig::hnsw(384);
        config.metric = Metric::Euclidean;
        config.segment.quantize_sealed = true;
        config.hnsw.seed = u64::MAX;
        for op in [
            WalOp::Create {
                name: "odd/name ü".into(),
                config,
            },
            WalOp::Delete { id: "".into() },
        ] {
            let mut bytes = Vec::new();
            encode_op(&op, &mut bytes);
            assert_eq!(decode_op(&bytes).unwrap(), op);
            for cut in 0..bytes.len() {
                assert!(decode_op(&bytes[..cut]).is_err(), "prefix {cut} decoded");
            }
            bytes.push(0);
            assert!(decode_op(&bytes).is_err(), "trailing byte accepted");
        }
    }

    #[test]
    fn json_payload_is_named_as_the_old_format() {
        let err = decode_op(br#"{"Delete":{"id":"x"}}"#).unwrap_err();
        assert!(err.to_string().contains("JSON frame payload"), "{err}");
        assert!(decode_op(&[0x09])
            .unwrap_err()
            .to_string()
            .contains("unknown op tag"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any record survives the codec bit for bit, and no strict prefix
        /// of its encoding decodes (or panics).
        #[test]
        fn record_codec_roundtrips_and_rejects_every_prefix(
            id in "[a-zA-Z0-9 #/é值🦀]{0,12}",
            vector_bits in proptest::collection::vec(0u32..u32::MAX, 0..24),
            document in (0u8..3, "[a-z .,ü值🦀]{0,40}"),
            metadata in proptest::collection::vec(
                ("[a-z_é]{0,6}", 0u8..4, 0u64..u64::MAX, "[a-z ü值]{0,6}"), 0..6),
        ) {
            let record = Record {
                id,
                embedding: Embedding::new(vector_bits.into_iter().map(f32::from_bits).collect()),
                document: match document {
                    (0, _) => None,
                    (1, _) => Some(String::new()),
                    (_, text) => Some(text),
                },
                metadata: metadata
                    .into_iter()
                    .map(|(key, kind, bits, text)| {
                        let value = match kind {
                            0 => MetaValue::Bool(bits & 1 == 1),
                            1 => MetaValue::Int(bits as i64),
                            2 => MetaValue::Float(f64::from_bits(bits)),
                            _ => MetaValue::Str(text),
                        };
                        (key, value)
                    })
                    .collect(),
            };
            let bytes = encode_record_bytes(&record);
            let WalOp::Upsert { record: back } = decode_op(&bytes).unwrap() else {
                panic!("wrong op");
            };
            assert_same(&record, &back);
            for cut in 0..bytes.len() {
                prop_assert!(decode_op(&bytes[..cut]).is_err(), "prefix {} decoded", cut);
            }
        }
    }

    fn sample_snapshot() -> Vec<u8> {
        let records = [
            (
                2,
                Record::new("a", Embedding::new(vec![1.0, 0.0])).with_document("alpha"),
            ),
            (5, Record::new("b", Embedding::new(vec![0.0, 1.0]))),
        ];
        let mut bytes = Vec::new();
        let written = write_snapshot(
            &mut bytes,
            41,
            "docs",
            &CollectionConfig::flat(2),
            7,
            records.iter().map(|(i, r)| (*i, r)),
        )
        .unwrap();
        assert_eq!(written, bytes.len() as u64);
        bytes
    }

    #[test]
    fn snapshot_roundtrip_and_corruption() {
        let bytes = sample_snapshot();
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(
            (snap.last_seq, snap.name.as_str(), snap.next_internal),
            (41, "docs", 7)
        );
        assert_eq!(snap.config, CollectionConfig::flat(2));
        let ids: Vec<(InternalId, &str)> = snap
            .records
            .iter()
            .map(|(i, r)| (*i, r.id.as_str()))
            .collect();
        assert_eq!(ids, [(2, "a"), (5, "b")]);
        for offset in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[offset] ^= 0x01;
            assert!(decode_snapshot(&bad).is_err(), "flip at {offset} accepted");
            assert!(
                decode_snapshot(&bytes[..offset]).is_err(),
                "cut at {offset} accepted"
            );
        }
        // A sidecar is not a snapshot and vice versa.
        assert!(decode_index(&bytes)
            .unwrap_err()
            .to_string()
            .contains("magic"));
    }

    #[test]
    fn snapshot_of_a_newer_version_is_refused_by_name() {
        let mut bytes = sample_snapshot();
        bytes[4] = 2;
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = decode_snapshot(&bytes).unwrap_err().to_string();
        assert!(
            err.contains("version 2") && err.contains("reads version 1"),
            "{err}"
        );
    }
}
