//! Request-scoped tracing: per-query span trees with parent links,
//! key-value attributes, and ok/degraded/error status.
//!
//! A [`Tracer`] owns one trace (one query). Layers create [`Span`]s either
//! from an explicit [`SpanContext`] handle or from the thread-local current
//! context ([`current`] / [`set_current`]), which bridges crate boundaries
//! without threading a tracer through every signature. Parallel workers get
//! an explicitly cloned [`SpanContext`] instead — parent links define the
//! tree, so the order spans are pushed in does not matter.
//!
//! The disabled fast path is allocation-free: a disabled [`Tracer`],
//! [`SpanContext`], or [`Span`] is a `None` all the way down, and attribute
//! setters take closures ([`Span::attr_with`]) so value construction is
//! skipped entirely when nothing records. This mirrors the contract the rest
//! of `llmms-obs` keeps (see `tests/no_alloc.rs`).
//!
//! Recording is lock-light: span ids come from one atomic, a live span owns
//! all its data, and the only shared mutation is a short `Mutex`-guarded
//! `Vec::push` when a span ends.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global switch for creating new tracers. When off, [`Tracer::new`] returns
/// a disabled tracer and the whole request records nothing.
static TRACING_ENABLED: AtomicBool = AtomicBool::new(true);

/// Enable or disable creation of new tracers (default: enabled). Existing
/// tracers are unaffected.
pub fn set_enabled(on: bool) {
    TRACING_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether new tracers record anything.
#[inline]
pub fn enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// Raw timestamp for span start/end marks, in *clock ticks*.
///
/// On x86_64 this is the TSC (`rdtsc`, ~half the cost of `Instant::now`),
/// read twice per span on the hottest path in the crate. Tick values are
/// meaningless on their own; [`Tracer::finish`] converts them to
/// microseconds-since-epoch using a per-trace calibration (the tracer knows
/// both the tick span and the `Instant` span of the whole trace). Modern
/// x86_64 has an invariant, core-synchronized TSC, so a migrating thread
/// still produces monotonic marks at microsecond granularity.
///
/// On other architectures this falls back to `Instant`-derived microseconds
/// directly (the calibration then divides out to ~1.0).
#[inline]
fn now_ticks(epoch: &Instant) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = epoch;
        // SAFETY: `rdtsc` has no preconditions; it only reads the counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        epoch.elapsed().as_micros() as u64
    }
}

/// An opaque point-in-time mark, captured with [`tick_mark`]. `Copy` and
/// `Send`: 8 bytes on x86_64, an `Instant` elsewhere.
#[derive(Clone, Copy, Debug)]
pub struct TickMark {
    #[cfg(target_arch = "x86_64")]
    raw: u64,
    #[cfg(not(target_arch = "x86_64"))]
    at: Instant,
}

/// Read the clock without touching any trace state — a single `rdtsc` on
/// x86_64. Lets a worker thread capture the moment its work finished and
/// ship that back to the thread that owns the span (8 bytes through a
/// channel) instead of moving the span itself across threads; the owner
/// applies it with [`Span::stamp_end_at`].
#[inline]
pub fn tick_mark() -> TickMark {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: `rdtsc` has no preconditions; it only reads the counter.
        TickMark {
            raw: unsafe { core::arch::x86_64::_rdtsc() },
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        TickMark { at: Instant::now() }
    }
}

impl TickMark {
    /// Raw tick value relative to `epoch` (see [`now_ticks`]).
    #[inline]
    fn ticks(self, epoch: &Instant) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            let _ = epoch;
            self.raw
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.at.saturating_duration_since(*epoch).as_micros() as u64
        }
    }
}

/// SplitMix64 — cheap, well-mixed hash used for trace-id generation and
/// deterministic sampling decisions.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Identifier of one trace (one end-to-end request). Rendered as 16 lowercase
/// hex digits, e.g. in the `X-LLMMS-Trace-Id` header.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Wrap a raw id. Zero means "absent" on the wire, so it is remapped.
    pub fn from_raw(raw: u64) -> TraceId {
        TraceId(if raw == 0 { 1 } else { raw })
    }

    /// The raw 64-bit id.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Render as 16 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse a hex id as produced by [`TraceId::to_hex`] (or sent by a peer).
    pub fn from_hex(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId::from_raw)
    }

    /// Generate a fresh process-unique id (time-seeded counter, mixed).
    pub fn generate() -> TraceId {
        static SEED: OnceLock<u64> = OnceLock::new();
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let seed = *SEED.get_or_init(|| {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5eed);
            splitmix64(nanos ^ u64::from(std::process::id()))
        });
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        TraceId::from_raw(splitmix64(seed.wrapping_add(n)))
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Outcome recorded on a span. Ordered so that `max` picks the worst.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanStatus {
    /// Completed normally.
    Ok,
    /// Completed but with reduced quality (e.g. deadline-truncated answer).
    Degraded,
    /// Failed.
    Error,
}

impl SpanStatus {
    /// Stable lowercase name for serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Degraded => "degraded",
            SpanStatus::Error => "error",
        }
    }
}

/// A span attribute value. Typed so that the hot numeric attributes
/// (token counts, round numbers, byte sizes) and interned names never
/// allocate; only genuinely dynamic text pays for a `String`.
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    /// A static label (route names, strategy tags).
    Static(&'static str),
    /// Dynamic text (error messages, addresses). Boxed so the enum stays
    /// 24 bytes — span records are copied around enough that width matters.
    Str(Box<str>),
    /// Shared text — clone is one refcount bump (model names).
    Shared(Arc<str>),
    /// A number, rendered unquoted in JSON exports.
    U64(u64),
}

impl AttrValue {
    /// The textual value, for string-valued attributes.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Static(s) => Some(s),
            AttrValue::Str(s) => Some(s),
            AttrValue::Shared(s) => Some(s),
            AttrValue::U64(_) => None,
        }
    }

    /// The numeric value, for number-valued attributes.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::U64(n) => Some(*n),
            _ => None,
        }
    }
}

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> AttrValue {
        AttrValue::Static(s)
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        AttrValue::Str(s.into_boxed_str())
    }
}

impl From<Arc<str>> for AttrValue {
    fn from(s: Arc<str>) -> AttrValue {
        AttrValue::Shared(s)
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> AttrValue {
        AttrValue::U64(n)
    }
}

impl From<usize> for AttrValue {
    fn from(n: usize) -> AttrValue {
        AttrValue::U64(n as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(n: u32) -> AttrValue {
        AttrValue::U64(u64::from(n))
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Static(s) => f.write_str(s),
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Shared(s) => f.write_str(s),
            AttrValue::U64(n) => write!(f, "{n}"),
        }
    }
}

/// Attribute list with two inline slots. Nearly every span in the taxonomy
/// carries at most two attributes (`model` + `tokens`, `count` +
/// `backoff_ms`, `k` + `hits`...), so the common case does not allocate at
/// all; larger lists spill to a `Vec`.
#[derive(Clone, Debug, Default)]
pub struct AttrList {
    inline: [Option<(&'static str, AttrValue)>; 2],
    spill: Vec<(&'static str, AttrValue)>,
}

impl AttrList {
    /// An empty list (no allocation).
    #[inline]
    pub fn new() -> AttrList {
        AttrList::default()
    }

    /// Append an attribute.
    #[inline]
    pub fn push(&mut self, key: &'static str, value: AttrValue) {
        for slot in &mut self.inline {
            if slot.is_none() {
                *slot = Some((key, value));
                return;
            }
        }
        self.spill.push((key, value));
    }

    /// Iterate attributes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &AttrValue)> {
        self.inline
            .iter()
            .flatten()
            .map(|(k, v)| (*k, v))
            .chain(self.spill.iter().map(|(k, v)| (*k, v)))
    }

    /// First value recorded under `key`.
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.inline.iter().flatten().count() + self.spill.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One finished span, as stored in a completed trace.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span id, unique within the trace (never 0).
    pub id: u64,
    /// Parent span id; 0 marks a root.
    pub parent: u64,
    /// Operation name (static taxonomy: `request`, `orchestrate`, `round`,
    /// `arm`, `retry`, `score`, `embed_query`, `rag_retrieve`, `wal_append`,
    /// `wal_fsync`, `snapshot`, ...).
    pub name: &'static str,
    /// Start offset in microseconds since the trace epoch.
    pub start_us: u64,
    /// End offset in microseconds since the trace epoch.
    pub end_us: u64,
    /// Outcome.
    pub status: SpanStatus,
    /// Key-value attributes (model names, token counts, error messages...).
    pub attrs: AttrList,
}

impl SpanRecord {
    /// Span duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Look up a string-valued attribute by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).and_then(AttrValue::as_str)
    }

    /// Look up a number-valued attribute by key.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attrs.get(key).and_then(AttrValue::as_u64)
    }
}

struct TraceInner {
    trace_id: u64,
    epoch: Instant,
    /// Tick reading taken together with `epoch` — the calibration anchor.
    epoch_ticks: u64,
    next_id: AtomicU64,
    /// Finished spans. `start_us`/`end_us` hold **raw clock ticks** (see
    /// [`now_ticks`]) until [`Tracer::finish`] converts them to
    /// microseconds; records never leave this module unconverted.
    spans: Mutex<Vec<SpanRecord>>,
}

/// Records one trace. Cheap to clone (an `Arc` under the hood); a disabled
/// tracer is a `None` and records nothing.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceInner>>,
}

impl Tracer {
    /// A tracer that records nothing and never allocates.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Start a new trace, unless tracing is globally [disabled](set_enabled).
    pub fn new(trace_id: TraceId) -> Tracer {
        if !enabled() {
            return Tracer::disabled();
        }
        let epoch = Instant::now();
        Tracer {
            inner: Some(Arc::new(TraceInner {
                trace_id: trace_id.get(),
                epoch,
                epoch_ticks: now_ticks(&epoch),
                next_id: AtomicU64::new(1),
                // A typical orchestrated query lands a few dozen spans;
                // pre-sizing keeps the hot path free of realloc copies.
                spans: Mutex::new(Vec::with_capacity(64)),
            })),
        }
    }

    /// Whether this tracer records spans.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, when recording.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|i| TraceId::from_raw(i.trace_id))
    }

    /// Open a root span (no parent).
    pub fn root_span(&self, name: &'static str) -> Span {
        self.span_with_parent(name, 0)
    }

    /// Open a span under an explicit parent id (0 = root).
    #[inline]
    pub fn span_with_parent(&self, name: &'static str, parent: u64) -> Span {
        let Some(inner) = &self.inner else {
            return Span { inner: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        Span {
            inner: Some(SpanInner {
                tracer: Arc::clone(inner),
                epoch: inner.epoch,
                id,
                parent,
                name,
                start_ticks: now_ticks(&inner.epoch),
                end_ticks: None,
                status: SpanStatus::Ok,
                attrs: AttrList::new(),
            }),
        }
    }

    /// Finish the trace: drain all recorded spans. Returns `None` when
    /// disabled or when nothing was recorded. Spans still live keep recording
    /// into the tracer but will not appear in this snapshot.
    pub fn finish(&self) -> Option<TraceData> {
        let inner = self.inner.as_ref()?;
        let mut spans = std::mem::take(&mut *inner.spans.lock().unwrap_or_else(|e| e.into_inner()));
        if spans.is_empty() {
            return None;
        }
        // Convert raw tick marks to microseconds since the trace epoch. The
        // tick rate is calibrated against this trace's own wall-clock span,
        // so no global TSC-frequency probe is needed and a wrong `tsc_khz`
        // cannot skew the timeline.
        let elapsed_us = inner.epoch.elapsed().as_micros() as u64;
        let elapsed_ticks = now_ticks(&inner.epoch).saturating_sub(inner.epoch_ticks);
        let us_per_tick = elapsed_us as f64 / elapsed_ticks.max(1) as f64;
        for span in &mut spans {
            let to_us =
                |raw: u64| (raw.saturating_sub(inner.epoch_ticks) as f64 * us_per_tick) as u64;
            span.start_us = to_us(span.start_us);
            span.end_us = to_us(span.end_us).max(span.start_us);
        }
        Some(TraceData {
            trace_id: inner.trace_id,
            spans,
        })
    }
}

struct SpanInner {
    tracer: Arc<TraceInner>,
    /// Copy of the tracer's epoch, so time-stamping ([`Span::stamp_end`],
    /// drop) reads purely span-local data — a worker thread holding a span
    /// never touches the shared `TraceInner` cacheline the coordinator is
    /// mutating through the id counter. (Only read on non-x86_64, where
    /// [`now_ticks`] is `Instant`-based.)
    epoch: Instant,
    id: u64,
    parent: u64,
    name: &'static str,
    /// Raw tick mark ([`now_ticks`]); converted to µs at [`Tracer::finish`].
    start_ticks: u64,
    /// Raw tick mark stamped by [`Span::stamp_end`]; `None` means "stamp at
    /// drop time".
    end_ticks: Option<u64>,
    status: SpanStatus,
    attrs: AttrList,
}

/// RAII handle for a live span; the record is pushed to the tracer on drop.
#[derive(Default)]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// A span that records nothing.
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Whether this span records anything. Gate any allocation needed to
    /// build attribute values on this.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// The span id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }

    /// A context whose spans become children of this span.
    pub fn context(&self) -> SpanContext {
        match &self.inner {
            Some(i) => SpanContext {
                tracer: Tracer {
                    inner: Some(Arc::clone(&i.tracer)),
                },
                parent: i.id,
            },
            None => SpanContext::disabled(),
        }
    }

    /// Attach an attribute. Prefer [`Span::attr_with`] when building the
    /// value allocates.
    #[inline]
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(i) = &mut self.inner {
            i.attrs.push(key, value.into());
        }
    }

    /// Attach an attribute, invoking the value constructor only when
    /// recording — keeps the disabled path allocation-free.
    pub fn attr_with<V: Into<AttrValue>>(&mut self, key: &'static str, value: impl FnOnce() -> V) {
        if let Some(i) = &mut self.inner {
            i.attrs.push(key, value().into());
        }
    }

    /// Escalate the span status (a worse status always wins; setting `Ok`
    /// after `Error` keeps `Error`).
    #[inline]
    pub fn set_status(&mut self, status: SpanStatus) {
        if let Some(i) = &mut self.inner {
            i.status = i.status.max(status);
        }
    }

    /// Stamp the span's end time now without recording it yet. The record
    /// is still pushed when the span drops, but with this timestamp. Lets a
    /// worker thread finish its measurement locally while the contended
    /// push onto the tracer's shared span list happens later, on whichever
    /// thread ends up dropping the span (see `runpool::generate_round`).
    #[inline]
    pub fn stamp_end(&mut self) {
        if let Some(i) = &mut self.inner {
            i.end_ticks = Some(now_ticks(&i.epoch));
        }
    }

    /// Stamp the span's end at a [`TickMark`] captured earlier — possibly on
    /// another thread (see [`tick_mark`]).
    #[inline]
    pub fn stamp_end_at(&mut self, mark: TickMark) {
        if let Some(i) = &mut self.inner {
            i.end_ticks = Some(mark.ticks(&i.epoch));
        }
    }

    /// End the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let Some(i) = self.inner.take() else { return };
        let end_ticks = i.end_ticks.unwrap_or_else(|| now_ticks(&i.epoch));
        // `start_us`/`end_us` hold raw ticks here; `Tracer::finish` converts
        // every record to microseconds before a trace leaves the module.
        let record = SpanRecord {
            id: i.id,
            parent: i.parent,
            name: i.name,
            start_us: i.start_ticks,
            end_us: end_ticks,
            status: i.status,
            attrs: i.attrs,
        };
        i.tracer
            .spans
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }
}

/// A position in a trace: which tracer, and which span new children hang
/// from. Cheap to clone and `Send`, so it can cross threads explicitly
/// (parallel generation workers) or sit in thread-local storage.
#[derive(Clone, Default)]
pub struct SpanContext {
    tracer: Tracer,
    parent: u64,
}

impl SpanContext {
    /// A context that records nothing.
    pub fn disabled() -> SpanContext {
        SpanContext {
            tracer: Tracer::disabled(),
            parent: 0,
        }
    }

    /// Whether spans created from this context record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// The trace id, when recording.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.tracer.trace_id()
    }

    /// Open a child span at this position.
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        self.tracer.span_with_parent(name, self.parent)
    }

    /// Record an already-completed span directly as a child of this
    /// position, from two pre-captured [`TickMark`]s. Returns the new span's
    /// id (0 when disabled) for parenting children via
    /// [`SpanContext::record_span_under`].
    ///
    /// This is the zero-ceremony path for hot call sites that time work
    /// themselves (e.g. the parallel-round barrier): no RAII handle is
    /// built, the finished record goes straight onto the trace's span list
    /// in one push. Callers must gate attribute construction on
    /// [`SpanContext::is_enabled`] themselves.
    #[inline]
    pub fn record_span(
        &self,
        name: &'static str,
        start: TickMark,
        end: TickMark,
        status: SpanStatus,
        attrs: AttrList,
    ) -> u64 {
        self.record_span_under(self.parent, name, start, end, status, attrs)
    }

    /// [`SpanContext::record_span`] with an explicit parent id — used to
    /// hang marker children (retries, failures) off a directly-recorded
    /// span.
    #[inline]
    pub fn record_span_under(
        &self,
        parent: u64,
        name: &'static str,
        start: TickMark,
        end: TickMark,
        status: SpanStatus,
        attrs: AttrList,
    ) -> u64 {
        let Some(inner) = &self.tracer.inner else {
            return 0;
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        record_parts(inner, id, parent, name, start, end, status, attrs);
        id
    }

    /// Open a lean RAII scope: a span id is reserved immediately (so
    /// children can parent on it via [`ScopeSpan::context`]) and one
    /// [`SpanRecord`] is pushed when the scope drops. Unlike [`Span`] this
    /// borrows the context instead of bumping the tracer refcount and keeps
    /// no per-span epoch — the cheapest way to bracket work on the
    /// orchestration hot path.
    #[inline]
    pub fn scope(&self, name: &'static str) -> ScopeSpan<'_> {
        match &self.tracer.inner {
            Some(inner) => ScopeSpan {
                ctx: self,
                id: inner.next_id.fetch_add(1, Ordering::Relaxed),
                name,
                start: Some(tick_mark()),
                status: SpanStatus::Ok,
                attrs: AttrList::new(),
            },
            None => ScopeSpan {
                ctx: self,
                id: 0,
                name,
                start: None,
                status: SpanStatus::Ok,
                attrs: AttrList::new(),
            },
        }
    }

    /// The underlying tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

/// Push one finished record onto a trace's span list.
#[allow(clippy::too_many_arguments)]
#[inline]
fn record_parts(
    inner: &TraceInner,
    id: u64,
    parent: u64,
    name: &'static str,
    start: TickMark,
    end: TickMark,
    status: SpanStatus,
    attrs: AttrList,
) {
    inner
        .spans
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(SpanRecord {
            id,
            parent,
            name,
            start_us: start.ticks(&inner.epoch),
            end_us: end.ticks(&inner.epoch),
            status,
            attrs,
        });
}

/// A lean RAII span scope (see [`SpanContext::scope`]): borrows its context,
/// reserves its id up front, records on drop. Disabled is `id == 0`.
pub struct ScopeSpan<'a> {
    ctx: &'a SpanContext,
    id: u64,
    name: &'static str,
    start: Option<TickMark>,
    status: SpanStatus,
    attrs: AttrList,
}

impl ScopeSpan<'_> {
    /// Whether this scope records anything.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.id != 0
    }

    /// The reserved span id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A context whose spans become children of this scope.
    pub fn context(&self) -> SpanContext {
        if self.id == 0 {
            SpanContext::disabled()
        } else {
            SpanContext {
                tracer: self.ctx.tracer.clone(),
                parent: self.id,
            }
        }
    }

    /// Attach an attribute (no-op when disabled).
    #[inline]
    pub fn set_attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.id != 0 {
            self.attrs.push(key, value.into());
        }
    }

    /// Attach an attribute, invoking the constructor only when recording.
    pub fn attr_with<V: Into<AttrValue>>(&mut self, key: &'static str, value: impl FnOnce() -> V) {
        if self.id != 0 {
            self.attrs.push(key, value().into());
        }
    }

    /// Escalate the status (a worse status always wins).
    #[inline]
    pub fn set_status(&mut self, status: SpanStatus) {
        if self.id != 0 {
            self.status = self.status.max(status);
        }
    }

    /// End the scope now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for ScopeSpan<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let Some(inner) = &self.ctx.tracer.inner else {
            return;
        };
        let start = self.start.unwrap_or_else(tick_mark);
        record_parts(
            inner,
            self.id,
            self.ctx.parent,
            self.name,
            start,
            tick_mark(),
            self.status,
            std::mem::take(&mut self.attrs),
        );
    }
}

thread_local! {
    static CURRENT: RefCell<SpanContext> = RefCell::new(SpanContext::disabled());
}

/// The calling thread's current span context (disabled when none installed).
pub fn current() -> SpanContext {
    CURRENT.with(|c| c.borrow().clone())
}

/// Install `ctx` as the thread's current context; the previous one is
/// restored when the returned guard drops.
pub fn set_current(ctx: SpanContext) -> CurrentGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    CurrentGuard { prev: Some(prev) }
}

/// Restores the previously current [`SpanContext`] on drop.
pub struct CurrentGuard {
    prev: Option<SpanContext>,
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Convenience: open a span under the thread's current context.
pub fn span_here(name: &'static str) -> Span {
    CURRENT.with(|c| c.borrow().span(name))
}

/// A completed trace: every span recorded by one tracer.
#[derive(Clone, Debug)]
pub struct TraceData {
    /// The trace id.
    pub trace_id: u64,
    /// All finished spans, in completion order (parent links give the tree).
    pub spans: Vec<SpanRecord>,
}

impl TraceData {
    /// The root span (parent id 0), if one was recorded.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.parent == 0)
    }

    /// Total duration: the root span's duration, falling back to the latest
    /// span end offset.
    pub fn duration_us(&self) -> u64 {
        match self.root() {
            Some(root) => root.duration_us(),
            None => self.spans.iter().map(|s| s.end_us).max().unwrap_or(0),
        }
    }

    /// The worst status across all spans.
    pub fn worst_status(&self) -> SpanStatus {
        self.spans
            .iter()
            .map(|s| s.status)
            .max()
            .unwrap_or(SpanStatus::Ok)
    }

    /// First value of `key` across spans (span completion order).
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.spans.iter().find_map(|s| s.attr(key))
    }

    /// Whether every span's parent link resolves to another recorded span
    /// (i.e. the spans form one connected tree under the roots).
    pub fn is_connected(&self) -> bool {
        self.spans
            .iter()
            .all(|s| s.parent == 0 || self.spans.iter().any(|p| p.id == s.parent))
    }

    /// Export as Chrome trace-event JSON (an array of `"ph":"X"` complete
    /// events), loadable in `chrome://tracing` and Perfetto. Overlapping
    /// spans are laid out on separate `tid` lanes so parallel arms render
    /// side by side.
    pub fn chrome_json(&self) -> String {
        let mut order: Vec<&SpanRecord> = self.spans.iter().collect();
        order.sort_by_key(|s| (s.start_us, s.end_us));
        // Greedy lane assignment: reuse the first lane that is free by the
        // time this span starts.
        let mut lane_ends: Vec<u64> = Vec::new();
        let mut out = String::from("[");
        for (n, span) in order.iter().enumerate() {
            let lane = match lane_ends.iter().position(|&end| end <= span.start_us) {
                Some(i) => i,
                None => {
                    lane_ends.push(0);
                    lane_ends.len() - 1
                }
            };
            lane_ends[lane] = span.end_us.max(span.start_us + 1);
            if n > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            json_escape_into(&mut out, span.name);
            out.push_str("\",\"cat\":\"llmms\",\"ph\":\"X\",\"pid\":1,\"tid\":");
            out.push_str(&(lane + 1).to_string());
            out.push_str(",\"ts\":");
            out.push_str(&span.start_us.to_string());
            out.push_str(",\"dur\":");
            out.push_str(&span.duration_us().max(1).to_string());
            out.push_str(",\"args\":{\"span_id\":\"");
            out.push_str(&span.id.to_string());
            out.push_str("\",\"parent\":\"");
            out.push_str(&span.parent.to_string());
            // `span_status`, not `status`: the root request span carries an
            // HTTP `status` attribute and duplicate keys in `args` would
            // make the export invalid JSON.
            out.push_str("\",\"span_status\":\"");
            out.push_str(span.status.as_str());
            out.push('"');
            for (k, v) in span.attrs.iter() {
                out.push_str(",\"");
                json_escape_into(&mut out, k);
                out.push_str("\":");
                match v {
                    AttrValue::U64(n) => out.push_str(&n.to_string()),
                    v => {
                        out.push('"');
                        json_escape_into(&mut out, v.as_str().unwrap_or_default());
                        out.push('"');
                    }
                }
            }
            out.push_str("}}");
        }
        out.push(']');
        out
    }
}

/// Append `s` to `out` with JSON string escaping.
fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_hex_round_trip() {
        let id = TraceId::from_raw(0x00ab_cdef_0123_4567);
        assert_eq!(id.to_hex().len(), 16);
        assert_eq!(TraceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(TraceId::from_hex("zz"), None);
        assert_eq!(TraceId::from_hex(""), None);
        // Zero remaps to a valid id.
        assert_eq!(TraceId::from_raw(0).get(), 1);
    }

    #[test]
    fn generated_ids_are_unique() {
        let a = TraceId::generate();
        let b = TraceId::generate();
        assert_ne!(a, b);
        assert_ne!(a.get(), 0);
    }

    #[test]
    fn span_tree_records_parent_links_attrs_and_status() {
        let tracer = Tracer::new(TraceId::from_raw(7));
        let mut root = tracer.root_span("request");
        root.set_attr("route", "/api/query");
        let ctx = root.context();
        let mut child = ctx.span("orchestrate");
        child.set_attr("strategy", "oua");
        let grandchild = child.context().span("round");
        grandchild.end();
        child.set_status(SpanStatus::Degraded);
        child.end();
        let mut failed = ctx.span("arm");
        failed.set_status(SpanStatus::Error);
        failed.set_status(SpanStatus::Ok); // cannot downgrade
        failed.end();
        root.end();

        let trace = tracer.finish().expect("spans recorded");
        assert_eq!(trace.trace_id, 7);
        assert_eq!(trace.spans.len(), 4);
        assert!(trace.is_connected());
        let root = trace.root().unwrap();
        assert_eq!(root.name, "request");
        assert_eq!(root.attr("route"), Some("/api/query"));
        let orchestrate = trace
            .spans
            .iter()
            .find(|s| s.name == "orchestrate")
            .unwrap();
        assert_eq!(orchestrate.parent, root.id);
        assert_eq!(orchestrate.status, SpanStatus::Degraded);
        let round = trace.spans.iter().find(|s| s.name == "round").unwrap();
        assert_eq!(round.parent, orchestrate.id);
        let arm = trace.spans.iter().find(|s| s.name == "arm").unwrap();
        assert_eq!(arm.status, SpanStatus::Error);
        assert_eq!(trace.worst_status(), SpanStatus::Error);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        assert_eq!(tracer.trace_id(), None);
        let mut span = tracer.root_span("request");
        assert!(!span.is_recording());
        span.set_attr("k", "v");
        span.attr_with("k2", || -> String {
            unreachable!("must not run when disabled")
        });
        span.end();
        assert!(tracer.finish().is_none());
    }

    #[test]
    fn set_enabled_false_disables_new_tracers() {
        set_enabled(false);
        let tracer = Tracer::new(TraceId::from_raw(1));
        set_enabled(true);
        assert!(!tracer.is_enabled());
        let tracer = Tracer::new(TraceId::from_raw(1));
        assert!(tracer.is_enabled());
    }

    #[test]
    fn thread_local_context_installs_and_restores() {
        let tracer = Tracer::new(TraceId::from_raw(9));
        let root = tracer.root_span("request");
        assert!(!current().is_enabled());
        {
            let _guard = set_current(root.context());
            assert!(current().is_enabled());
            assert_eq!(current().trace_id(), Some(TraceId::from_raw(9)));
            let inner = span_here("inner");
            inner.end();
            // Nested install/restore.
            {
                let _g2 = set_current(SpanContext::disabled());
                assert!(!current().is_enabled());
            }
            assert!(current().is_enabled());
        }
        assert!(!current().is_enabled());
        root.end();
        let trace = tracer.finish().unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, trace.root().unwrap().id);
    }

    #[test]
    fn context_crosses_threads() {
        let tracer = Tracer::new(TraceId::from_raw(11));
        let root = tracer.root_span("request");
        let ctx = root.context();
        let handles: Vec<_> = (0..4)
            .map(|n| {
                let ctx = ctx.clone();
                std::thread::spawn(move || {
                    let mut s = ctx.span("arm");
                    s.attr_with("n", || n.to_string());
                    s.end();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        root.end();
        let trace = tracer.finish().unwrap();
        assert_eq!(trace.spans.iter().filter(|s| s.name == "arm").count(), 4);
        assert!(trace.is_connected());
        // All span ids unique.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.spans.len());
    }

    #[test]
    fn chrome_export_is_valid_json_shape() {
        let tracer = Tracer::new(TraceId::from_raw(13));
        let mut root = tracer.root_span("request");
        root.set_attr("quote", "say \"hi\"\nnewline\\slash");
        let child = root.context().span("orchestrate");
        child.end();
        root.end();
        let trace = tracer.finish().unwrap();
        let json = trace.chrome_json();
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"request\""));
        assert!(json.contains("say \\\"hi\\\"\\nnewline\\\\slash"));
        // Two events -> exactly one separator at the top level.
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn finish_on_empty_trace_is_none() {
        let tracer = Tracer::new(TraceId::from_raw(5));
        assert!(tracer.finish().is_none());
    }
}
