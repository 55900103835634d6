//! The benchmark's own spans: a recorder, timing adapters around the
//! embedder and the models, and self-time arithmetic.
//!
//! Spans are taken here, around calls into the crates' public functions; the
//! program under test carries none of this. They stay in memory until the
//! run ends.

use llmms::embed::{Embedder, Embedding, SharedEmbedder};
use llmms::models::{
    Chunk, DoneReason, GenOptions, GenerationSession, LanguageModel, ModelError, ModelInfo,
    SharedModel,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// One finished span. `name` is `<layer>.<call>`; `parent` 0 means a root.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    /// Request the span belongs to (the replay's running number).
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU32,
    req: AtomicU32,
    /// The span open on the replay thread. The orchestrator fans model and
    /// embedding calls out to executor workers, whose own stacks are empty;
    /// the replay is sequential, so such a call belongs to this span.
    stage: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; it ends when dropped.
pub struct Open<'a> {
    recorder: &'a Recorder,
    span: Span,
    is_stage: bool,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            req: AtomicU32::new(0),
            stage: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Switch recording on or off; while off, the adapters only forward.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn next_request(&self) {
        self.req.fetch_add(1, Ordering::SeqCst);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, is_stage: bool) -> Option<Open<'_>> {
        if !self.enabled.load(Ordering::SeqCst) {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let parent = parent.unwrap_or_else(|| self.stage.load(Ordering::SeqCst));
        if is_stage {
            self.stage.store(id, Ordering::SeqCst);
        }
        Some(Open {
            recorder: self,
            span: Span {
                id,
                parent,
                req: self.req.load(Ordering::SeqCst),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            },
            is_stage,
        })
    }

    /// A span on the replay thread, which calls made from executor workers
    /// attach to.
    pub fn stage(&self, name: &'static str) -> Option<Open<'_>> {
        self.open(name, true)
    }

    /// A span around one adapter call, on whatever thread makes it.
    pub fn leaf(&self, name: &'static str) -> Option<Open<'_>> {
        self.open(name, false)
    }

    /// Record a span measured elsewhere as a child of the open `parent`,
    /// ending where the parent is now. Used for work inside a call that has
    /// no seam of its own (the store query inside `Retriever::retrieve`),
    /// timed by repeating it directly.
    pub fn synthetic_child(&self, parent: &Open<'_>, name: &'static str, dur: Duration) {
        let end_ns = self.now_ns();
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::SeqCst),
            parent: parent.span.id,
            req: parent.span.req,
            name,
            start_ns: end_ns
                .saturating_sub(dur.as_nanos() as u64)
                .max(parent.span.start_ns),
            end_ns,
        };
        self.spans
            .lock()
            .expect("no panic while recording")
            .push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no panic while recording"))
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.recorder.now_ns();
        OPEN.with(|open| {
            open.borrow_mut().pop();
        });
        if self.is_stage {
            self.recorder
                .stage
                .store(self.span.parent, Ordering::SeqCst);
        }
        if let Ok(mut spans) = self.recorder.spans.lock() {
            spans.push(self.span.clone());
        }
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its children cover. Children may overlap each other (three models
/// generate in parallel) and are clipped to the parent.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u32, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let (start, end) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if end > start {
                children.entry(s.parent).or_default().push((start, end));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(intervals) = children.get_mut(&s.id) {
                intervals.sort_unstable();
                let mut reach = 0;
                for &(start, end) in intervals.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The platform's default embedder with every call timed.
///
/// The memo cache inside can be emptied, so that each replay pass starts as
/// cold as the other: the second pass over the same requests would otherwise
/// find every prompt of the first already embedded.
pub struct TimedEmbedder {
    inner: RwLock<SharedEmbedder>,
    recorder: Arc<Recorder>,
}

impl TimedEmbedder {
    pub fn new(recorder: Arc<Recorder>) -> Arc<TimedEmbedder> {
        Arc::new(TimedEmbedder {
            inner: RwLock::new(llmms::embed::default_embedder()),
            recorder,
        })
    }

    pub fn reset_cache(&self) {
        *self.inner.write().expect("no panic while embedding") = llmms::embed::default_embedder();
    }

    fn inner(&self) -> SharedEmbedder {
        Arc::clone(&self.inner.read().expect("no panic while embedding"))
    }
}

impl Embedder for TimedEmbedder {
    fn dim(&self) -> usize {
        self.inner().dim()
    }

    fn embed(&self, text: &str) -> Embedding {
        let inner = self.inner();
        let _span = self.recorder.leaf("embed.embed");
        inner.embed(text)
    }

    fn embed_batch(&self, texts: &[&str]) -> Vec<Embedding> {
        let inner = self.inner();
        let _span = self.recorder.leaf("embed.embed_batch");
        inner.embed_batch(texts)
    }

    // The incremental accumulators the scorer asks for do their work inside
    // `core`; they are handed through untimed and count as core's time.
    fn accumulator(&self) -> Option<Box<dyn llmms::embed::IncrementalAccumulator>> {
        self.inner().accumulator()
    }
}

/// Times `start` (where a simulated model plans its whole answer) and every
/// `next_chunk` of the model it wraps.
pub struct TimedModel {
    pub inner: SharedModel,
    pub recorder: Arc<Recorder>,
}

impl LanguageModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn info(&self) -> ModelInfo {
        self.inner.info()
    }

    fn start(&self, prompt: &str, options: &GenOptions) -> Box<dyn GenerationSession> {
        let _span = self.recorder.leaf("models.start");
        Box::new(TimedSession {
            inner: self.inner.start(prompt, options),
            recorder: Arc::clone(&self.recorder),
        })
    }
}

struct TimedSession {
    inner: Box<dyn GenerationSession>,
    recorder: Arc<Recorder>,
}

impl GenerationSession for TimedSession {
    fn next_chunk(&mut self, max_tokens: usize) -> Result<Chunk, ModelError> {
        let _span = self.recorder.leaf("models.chunk");
        self.inner.next_chunk(max_tokens)
    }

    fn tokens_generated(&self) -> usize {
        self.inner.tokens_generated()
    }

    fn response_so_far(&self) -> &str {
        self.inner.response_so_far()
    }

    fn done_reason(&self) -> Option<DoneReason> {
        self.inner.done_reason()
    }

    fn simulated_latency(&self) -> Duration {
        self.inner.simulated_latency()
    }

    fn abort(&mut self) {
        self.inner.abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t.t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),  // root
            span(2, 1, 10, 40),  // child
            span(3, 1, 30, 60),  // overlaps child 2: union 10..60 = 50
            span(4, 1, 70, 80),  // disjoint: +10
            span(5, 2, 15, 25),  // grandchild of 1, child of 2
            span(6, 1, 90, 130), // runs past the parent: clipped to 90..100
            span(7, 9, 0, 5),    // parent never recorded: a root of its own
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10 - 10);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&5], 10);
        assert_eq!(selfs[&6], 40);
        assert_eq!(selfs[&7], 5);
    }

    #[test]
    fn nesting_follows_the_thread_and_workers_attach_to_the_stage() {
        let rec = Recorder::new();
        assert!(
            rec.stage("a.off").is_none(),
            "disabled recorder records nothing"
        );
        rec.set_enabled(true);
        rec.next_request();
        {
            let _root = rec.stage("llmms.ask");
            {
                let _run = rec.stage("core.run");
                let _leaf = rec.leaf("embed.embed");
                let rec2 = Arc::clone(&rec);
                std::thread::spawn(move || {
                    let _outer = rec2.leaf("models.start");
                    let _inner = rec2.leaf("embed.embed");
                })
                .join()
                .unwrap();
            }
            let _after = rec.stage("session.push");
        }
        let spans = rec.take();
        let by_name = |n: &str| -> Vec<&Span> { spans.iter().filter(|s| s.name == n).collect() };
        let root = by_name("llmms.ask")[0];
        let run = by_name("core.run")[0];
        let start = by_name("models.start")[0];
        assert_eq!(root.parent, 0);
        assert_eq!(run.parent, root.id);
        assert_eq!(
            start.parent, run.id,
            "worker call attaches to the open stage"
        );
        let embeds = by_name("embed.embed");
        assert!(embeds.iter().any(|e| e.parent == run.id));
        assert!(embeds.iter().any(|e| e.parent == start.id));
        assert_eq!(by_name("session.push")[0].parent, root.id);
        assert!(spans.iter().all(|s| s.req == 1 && s.end_ns >= s.start_ns));
        assert_eq!(root.layer(), "llmms");
    }
}
