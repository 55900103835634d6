//! Internal pool of in-flight generation sessions the round engine drives.
//!
//! `ModelRun` is where failure handling is centralized: transient backend
//! errors are retried with capped exponential backoff (accounted into the
//! simulated latency, not slept), stalls (consecutive empty chunks) and
//! fatal errors mark the run [`DoneReason::Failed`], and every terminal
//! outcome is reported to the shared [`HealthRegistry`] so the circuit
//! breaker can skip the model on the next query.

use crate::budget::{Lease, TokenBudget};
use crate::config::RetryConfig;
use crate::events::{EventRecorder, OrchestrationEvent};
use llmms_embed::{Embedding, IncrementalAccumulator, SharedEmbedder};
use llmms_models::{
    Chunk, DoneReason, GenOptions, GenerationSession, HealthRegistry, ModelError, SharedModel,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-run embedding state: an incremental accumulator (when the embedder
/// supports one) plus the cached snapshot.
///
/// Staleness is detected by byte length: every session type accumulates its
/// response append-only, so `response_so_far().len() != fed_bytes` iff new
/// text arrived. A length that *shrank* (a non-append-only custom session)
/// resets the accumulator defensively and re-feeds from scratch.
struct EmbedState {
    acc: Option<Box<dyn IncrementalAccumulator>>,
    /// Whether the embedder was already asked for an accumulator (it may
    /// legitimately have answered `None`).
    acc_probed: bool,
    /// Bytes of `response_so_far()` reflected in `cached` (and fed to the
    /// accumulator, when one exists).
    fed_bytes: usize,
    cached: Option<Arc<Embedding>>,
}

impl EmbedState {
    fn new() -> Self {
        Self {
            acc: None,
            acc_probed: false,
            fed_bytes: 0,
            cached: None,
        }
    }
}

/// An embedding computation extracted from a [`ModelRun`] so it can execute
/// on any thread: it owns the accumulator (taken out of the run) and the
/// text it must fold in. Pair every `begin_embed` with a `finish_embed` on
/// the originating run.
pub(crate) struct EmbedJob {
    kind: JobKind,
    total_bytes: usize,
}

enum JobKind {
    Incremental {
        acc: Box<dyn IncrementalAccumulator>,
        chunk: String,
    },
    Full {
        text: String,
    },
}

impl EmbedJob {
    /// Bytes of text this job will actually process — the parallelism
    /// threshold looks at this, not the full response length.
    pub fn pending_bytes(&self) -> usize {
        match &self.kind {
            JobKind::Incremental { chunk, .. } => chunk.len(),
            JobKind::Full { text } => text.len(),
        }
    }

    /// Run the embedding computation. Thread-agnostic and deterministic:
    /// results are identical regardless of where or in what order jobs run.
    pub fn compute(self, embedder: &SharedEmbedder) -> EmbedDone {
        match self.kind {
            JobKind::Incremental { mut acc, chunk } => {
                acc.append(&chunk);
                let embedding = Arc::new(acc.embedding());
                EmbedDone {
                    acc: Some(acc),
                    embedding,
                    total_bytes: self.total_bytes,
                }
            }
            JobKind::Full { text } => EmbedDone {
                acc: None,
                embedding: Arc::new(embedder.embed(&text)),
                total_bytes: self.total_bytes,
            },
        }
    }
}

/// The result of an [`EmbedJob`]: the updated accumulator (handed back to
/// the run) and the fresh embedding snapshot.
pub(crate) struct EmbedDone {
    acc: Option<Box<dyn IncrementalAccumulator>>,
    embedding: Arc<Embedding>,
    total_bytes: usize,
}

/// One candidate model's in-flight state during orchestration.
pub(crate) struct ModelRun {
    pub name: String,
    /// The name as a shared str — span attributes clone this for one
    /// refcount bump instead of a fresh `String` per round.
    shared_name: Arc<str>,
    session: Box<dyn GenerationSession>,
    embed: EmbedState,
    pub rounds: usize,
    pub pruned: bool,
    /// Terminal backend failure (fatal error, exhausted retries, stall, or
    /// an open breaker refusing to start the session).
    pub failed: bool,
    /// Why the run failed, when it did.
    pub error: Option<String>,
    /// Transient-error retries spent so far.
    pub retries: u32,
    /// Consecutive zero-token, not-done chunks.
    stalls: u32,
    /// Backoff time accounted (not slept) across retries.
    backoff: Duration,
    policy: RetryConfig,
    health: Arc<HealthRegistry>,
    /// Whether this run already reported its terminal verdict to `health`.
    reported: bool,
    /// Token count snapshotted before each round's generation, on or off
    /// thread. If the generation panics the session is lost with it and the
    /// permanent [`DeadSession`] reports zero; the floor keeps the
    /// already-budget-charged tokens visible in [`ModelRun::tokens`] so
    /// accounting still balances for a poisoned arm.
    tokens_floor: usize,
}

impl ModelRun {
    /// Start a run for every model against `prompt`. Models whose circuit
    /// breaker refuses admission never get a session: they join the pool as
    /// already-failed runs so result indices still line up with the pool.
    pub fn start_all(
        models: &[SharedModel],
        prompt: &str,
        options: &GenOptions,
        policy: RetryConfig,
        health: &Arc<HealthRegistry>,
    ) -> Vec<ModelRun> {
        models
            .iter()
            .map(|m| {
                let name = m.name().to_owned();
                if health.admit(&name) {
                    ModelRun {
                        shared_name: Arc::from(name.as_str()),
                        name,
                        session: m.start(prompt, options),
                        embed: EmbedState::new(),
                        rounds: 0,
                        pruned: false,
                        failed: false,
                        error: None,
                        retries: 0,
                        stalls: 0,
                        backoff: Duration::ZERO,
                        policy,
                        health: Arc::clone(health),
                        reported: false,
                        tokens_floor: 0,
                    }
                } else {
                    failure_metric(&name, "breaker_open");
                    ModelRun {
                        shared_name: Arc::from(name.as_str()),
                        name,
                        session: Box::new(DeadSession),
                        embed: EmbedState::new(),
                        rounds: 0,
                        pruned: false,
                        failed: true,
                        error: Some("circuit breaker open".into()),
                        retries: 0,
                        stalls: 0,
                        backoff: Duration::ZERO,
                        policy,
                        health: Arc::clone(health),
                        // A breaker skip is not new evidence about the
                        // backend: don't extend the failure streak.
                        reported: true,
                        tokens_floor: 0,
                    }
                }
            })
            .collect()
    }

    /// Generate up to `requested` tokens, charging the shared `budget`.
    /// Unused grant (model produced fewer tokens) is refunded. Transient
    /// errors are retried up to the policy's limit with capped exponential
    /// backoff; a fatal error, exhausted retries, or a stall streak mark the
    /// run [`DoneReason::Failed`] and refund the whole grant.
    pub fn generate(&mut self, requested: usize, budget: &mut TokenBudget) -> Chunk {
        let start = Instant::now();
        let chunk = self.generate_inner(requested, budget);
        self.note_generate_latency(start.elapsed());
        chunk
    }

    fn generate_inner(&mut self, requested: usize, budget: &mut TokenBudget) -> Chunk {
        if self.failed {
            return Chunk::finished(DoneReason::Failed);
        }
        let granted = budget.grant(requested);
        if granted == 0 {
            return Chunk {
                text: String::new(),
                tokens: 0,
                done: self.done(),
            };
        }
        let mut attempt = 0u32;
        loop {
            match self.session.next_chunk(granted) {
                Ok(chunk) => {
                    budget.refund(granted - chunk.tokens);
                    if chunk.tokens > 0 {
                        // No explicit embedding invalidation needed: the
                        // embed state detects new text by byte length.
                        self.rounds += 1;
                        self.stalls = 0;
                    } else if chunk.done.is_none() {
                        self.stalls += 1;
                        if self.stalls >= self.policy.stall_limit {
                            self.fail(
                                "stall",
                                format!("stalled: {} consecutive empty chunks", self.stalls),
                            );
                            return Chunk::finished(DoneReason::Failed);
                        }
                    }
                    if matches!(
                        chunk.done,
                        Some(DoneReason::Stop) | Some(DoneReason::Length)
                    ) {
                        self.report_success();
                    }
                    return chunk;
                }
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    self.retries += 1;
                    // Account the wait instead of sleeping — the simulation
                    // charges time, benchmarks stay fast.
                    self.backoff += self.policy.backoff_delay(attempt);
                }
                Err(e) => {
                    budget.refund(granted);
                    let kind = if e.is_transient() {
                        "retries_exhausted"
                    } else {
                        "fatal"
                    };
                    self.fail(kind, e.to_string());
                    return Chunk::finished(DoneReason::Failed);
                }
            }
        }
    }

    /// Extract this round's generation work so it can execute on any
    /// thread. The job owns the session (a [`DeadSession`] placeholder sits
    /// in the run until [`ModelRun::finish_generate`] reinstalls it), the
    /// token lease it may generate against, the retry policy, and the
    /// embedding accumulator, so the embed refresh overlaps with other arms'
    /// generation instead of waiting for scoring time.
    ///
    /// Returns `None` for failed runs and zero leases; callers fall back to
    /// the inline [`ModelRun::generate`] at the barrier, which replays those
    /// cases exactly.
    pub fn begin_generate(&mut self, lease: usize, embedder: &SharedEmbedder) -> Option<GenJob> {
        if self.failed || lease == 0 {
            return None;
        }
        self.probe_accumulator(embedder);
        let embed = GenEmbedJob {
            acc: self.embed.acc.take(),
            fed_bytes: self.embed.fed_bytes,
            have_cache: self.embed.cached.is_some(),
        };
        self.tokens_floor = self.session.tokens_generated();
        Some(GenJob {
            session: std::mem::replace(&mut self.session, Box::new(DeadSession)),
            lease,
            policy: self.policy,
            embed,
        })
    }

    /// Install a finished [`GenJob`]'s result and commit its budget lease.
    ///
    /// This is the other half of the determinism contract: everything with
    /// a shared side effect — grant/refund accounting, stall bookkeeping,
    /// failure reporting, health updates, metrics — happens here, at the
    /// round barrier, in arm order, replaying exactly what the sequential
    /// [`ModelRun::generate`] would have done with the same chunk.
    pub fn finish_generate(&mut self, done: GenDone, budget: &mut TokenBudget) -> Chunk {
        self.session = done.session;
        self.retries += done.retries_delta;
        self.backoff += done.backoff_delta;
        self.embed.acc = done.embed.acc;
        if let Some(e) = done.embed.embedding {
            self.embed.fed_bytes = done.embed.total_bytes;
            self.embed.cached = Some(e);
        }
        self.note_generate_latency(done.busy);
        let granted = budget.grant(done.lease);
        assert_eq!(granted, done.lease, "planned lease must commit in full");
        match done.outcome {
            GenOutcome::Chunk(chunk) => {
                budget.refund(granted - chunk.tokens);
                if chunk.tokens > 0 {
                    self.rounds += 1;
                    self.stalls = 0;
                } else if chunk.done.is_none() {
                    self.stalls += 1;
                    if self.stalls >= self.policy.stall_limit {
                        self.fail(
                            "stall",
                            format!("stalled: {} consecutive empty chunks", self.stalls),
                        );
                        return Chunk::finished(DoneReason::Failed);
                    }
                }
                if matches!(
                    chunk.done,
                    Some(DoneReason::Stop) | Some(DoneReason::Length)
                ) {
                    self.report_success();
                }
                chunk
            }
            GenOutcome::Error { transient, message } => {
                budget.refund(granted);
                let kind = if transient {
                    "retries_exhausted"
                } else {
                    "fatal"
                };
                self.fail(kind, message);
                Chunk::finished(DoneReason::Failed)
            }
        }
    }

    /// Record the wall time one generation call (or off-thread generation
    /// task) took for this arm.
    fn note_generate_latency(&self, elapsed: Duration) {
        let registry = llmms_obs::Registry::global();
        if registry.enabled() {
            registry
                .histogram_with("generate_latency_us", &[("model", &self.name)])
                .metric
                .record_duration(elapsed);
        }
    }

    /// Mark the run terminally failed: abort the session, remember the
    /// error, and report the failure to the health registry exactly once.
    fn fail(&mut self, kind: &str, error: String) {
        self.failed = true;
        self.error = Some(error);
        self.session.abort();
        if !self.reported {
            self.reported = true;
            self.health.record_failure(&self.name);
            failure_metric(&self.name, kind);
        }
    }

    /// Report the run healthy to the registry (once).
    fn report_success(&mut self) {
        if !self.reported {
            self.reported = true;
            self.health.record_success(&self.name);
        }
    }

    /// Force-abort an in-flight session (deadline expiry). Unlike
    /// [`ModelRun::fail`] this is not the model's fault: the breaker streak
    /// is untouched and the done reason stays `Aborted`.
    pub fn force_abort(&mut self) {
        if self.done().is_none() {
            self.session.abort();
        }
    }

    /// Fail the run whose generation panicked: its session is lost with
    /// the unwind, and [`ModelRun::tokens`] falls back to the floor taken
    /// before the call.
    fn poison(&mut self, p: &llmms_exec::TaskPoisoned, trace: &llmms_obs::SpanContext) -> Chunk {
        self.session = Box::new(DeadSession);
        self.fail("panic", p.to_string());
        arm_failed_span(self, trace);
        Chunk::finished(DoneReason::Failed)
    }

    /// The embedding of the current partial response, lazily refreshed.
    ///
    /// Returns a shared handle — scoring a round no longer clones the
    /// vector per call. With an accumulator attached the refresh costs
    /// O(new tokens); without one it re-embeds the full text.
    pub fn embedding(&mut self, embedder: &SharedEmbedder) -> Arc<Embedding> {
        if let Some(job) = self.begin_embed(embedder) {
            let done = job.compute(embedder);
            self.finish_embed(done);
        }
        Arc::clone(self.embed.cached.as_ref().expect("refreshed above"))
    }

    /// Whether the cached embedding no longer reflects the response text.
    pub fn embedding_stale(&self) -> bool {
        self.embed.cached.is_none() || self.session.response_so_far().len() != self.embed.fed_bytes
    }

    /// Ask the embedder for an accumulator, once per run (it may
    /// legitimately answer `None`: the run then re-embeds its full text).
    fn probe_accumulator(&mut self, embedder: &SharedEmbedder) {
        if !self.embed.acc_probed {
            self.embed.acc = embedder.accumulator();
            self.embed.acc_probed = true;
        }
    }

    /// Extract the pending embedding work, or `None` when the cache is
    /// fresh. The returned job owns everything it needs (accumulator +
    /// text), so it can run on any thread; hand its result back via
    /// [`ModelRun::finish_embed`] before the next `begin_embed`.
    pub fn begin_embed(&mut self, embedder: &SharedEmbedder) -> Option<EmbedJob> {
        if !self.embedding_stale() {
            return None;
        }
        self.probe_accumulator(embedder);
        let text = self.session.response_so_far();
        let total_bytes = text.len();
        let kind = match self.embed.acc.take() {
            Some(mut acc) => {
                // Sessions accumulate text append-only, so the unseen part
                // is the suffix past `fed_bytes`. A session that rewrote
                // its text (shorter, or to a suffix offset that is no
                // longer a char boundary) falls back to re-feeding from
                // scratch.
                let chunk = match text.get(self.embed.fed_bytes..) {
                    Some(suffix) => suffix.to_owned(),
                    None => {
                        acc.reset();
                        self.embed.fed_bytes = 0;
                        text.to_owned()
                    }
                };
                JobKind::Incremental { chunk, acc }
            }
            None => JobKind::Full {
                text: text.to_owned(),
            },
        };
        Some(EmbedJob { kind, total_bytes })
    }

    /// Install a finished [`EmbedJob`]'s result: the accumulator returns to
    /// the run and the snapshot becomes the cached embedding.
    pub fn finish_embed(&mut self, done: EmbedDone) {
        self.embed.acc = done.acc;
        self.embed.fed_bytes = done.total_bytes;
        self.embed.cached = Some(done.embedding);
    }

    /// Current response text.
    pub fn response(&self) -> &str {
        self.session.response_so_far()
    }

    /// Whether the model has produced any output yet.
    pub fn has_output(&self) -> bool {
        !self.session.response_so_far().is_empty()
    }

    /// Tokens generated by this model.
    pub fn tokens(&self) -> usize {
        // A reinstalled session always counts at least as many tokens as the
        // floor snapshot; only a poisoned arm stuck with [`DeadSession`]
        // actually falls back to it.
        self.session.tokens_generated().max(self.tokens_floor)
    }

    /// Done reason, if finished. A failed run reports
    /// [`DoneReason::Failed`] regardless of the session's own state.
    pub fn done(&self) -> Option<DoneReason> {
        if self.failed {
            Some(DoneReason::Failed)
        } else {
            self.session.done_reason()
        }
    }

    /// True when this model finished by emitting its stop token.
    pub fn stopped_naturally(&self) -> bool {
        self.done() == Some(DoneReason::Stop)
    }

    /// Whether the session can still generate.
    pub fn is_active(&self) -> bool {
        self.done().is_none() && !self.pruned
    }

    /// Whether the run is out of the race for scoring purposes — pruned by
    /// the strategy or failed by its backend.
    pub fn eliminated(&self) -> bool {
        self.pruned || self.failed
    }

    /// Prune the model (OUA) — aborts the underlying session.
    pub fn prune(&mut self) {
        self.pruned = true;
        self.session.abort();
    }

    /// Simulated latency accrued so far, including accounted retry backoff.
    pub fn simulated_latency(&self) -> std::time::Duration {
        self.session.simulated_latency() + self.backoff
    }
}

/// One arm's generation work for a round, extracted from its [`ModelRun`]
/// so it can execute on the shared executor. The job is *pure* with respect
/// to orchestrator state: it drives the owned session (and optionally folds
/// new text into the owned embedding accumulator) but touches no budget, no
/// health registry, and no metrics — those effects are applied at the round
/// barrier by [`ModelRun::finish_generate`], in arm order.
pub(crate) struct GenJob {
    session: Box<dyn GenerationSession>,
    lease: usize,
    policy: RetryConfig,
    embed: GenEmbedJob,
}

/// The embedding-overlap half of a [`GenJob`]: the accumulator and feed
/// cursor taken out of the run's [`EmbedState`], folded in-worker right
/// after generation so scoring-time refresh finds the cache already fresh.
struct GenEmbedJob {
    /// `None` means the embedder offers no accumulator: fall back to a full
    /// re-embed of the response, same as the scoring-time `Full` job.
    acc: Option<Box<dyn IncrementalAccumulator>>,
    fed_bytes: usize,
    /// Whether the run already had a cached embedding (an unchanged
    /// response with a cache needs no work; without one it must embed).
    have_cache: bool,
}

/// What a [`GenJob`] produced, handed back to the run at the round barrier.
pub(crate) struct GenDone {
    session: Box<dyn GenerationSession>,
    lease: usize,
    outcome: GenOutcome,
    retries_delta: u32,
    backoff_delta: Duration,
    embed: GenEmbedDone,
    /// Wall time the task occupied a worker — drives the per-arm latency
    /// histogram and the round busy/wall speedup metrics.
    busy: Duration,
}

enum GenOutcome {
    /// The session produced a chunk (possibly after accounted retries).
    Chunk(Chunk),
    /// The session errored fatally or exhausted its retries.
    Error { transient: bool, message: String },
}

struct GenEmbedDone {
    acc: Option<Box<dyn IncrementalAccumulator>>,
    /// `None` when the response was unchanged and already cached.
    embedding: Option<Arc<Embedding>>,
    total_bytes: usize,
}

impl GenJob {
    /// Drive the session against the lease, replaying the sequential retry
    /// loop exactly (same per-call attempt limit, same accounted backoff),
    /// then fold any new text into the carried accumulator. Deterministic
    /// and thread-agnostic: no shared state is read or written.
    pub fn compute(mut self, embedder: &SharedEmbedder) -> GenDone {
        let start = Instant::now();
        let mut attempt = 0u32;
        let mut retries_delta = 0u32;
        let mut backoff_delta = Duration::ZERO;
        let outcome = loop {
            match self.session.next_chunk(self.lease) {
                Ok(chunk) => break GenOutcome::Chunk(chunk),
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    attempt += 1;
                    retries_delta += 1;
                    backoff_delta += self.policy.backoff_delay(attempt);
                }
                Err(e) => {
                    break GenOutcome::Error {
                        transient: e.is_transient(),
                        message: e.to_string(),
                    }
                }
            }
        };
        let embed = self.embed.fold(self.session.as_ref(), embedder);
        GenDone {
            session: self.session,
            lease: self.lease,
            outcome,
            retries_delta,
            backoff_delta,
            embed,
            busy: start.elapsed(),
        }
    }
}

impl GenEmbedJob {
    /// Fold the session's unseen text into the accumulator and snapshot the
    /// embedding — the same operation sequence `begin_embed`/`compute` runs
    /// at scoring time, so the resulting values are identical; it merely
    /// happens while other arms are still generating.
    fn fold(self, session: &dyn GenerationSession, embedder: &SharedEmbedder) -> GenEmbedDone {
        let text = session.response_so_far();
        if text.len() == self.fed_bytes && self.have_cache {
            return GenEmbedDone {
                acc: self.acc,
                embedding: None,
                total_bytes: self.fed_bytes,
            };
        }
        let total_bytes = text.len();
        match self.acc {
            Some(mut acc) => {
                // Same suffix/fallback logic as `begin_embed`: append-only
                // sessions grow past `fed_bytes`; anything else re-feeds
                // from scratch.
                let chunk = match text.get(self.fed_bytes..) {
                    Some(suffix) => suffix,
                    None => {
                        acc.reset();
                        text
                    }
                };
                acc.append(chunk);
                let embedding = Arc::new(acc.embedding());
                GenEmbedDone {
                    acc: Some(acc),
                    embedding: Some(embedding),
                    total_bytes,
                }
            }
            None => GenEmbedDone {
                acc: None,
                embedding: Some(Arc::new(embedder.embed(text))),
                total_bytes,
            },
        }
    }
}

/// [`ModelRun::generate`] wrapped in an `"arm"` trace span: records the
/// model name and token count, emits a zero-length `"retry"` child when the
/// call spent retries, and marks the span `Error` when the run terminally
/// failed. The disabled-tracing path is one branch straight into
/// [`ModelRun::generate`] — no allocation, no span.
fn traced_generate(
    run: &mut ModelRun,
    requested: usize,
    budget: &mut TokenBudget,
    trace: &llmms_obs::SpanContext,
) -> Chunk {
    if !trace.is_enabled() {
        return run.generate(requested, budget);
    }
    let mut span = trace.span("arm");
    span.attr_with("model", || Arc::clone(&run.shared_name));
    let retries_before = run.retries;
    let backoff_before = run.backoff;
    let chunk = run.generate(requested, budget);
    span.set_attr("tokens", chunk.tokens);
    let retries = run.retries - retries_before;
    if retries > 0 {
        let mut retry = span.context().span("retry");
        retry.set_attr("count", retries);
        retry.attr_with("backoff_ms", || {
            (run.backoff - backoff_before).as_millis().to_string()
        });
        retry.end();
    }
    if chunk.done == Some(DoneReason::Failed) {
        span.set_status(llmms_obs::SpanStatus::Error);
        span.attr_with("error", || run.error.clone().unwrap_or_default());
    }
    span.end();
    chunk
}

/// Run one round of generation over `targets` (`(arm index, request)` pairs
/// in arm order), charging the shared budget. Arms whose lease is
/// pessimistically covered generate concurrently on the executor;
/// everything else — a round of fewer than two targets, deferred arms, zero
/// requests, already-failed runs — generates inline at the barrier, its
/// panic contained like a pool task's. Either
/// way the returned `(arm, chunk)` list, all budget accounting, and all
/// per-run state transitions are bit-identical to calling
/// [`ModelRun::generate`] target by target.
///
/// Tracing: each arm's work is wrapped in an `"arm"` span. The span itself
/// never leaves the coordinator thread — the worker only reads the clock
/// ([`llmms_obs::trace::tick_mark`], 8 bytes back through the channel) when
/// its compute finishes, and the coordinator applies that mark plus all
/// attributes at the barrier. This keeps every tracing allocation, every
/// tracer-shared cacheline, and the span structs themselves on one thread.
/// Span creation never feeds back into budget, scoring, or event state,
/// preserving the determinism contract.
pub(crate) fn generate_round(
    runs: &mut [ModelRun],
    targets: &[(usize, usize)],
    budget: &mut TokenBudget,
    embedder: &SharedEmbedder,
    trace: &llmms_obs::SpanContext,
) -> Vec<(usize, Chunk)> {
    let inline = targets.len() < 2;
    #[cfg(test)]
    let inline = inline || crate::reference::current().inline_rounds;
    if inline {
        return targets
            .iter()
            .map(|&(i, request)| (i, contained_generate(&mut runs[i], request, budget, trace)))
            .collect();
    }
    let requests: Vec<usize> = targets.iter().map(|&(_, request)| request).collect();
    let plan = budget.plan_leases(&requests);
    let recording = trace.is_enabled();
    let mut jobs = Vec::new();
    // Arm span timing stays on the coordinator: a start mark per dispatch
    // here, an end mark from the worker, and the span record built at the
    // barrier via the zero-ceremony `record_span` path. Empty (no
    // allocation) when tracing is off.
    let mut arm_starts: Vec<(usize, llmms_obs::trace::TickMark)> =
        Vec::with_capacity(if recording { targets.len() } else { 0 });
    for (&(i, _), lease) in targets.iter().zip(&plan) {
        if let Lease::Granted(lease) = *lease {
            if let Some(job) = runs[i].begin_generate(lease, embedder) {
                let embedder = Arc::clone(embedder);
                if recording {
                    arm_starts.push((i, llmms_obs::trace::tick_mark()));
                }
                jobs.push((i, move || {
                    let done = job.compute(&embedder);
                    // A bare clock read (no trace state touched); the
                    // coordinator stamps it onto the arm span at the
                    // barrier, so the span's end time is when the work
                    // finished, not when the barrier drained.
                    let end = recording.then(llmms_obs::trace::tick_mark);
                    (done, end)
                }));
            }
        }
    }
    let fan_out = jobs.len();
    let wall = Instant::now();
    let done = llmms_exec::submit_indexed(jobs).wait();
    let wall = wall.elapsed();
    let busy: Duration = done
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .map(|(d, _)| d.busy)
        .sum();
    let mut by_arm: Vec<Option<(GenDone, Option<llmms_obs::trace::TickMark>)>> =
        (0..runs.len()).map(|_| None).collect();
    // Arms whose job died on a worker (panic) instead of returning. Their
    // session is gone with the task, so they cannot replay sequentially —
    // they fail in place at the barrier.
    let mut poisoned: Vec<Option<llmms_exec::TaskPoisoned>> =
        (0..runs.len()).map(|_| None).collect();
    for (i, result) in done {
        match result {
            Ok(d) => by_arm[i] = Some(d),
            Err(p) => poisoned[i] = Some(p),
        }
    }
    parallel_round_metrics(fan_out, busy, wall);
    targets
        .iter()
        .map(|&(i, request)| {
            let chunk = match by_arm[i].take() {
                Some((d, end_mark)) => {
                    if recording {
                        let start = arm_starts
                            .iter()
                            .position(|(arm, _)| *arm == i)
                            .map(|p| arm_starts.swap_remove(p).1);
                        if let (Some(start), Some(end)) = (start, end_mark) {
                            // Hot success arms carry only inline numerics
                            // (`arm` index + `tokens`) — the arm→model
                            // binding is recorded once per trace on the
                            // `orchestrate` span's `arms` attribute. Error
                            // arms are rare and name the model directly.
                            let mut attrs = llmms_obs::trace::AttrList::new();
                            attrs.push("arm", (i as u64).into());
                            let mut status = llmms_obs::SpanStatus::Ok;
                            match &d.outcome {
                                GenOutcome::Chunk(chunk) => {
                                    attrs.push("tokens", chunk.tokens.into());
                                }
                                GenOutcome::Error { message, .. } => {
                                    status = llmms_obs::SpanStatus::Error;
                                    attrs.push("model", Arc::clone(&runs[i].shared_name).into());
                                    attrs.push("error", message.clone().into());
                                }
                            }
                            let arm_id = trace.record_span("arm", start, end, status, attrs);
                            if d.retries_delta > 0 {
                                let mut retry = llmms_obs::trace::AttrList::new();
                                retry.push("count", d.retries_delta.into());
                                retry.push(
                                    "backoff_ms",
                                    (d.backoff_delta.as_millis() as u64).into(),
                                );
                                trace.record_span_under(
                                    arm_id,
                                    "retry",
                                    end,
                                    end,
                                    llmms_obs::SpanStatus::Ok,
                                    retry,
                                );
                            }
                        }
                    }
                    let was_chunk = matches!(d.outcome, GenOutcome::Chunk(_));
                    let chunk = runs[i].finish_generate(d, budget);
                    // A stall streak materializes only here, at the barrier:
                    // the worker saw an ordinary chunk, so the failure needs
                    // its own marker span.
                    if was_chunk && chunk.done == Some(DoneReason::Failed) {
                        arm_failed_span(&runs[i], trace);
                    }
                    chunk
                }
                None => match poisoned[i].take() {
                    // The lease was planned but never committed: leaving it
                    // ungranted only strands headroom for this round, so the
                    // budget invariant (granted leases commit in full, in arm
                    // order) holds without touching the accountant.
                    Some(p) => runs[i].poison(&p, trace),
                    None => contained_generate(&mut runs[i], request, budget, trace),
                },
            };
            (i, chunk)
        })
        .collect()
}

/// [`traced_generate`] on the calling thread with the arm's panic
/// contained the way the executor contains a fanned-out arm's: the arm
/// fails in place, naming the poison, and nothing is charged for the call.
fn contained_generate(
    run: &mut ModelRun,
    requested: usize,
    budget: &mut TokenBudget,
    trace: &llmms_obs::SpanContext,
) -> Chunk {
    let used = budget.used();
    run.tokens_floor = run.session.tokens_generated();
    match llmms_exec::run_contained(|| traced_generate(run, requested, budget, trace)) {
        Ok(chunk) => chunk,
        Err(p) => {
            budget.refund(budget.used() - used);
            run.poison(&p, trace)
        }
    }
}

/// A zero-length error `"arm_failed"` span naming the model and its error,
/// for a failure the arm's own span could not record.
fn arm_failed_span(run: &ModelRun, trace: &llmms_obs::SpanContext) {
    if !trace.is_enabled() {
        return;
    }
    let now = llmms_obs::trace::tick_mark();
    let mut attrs = llmms_obs::trace::AttrList::new();
    attrs.push("model", Arc::clone(&run.shared_name).into());
    attrs.push("error", run.error.clone().unwrap_or_default().into());
    trace.record_span("arm_failed", now, now, llmms_obs::SpanStatus::Error, attrs);
}

/// Record the parallel-round fan-out and busy/wall metrics. The speedup
/// gauge is the last round's busy-over-wall ratio ×100; `/stats` derives
/// the aggregate `round_parallel_speedup` from the two histograms' sums.
fn parallel_round_metrics(fan_out: usize, busy: Duration, wall: Duration) {
    let registry = llmms_obs::Registry::global();
    if !registry.enabled() {
        return;
    }
    registry.gauge("round_fanout").metric.set(fan_out as i64);
    registry
        .histogram("round_busy_us")
        .metric
        .record_duration(busy);
    registry
        .histogram("round_wall_us")
        .metric
        .record_duration(wall);
    if !wall.is_zero() {
        let speedup = busy.as_secs_f64() / wall.as_secs_f64();
        registry
            .gauge("round_parallel_speedup_x100")
            .metric
            .set((speedup * 100.0) as i64);
    }
}

/// Record a `model_failures_total` sample for `model`.
fn failure_metric(model: &str, kind: &str) {
    let registry = llmms_obs::Registry::global();
    if registry.enabled() {
        registry
            .counter_with("model_failures_total", &[("model", model), ("kind", kind)])
            .metric
            .inc();
    }
}

/// A session for a model the breaker refused to start: finished-failed from
/// the first call, zero tokens, zero latency.
struct DeadSession;

impl GenerationSession for DeadSession {
    fn next_chunk(&mut self, _max_tokens: usize) -> Result<Chunk, ModelError> {
        Ok(Chunk::finished(DoneReason::Failed))
    }

    fn tokens_generated(&self) -> usize {
        0
    }

    fn response_so_far(&self) -> &str {
        ""
    }

    fn done_reason(&self) -> Option<DoneReason> {
        Some(DoneReason::Failed)
    }

    fn simulated_latency(&self) -> Duration {
        Duration::ZERO
    }

    fn abort(&mut self) {}
}

/// Emit a [`OrchestrationEvent::ModelFailed`] for every run that was dead
/// on arrival (its circuit breaker refused admission at `start_all`), plus
/// a zero-length error `"arm"` span per dead arm so the trace shows the
/// breaker skip even though no generation ever runs.
pub(crate) fn emit_preexisting_failures(
    runs: &[ModelRun],
    recorder: &mut EventRecorder,
    trace: &llmms_obs::SpanContext,
) {
    for run in runs.iter().filter(|r| r.failed) {
        recorder.emit_with(|| OrchestrationEvent::ModelFailed {
            model: run.name.clone(),
            error: run.error.clone().unwrap_or_default(),
        });
        if trace.is_enabled() {
            let mut span = trace.span("arm");
            span.set_status(llmms_obs::SpanStatus::Error);
            span.attr_with("model", || Arc::clone(&run.shared_name));
            span.attr_with("error", || run.error.clone().unwrap_or_default());
            span.end();
        }
    }
}

/// Emit what a round produced, in arm order: a
/// [`OrchestrationEvent::ModelChunk`] per chunk that carried tokens or
/// finished its arm, and a [`OrchestrationEvent::ModelFailed`] per arm the
/// round failed.
pub(crate) fn emit_round_chunks(
    runs: &[ModelRun],
    chunks: &[(usize, Chunk)],
    recorder: &mut EventRecorder,
) {
    for (i, chunk) in chunks {
        let run = &runs[*i];
        if chunk.tokens > 0 || chunk.done.is_some() {
            recorder.emit_with(|| OrchestrationEvent::ModelChunk {
                model: run.name.clone(),
                text: chunk.text.clone(),
                tokens: chunk.tokens,
                done: chunk.done,
            });
        }
        if chunk.done == Some(DoneReason::Failed) {
            recorder.emit_with(|| OrchestrationEvent::ModelFailed {
                model: run.name.clone(),
                error: run.error.clone().unwrap_or_default(),
            });
        }
    }
}

/// Final-selection argmax with a robustness preference: among runs that
/// produced output, intact runs are ranked first — a failed arm's partial
/// answer (cut off mid-thought by the backend) is only returned when no
/// surviving model produced anything at all.
pub(crate) fn select_best(runs: &[ModelRun], scores: &[f64]) -> usize {
    let argmax = |keep: &dyn Fn(&ModelRun) -> bool| -> Option<usize> {
        (0..runs.len())
            .filter(|&i| runs[i].has_output() && keep(&runs[i]))
            .max_by(|&a, &b| {
                scores[a]
                    .partial_cmp(&scores[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
    };
    argmax(&|r| !r.failed)
        .or_else(|| argmax(&|_| true))
        .unwrap_or(0)
}

/// Convert finished runs plus final scores into result outcomes. Accounted
/// retry backoff is surfaced per arm — in the outcome's diagnostics and as
/// the `generate_backoff_ms` histogram.
pub(crate) fn outcomes_of(runs: Vec<ModelRun>, scores: &[f64]) -> Vec<crate::result::ModelOutcome> {
    let registry = llmms_obs::Registry::global();
    runs.into_iter()
        .zip(scores)
        .map(|(r, &score)| {
            let backoff_ms = r.backoff.as_millis() as u64;
            if registry.enabled() && backoff_ms > 0 {
                registry
                    .histogram_with("generate_backoff_ms", &[("model", &r.name)])
                    .metric
                    .record(backoff_ms as f64);
            }
            crate::result::ModelOutcome {
                model: r.name.clone(),
                response: r.response().to_owned(),
                tokens: r.tokens(),
                score,
                rounds: r.rounds,
                pruned: r.pruned,
                done: r.done(),
                simulated_latency: r.simulated_latency(),
                failed: r.failed,
                error: r.error.clone(),
                retries: r.retries,
                backoff_ms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmms_models::chaos::{ChaosModel, FaultKind};
    use llmms_models::{BreakerConfig, KnowledgeStore, ModelProfile, SimLlm};
    use std::sync::Arc;

    fn pool() -> Vec<SharedModel> {
        let entries = vec![llmms_models::KnowledgeEntry {
            id: "q".into(),
            question: "What is the capital of France?".into(),
            category: "geography".into(),
            golden: "The capital of France is Paris".into(),
            correct: vec![],
            incorrect: vec!["The capital of France is Lyon".into()],
        }];
        let store = Arc::new(KnowledgeStore::build(
            entries,
            llmms_embed::default_embedder(),
        ));
        ModelProfile::evaluation_pool()
            .into_iter()
            .map(|p| Arc::new(SimLlm::new(p, Arc::clone(&store))) as SharedModel)
            .collect()
    }

    fn health() -> Arc<HealthRegistry> {
        Arc::new(HealthRegistry::default())
    }

    fn start(models: &[SharedModel]) -> Vec<ModelRun> {
        ModelRun::start_all(
            models,
            "What is the capital of France?",
            &GenOptions::default(),
            RetryConfig::default(),
            &health(),
        )
    }

    #[test]
    fn generate_charges_and_refunds_budget() {
        let models = pool();
        let mut runs = start(&models);
        let mut budget = TokenBudget::new(1000);
        // Ask for far more tokens than the answer holds: the unused grant
        // must come back.
        let chunk = runs[0].generate(500, &mut budget);
        assert!(chunk.tokens < 500);
        assert_eq!(budget.used(), chunk.tokens);
        assert_eq!(runs[0].tokens(), chunk.tokens);
    }

    #[test]
    fn zero_remaining_budget_generates_nothing() {
        let models = pool();
        let mut runs = start(&models);
        let mut budget = TokenBudget::new(0);
        let chunk = runs[0].generate(10, &mut budget);
        assert_eq!(chunk.tokens, 0);
        assert!(!runs[0].has_output());
    }

    #[test]
    fn embedding_is_cached_until_text_changes() {
        let models = pool();
        let embedder = llmms_embed::default_embedder();
        let mut runs = start(&models);
        let mut budget = TokenBudget::new(1000);
        runs[0].generate(2, &mut budget);
        assert!(runs[0].embedding_stale());
        let a = runs[0].embedding(&embedder);
        assert!(!runs[0].embedding_stale());
        let b = runs[0].embedding(&embedder);
        // Not merely equal values: the very same allocation is handed out.
        assert!(Arc::ptr_eq(&a, &b), "fresh cache must not recompute");
        runs[0].generate(2, &mut budget);
        assert!(runs[0].embedding_stale());
        let c = runs[0].embedding(&embedder);
        assert_ne!(a, c, "embedding must refresh after new tokens");
    }

    #[test]
    fn incremental_embedding_matches_from_scratch() {
        let models = pool();
        let embedder = llmms_embed::default_embedder();
        let mut budget = TokenBudget::new(1000);
        let mut runs = start(&models);
        for _ in 0..6 {
            runs[0].generate(3, &mut budget);
            let fast = runs[0].embedding(&embedder);
            let scratch = embedder.embed(runs[0].response());
            let cos = llmms_embed::cosine_embeddings(&fast, &scratch);
            assert!(
                runs[0].response().is_empty() || cos >= 1.0 - 1e-5,
                "cos={cos}"
            );
        }
    }

    /// Everything a round may change on a run, for whole-pool comparison.
    fn run_states(runs: &[ModelRun]) -> Vec<impl PartialEq + std::fmt::Debug> {
        runs.iter()
            .map(|r| {
                (
                    r.response().to_owned(),
                    (r.tokens(), r.rounds, r.retries, r.stalls),
                    r.simulated_latency(),
                    (r.done(), r.error.clone()),
                )
            })
            .collect()
    }

    #[test]
    fn generate_round_matches_the_inline_path() {
        let embedder = llmms_embed::default_embedder();
        let trace = llmms_obs::SpanContext::disabled();
        let mut models = pool();
        models[0] = ChaosModel::wrap(Arc::clone(&models[0]), FaultKind::Flaky { p: 0.4 }, 11);
        // The second limit is tight enough that the pessimistic lease plan
        // defers the last arm to the barrier.
        let mut retried = false;
        for limit in [10_000, 5] {
            let mut fanned = start(&models);
            let mut inline = start(&models);
            let mut fanned_budget = TokenBudget::new(limit);
            let mut inline_budget = TokenBudget::new(limit);
            let mut deferred = false;
            for _ in 0..8 {
                let targets: Vec<(usize, usize)> = (0..fanned.len())
                    .filter(|&i| fanned[i].is_active())
                    .map(|i| (i, 2))
                    .collect();
                let requests: Vec<usize> = targets.iter().map(|&(_, r)| r).collect();
                deferred |= fanned_budget
                    .plan_leases(&requests)
                    .contains(&Lease::Deferred);
                let from_round =
                    generate_round(&mut fanned, &targets, &mut fanned_budget, &embedder, &trace);
                let one_by_one: Vec<(usize, Chunk)> = targets
                    .iter()
                    .map(|&(i, request)| {
                        let run = &mut inline[i];
                        (i, traced_generate(run, request, &mut inline_budget, &trace))
                    })
                    .collect();
                assert_eq!(from_round, one_by_one);
                assert_eq!(fanned_budget, inline_budget);
                assert_eq!(run_states(&fanned), run_states(&inline));
            }
            retried |= fanned[0].retries > 0;
            assert_eq!(deferred, limit == 5, "limit {limit}");
        }
        assert!(retried, "the flaky arm never retried");
    }

    #[test]
    fn prune_aborts_session() {
        let models = pool();
        let mut runs = start(&models);
        let mut budget = TokenBudget::new(1000);
        runs[0].generate(1, &mut budget);
        runs[0].prune();
        assert!(!runs[0].is_active());
        assert_eq!(runs[0].done(), Some(DoneReason::Aborted));
        assert!(runs[0].pruned);
        assert!(runs[0].eliminated());
    }

    #[test]
    fn stalled_session_fails_and_refunds() {
        let models = pool();
        let chaotic: Vec<SharedModel> = vec![ChaosModel::wrap(
            Arc::clone(&models[0]),
            FaultKind::Stall,
            7,
        )];
        let health = health();
        let mut runs = ModelRun::start_all(
            &chaotic,
            "q",
            &GenOptions::default(),
            RetryConfig::default(),
            &health,
        );
        let mut budget = TokenBudget::new(100);
        let stall_limit = RetryConfig::default().stall_limit;
        for _ in 0..stall_limit {
            runs[0].generate(10, &mut budget);
        }
        assert!(runs[0].failed);
        assert_eq!(runs[0].done(), Some(DoneReason::Failed));
        assert!(runs[0].error.as_deref().unwrap().contains("stalled"));
        assert_eq!(budget.used(), 0, "stall chunks must not consume budget");
        // One terminal failure, reported once to the health registry.
        assert_eq!(health.snapshot()[0].consecutive_failures, 1);
    }

    #[test]
    fn transient_errors_are_retried_with_accounted_backoff() {
        let models = pool();
        // p = 0.4: flaky but recoverable within the retry budget.
        let chaotic: Vec<SharedModel> = vec![ChaosModel::wrap(
            Arc::clone(&models[0]),
            FaultKind::Flaky { p: 0.4 },
            42,
        )];
        let mut runs = ModelRun::start_all(
            &chaotic,
            "What is the capital of France?",
            &GenOptions::default(),
            RetryConfig::default(),
            &health(),
        );
        let mut budget = TokenBudget::new(1000);
        let mut guard = 0;
        while runs[0].done().is_none() && guard < 200 {
            runs[0].generate(8, &mut budget);
            guard += 1;
        }
        if runs[0].retries > 0 && !runs[0].failed {
            assert!(
                runs[0].simulated_latency() > Duration::ZERO,
                "retries must account backoff latency"
            );
        }
        // Either way the run terminated and budget accounting held.
        assert!(runs[0].done().is_some());
        assert_eq!(budget.used(), runs[0].tokens());
    }

    #[test]
    fn fatal_error_fails_the_run_and_refunds_grant() {
        let models = pool();
        let chaotic: Vec<SharedModel> = vec![ChaosModel::wrap(
            Arc::clone(&models[0]),
            FaultKind::ErrorAfterN {
                n: 1,
                transient: false,
            },
            3,
        )];
        let health = health();
        let mut runs = ModelRun::start_all(
            &chaotic,
            "What is the capital of France?",
            &GenOptions::default(),
            RetryConfig::default(),
            &health,
        );
        let mut budget = TokenBudget::new(1000);
        let first = runs[0].generate(4, &mut budget);
        assert!(first.tokens > 0);
        let used_before = budget.used();
        let failed = runs[0].generate(4, &mut budget);
        assert_eq!(failed.done, Some(DoneReason::Failed));
        assert_eq!(budget.used(), used_before, "failed grant must be refunded");
        assert!(runs[0].failed);
        // Once failed, further generate calls are free no-ops.
        let again = runs[0].generate(4, &mut budget);
        assert_eq!(again.done, Some(DoneReason::Failed));
        assert_eq!(budget.used(), used_before);
    }

    #[test]
    fn open_breaker_skips_the_model_at_start() {
        let models = pool();
        let health = Arc::new(HealthRegistry::new(BreakerConfig {
            enabled: true,
            failure_threshold: 1,
            cooldown_ms: 60_000,
        }));
        health.record_failure(models[0].name());
        let runs = ModelRun::start_all(
            &models,
            "What is the capital of France?",
            &GenOptions::default(),
            RetryConfig::default(),
            &health,
        );
        assert!(runs[0].failed);
        assert_eq!(runs[0].done(), Some(DoneReason::Failed));
        assert_eq!(runs[0].error.as_deref(), Some("circuit breaker open"));
        assert!(runs[1..].iter().all(|r| !r.failed));
        // The skip must not deepen the failure streak.
        assert_eq!(health.snapshot()[0].consecutive_failures, 1);
    }

    #[test]
    fn natural_finish_reports_success_to_health() {
        let models = pool();
        let health = health();
        let mut runs = ModelRun::start_all(
            &models,
            "What is the capital of France?",
            &GenOptions::default(),
            RetryConfig::default(),
            &health,
        );
        let mut budget = TokenBudget::new(1000);
        while runs[0].done().is_none() {
            runs[0].generate(16, &mut budget);
        }
        // `start_all` admits every pool model into the registry; the one we
        // drove to a natural stop must show a clean streak.
        let snap = health.snapshot();
        let entry = snap
            .iter()
            .find(|h| h.model == runs[0].name)
            .expect("finished model is tracked");
        assert_eq!(entry.consecutive_failures, 0);
    }
}
