//! Internal pool of in-flight generation sessions the round engine drives.
//!
//! One arm's step in a round is one [`GenJob`], wherever it computes:
//! [`ModelRun::begin_generate`] takes the session and the embedding state
//! out of the run, [`GenJob::compute`] drives the session — transient
//! backend errors are retried with capped exponential backoff (accounted
//! into the simulated latency, not slept) — and folds the new text into the
//! embedding, and [`ModelRun::finish_generate`] commits the result at the
//! round barrier. The commit is where failure handling is centralized:
//! stalls (consecutive empty chunks) and fatal errors mark the run
//! [`DoneReason::Failed`], and every terminal outcome is reported to the
//! shared [`HealthRegistry`] so the circuit breaker can skip the model on
//! the next query.

use crate::budget::{Lease, TokenBudget};
use crate::config::RetryConfig;
use crate::events::{EventRecorder, OrchestrationEvent};
use llmms_embed::{Embedding, IncrementalAccumulator, SharedEmbedder};
use llmms_exec::TaskPoisoned;
use llmms_models::{
    Chunk, DoneReason, GenOptions, GenerationSession, HealthRegistry, ModelError, SharedModel,
};
use llmms_obs::trace::{tick_mark, AttrList, TickMark};
use llmms_obs::{SpanContext, SpanStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-run embedding state: an incremental accumulator (when the embedder
/// supports one) plus the cached snapshot.
///
/// Staleness is detected by byte length: every session type accumulates its
/// response append-only, so `response_so_far().len() != fed_bytes` iff new
/// text arrived. A length that *shrank* (a non-append-only custom session)
/// resets the accumulator defensively and re-feeds from scratch.
#[derive(Default)]
pub(crate) struct EmbedState {
    acc: Option<Box<dyn IncrementalAccumulator>>,
    /// Whether the embedder was already asked for an accumulator (it may
    /// legitimately have answered `None`).
    acc_probed: bool,
    /// Bytes of the response reflected in `cached` (and fed to the
    /// accumulator, when one exists).
    fed_bytes: usize,
    cached: Option<Arc<Embedding>>,
}

impl EmbedState {
    /// Bring the cached embedding up to date with `text`, the run's whole
    /// response: fold the unseen suffix into the accumulator, O(new
    /// tokens), or re-embed the full text when the embedder offers no
    /// accumulator. A fresh cache is left alone, so the same `Arc` — and
    /// with it the score cache's row for the arm — survives until the text
    /// grows.
    pub(crate) fn fold(&mut self, text: &str, embedder: &SharedEmbedder) {
        if self.cached.is_some() && text.len() == self.fed_bytes {
            return;
        }
        if !self.acc_probed {
            self.acc = embedder.accumulator();
            self.acc_probed = true;
        }
        let embedding = match &mut self.acc {
            Some(acc) => {
                // Sessions accumulate text append-only, so the unseen part
                // is the suffix past `fed_bytes`. A session that rewrote
                // its text (shorter, or to a suffix offset that is no
                // longer a char boundary) is re-fed from scratch.
                let unseen = text.get(self.fed_bytes..).unwrap_or_else(|| {
                    acc.reset();
                    text
                });
                acc.append(unseen);
                acc.embedding()
            }
            None => embedder.embed(text),
        };
        self.fed_bytes = text.len();
        self.cached = Some(Arc::new(embedding));
    }
}

/// One candidate model's in-flight state during orchestration.
pub(crate) struct ModelRun {
    pub name: String,
    /// The name as a shared str — span attributes clone this for one
    /// refcount bump instead of a fresh `String` per round.
    shared_name: Arc<str>,
    pub(crate) session: Box<dyn GenerationSession>,
    pub(crate) embed: EmbedState,
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
    pub(crate) stalls: u32,
    /// Backoff time accounted (not slept) across retries.
    pub(crate) backoff: Duration,
    pub(crate) policy: RetryConfig,
    health: Arc<HealthRegistry>,
    /// Whether this run already reported its terminal verdict to `health`.
    reported: bool,
    /// Wall time of the last step's job, wherever it computed; `None` until
    /// a step ran one. [`generate_round`] reads it to place the next round.
    last_busy: Option<Duration>,
    /// Token count snapshotted when a step takes the session out. If the
    /// step panics the session is lost with it and the permanent
    /// [`DeadSession`] reports zero; the floor keeps the already-budget-
    /// charged tokens visible in [`ModelRun::tokens`] so accounting still
    /// balances for a poisoned arm.
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
                        embed: EmbedState::default(),
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
                        last_busy: None,
                        tokens_floor: 0,
                    }
                } else {
                    failure_metric(&name, "breaker_open");
                    ModelRun {
                        shared_name: Arc::from(name.as_str()),
                        name,
                        session: Box::new(DeadSession),
                        embed: EmbedState::default(),
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
                        last_busy: None,
                        tokens_floor: 0,
                    }
                }
            })
            .collect()
    }

    /// Take this round's step out of the run so it can compute on any
    /// thread. The job owns the session (a [`DeadSession`] placeholder sits
    /// in the run until [`ModelRun::finish_generate`] reinstalls it), the
    /// embedding state, the token lease it may generate against, and the
    /// retry policy.
    ///
    /// `None` for a failed run or a zero lease: such a step generates
    /// nothing, and [`ModelRun::idle_chunk`] is its chunk.
    pub fn begin_generate(&mut self, lease: usize) -> Option<GenJob> {
        if self.failed || lease == 0 {
            return None;
        }
        self.tokens_floor = self.session.tokens_generated();
        Some(GenJob {
            session: std::mem::replace(&mut self.session, Box::new(DeadSession)),
            embed: std::mem::take(&mut self.embed),
            lease,
            policy: self.policy,
        })
    }

    /// The chunk of a step that ran no job: `Failed` for a failed run, and
    /// an empty chunk carrying the session's done reason for a zero lease.
    pub fn idle_chunk(&self) -> Chunk {
        Chunk {
            text: String::new(),
            tokens: 0,
            done: self.done(),
        }
    }

    /// Install a finished [`GenJob`] and commit its lease.
    ///
    /// This is the one place a step's shared side effects happen — grant
    /// and refund, round and stall counters, failure classification,
    /// health report, metrics. The barrier calls it in arm order, so the
    /// accounting is the same whichever thread computed the job. Unused
    /// grant (the model produced fewer tokens) is refunded; a fatal error,
    /// exhausted retries or a stall streak mark the run
    /// [`DoneReason::Failed`] and refund the whole grant.
    pub fn finish_generate(&mut self, done: GenDone, budget: &mut TokenBudget) -> Chunk {
        self.session = done.session;
        self.embed = done.embed;
        self.retries += done.retries;
        self.backoff += done.backoff;
        self.note_generate_latency(done.busy);
        self.last_busy = Some(done.busy);
        let granted = budget.grant(done.lease);
        assert_eq!(granted, done.lease, "a lease must commit in full");
        let chunk = match done.outcome {
            Ok(chunk) => chunk,
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
        };
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

    /// Record the wall time one step's job took for this arm.
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
    pub(crate) fn fail(&mut self, kind: &str, error: String) {
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
    pub(crate) fn report_success(&mut self) {
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

    /// Fail the run whose job panicked. The session and the embedding
    /// state are lost with the unwind (the run keeps the placeholders
    /// [`ModelRun::begin_generate`] left), nothing of the lease was
    /// committed, and [`ModelRun::tokens`] falls back to the floor taken
    /// before the job.
    fn poison(&mut self, p: &TaskPoisoned) -> Chunk {
        self.fail("panic", p.to_string());
        Chunk::finished(DoneReason::Failed)
    }

    /// The embedding of the current response, as the step that last grew
    /// it folded it in ([`EmbedState::fold`]). The same `Arc` comes back
    /// until the text grows.
    ///
    /// # Panics
    ///
    /// Panics on a run that never produced output: scoring gates on
    /// [`ModelRun::has_output`].
    pub fn embedding(&self) -> Arc<Embedding> {
        Arc::clone(
            self.embed
                .cached
                .as_ref()
                .expect("a response grows only inside a job, and every job ends in the fold"),
        )
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

/// One arm's step for a round, taken out of its [`ModelRun`] by
/// [`ModelRun::begin_generate`]. Computing it touches no shared state — no
/// budget, no health registry, no metrics — so it runs on any thread;
/// [`ModelRun::finish_generate`] applies its effects at the round barrier,
/// in arm order.
pub(crate) struct GenJob {
    session: Box<dyn GenerationSession>,
    embed: EmbedState,
    lease: usize,
    policy: RetryConfig,
}

/// What a [`GenJob`] produced, handed back to its run at the barrier.
pub(crate) struct GenDone {
    session: Box<dyn GenerationSession>,
    embed: EmbedState,
    lease: usize,
    /// The chunk, or the error that ended the step: a fatal one, or a
    /// transient one with the retries spent.
    outcome: Result<Chunk, ModelError>,
    retries: u32,
    backoff: Duration,
    /// Wall time of the whole job, fold included — drives the per-arm
    /// latency histogram and the round busy/wall metrics.
    busy: Duration,
}

impl GenJob {
    /// Drive the session against the lease, retrying transient errors up
    /// to the policy's limit (each retry's backoff accounted, not slept),
    /// then fold the response into the embedding. Deterministic and
    /// thread-agnostic: no shared state is read or written.
    pub fn compute(mut self, embedder: &SharedEmbedder) -> GenDone {
        let start = Instant::now();
        let mut retries = 0u32;
        let mut backoff = Duration::ZERO;
        let outcome = loop {
            match self.session.next_chunk(self.lease) {
                Err(e) if e.is_transient() && retries < self.policy.max_retries => {
                    retries += 1;
                    backoff += self.policy.backoff_delay(retries);
                }
                outcome => break outcome,
            }
        };
        self.embed.fold(self.session.response_so_far(), embedder);
        GenDone {
            session: self.session,
            embed: self.embed,
            lease: self.lease,
            outcome,
            retries,
            backoff,
            busy: start.elapsed(),
        }
    }
}

/// A job's result as the barrier receives it, with the clock read when the
/// job finished (tracing only), or the panic that killed it.
type Computed = Result<(GenDone, Option<TickMark>), TaskPoisoned>;

/// [`GenJob::compute`], then read the clock for the arm span's end when
/// tracing. The read touches no trace state, so it can run on a worker.
fn compute_marked(
    job: GenJob,
    embedder: &SharedEmbedder,
    recording: bool,
) -> (GenDone, Option<TickMark>) {
    let done = job.compute(embedder);
    (done, recording.then(tick_mark))
}

/// Run one round of generation over `targets` (`(arm index, request)` pairs
/// in arm order), charging the shared budget.
///
/// Every arm takes the same step — [`ModelRun::begin_generate`],
/// [`GenJob::compute`], [`ModelRun::finish_generate`] — and the round only
/// decides where each job computes. A round of two or more targets fans
/// out when `placement` ([`Placement::fans_out`]) says overlapping its arms
/// saves more than a fan-out costs the query. In a fanned-out round, an
/// arm whose lease
/// the pessimistic plan ([`TokenBudget::plan_leases`]) covers computes on
/// the executor. Every other job — a single-target round, a round placed
/// inline, a deferred arm — computes on the calling thread at the barrier,
/// against `min(request, remaining)`, with a panic contained the way the
/// executor contains a worker's. The barrier commits in arm order, so the
/// returned chunks, the budget and every run come out the same wherever
/// the jobs computed.
///
/// Tracing: the barrier records one `"arm"` span per target through
/// [`SpanContext::record_span`]. A worker only reads the clock when its job
/// finishes (8 bytes back with the result), so span records, attributes and
/// the tracer's shared cachelines stay on the calling thread. Jobs computed
/// on the calling thread tile: each arm span starts where the previous one
/// ended, so it also covers the previous step's commit and costs one clock
/// read. Spans never feed back into budget, scoring or event state.
pub(crate) fn generate_round(
    runs: &mut [ModelRun],
    targets: &[(usize, usize)],
    budget: &mut TokenBudget,
    embedder: &SharedEmbedder,
    trace: &SpanContext,
    placement: &mut Placement,
) -> Vec<(usize, Chunk)> {
    #[cfg(test)]
    if crate::reference::current().inline_rounds {
        return targets
            .iter()
            .map(|&(i, request)| (i, runs[i].generate(request, budget, embedder)))
            .collect();
    }
    let recording = trace.is_enabled();
    let mut fanned = Vec::new();
    if targets.len() >= 2 {
        let saving = overlap_saving(targets.iter().map(|&(i, _)| runs[i].last_busy));
        if placement.fans_out(saving) {
            fanned = fan_out(runs, targets, budget, embedder, recording, placement);
        }
        if fanned.is_empty() {
            placement.forgone += saving.unwrap_or_default();
            inline_round_metric();
        }
    }
    let mut last_end = None;
    targets
        .iter()
        .map(|&(i, request)| {
            let (start, computed, here) = match fanned.get_mut(i).and_then(Option::take) {
                Some((start, computed)) => (start, Some(computed), false),
                None => {
                    let start = last_end.or_else(|| recording.then(tick_mark));
                    let lease = request.min(budget.remaining());
                    let computed = runs[i].begin_generate(lease).map(|job| {
                        llmms_exec::run_contained(|| compute_marked(job, embedder, recording))
                    });
                    (start, computed, true)
                }
            };
            let run = &mut runs[i];
            let (chunk, end, retry) = match computed {
                Some(Ok((done, end))) => {
                    let retry = (done.retries > 0).then_some((done.retries, done.backoff));
                    (run.finish_generate(done, budget), end, retry)
                }
                // Nothing of the lease was committed, so the budget needs
                // no refund: a granted lease commits in full or not at all.
                Some(Err(p)) => (run.poison(&p), recording.then(tick_mark), None),
                None => (run.idle_chunk(), start, None),
            };
            if let (Some(start), Some(end)) = (start, end) {
                record_arm_span(trace, i, run, &chunk, start, end, retry);
            }
            last_end = if here { end } else { None };
            (i, chunk)
        })
        .collect()
}

/// Where a query's rounds of two or more targets compute, from durations
/// the query itself measured. [`engine::run`](crate::engine) owns one per
/// query; nothing outlives it.
#[derive(Debug, Default)]
pub(crate) struct Placement {
    /// The last fan-out's wait beyond its slowest job; `None` until the
    /// query fans out once.
    overhead: Option<Duration>,
    /// [`overlap_saving`] summed over the rounds placed inline since that
    /// fan-out: what overlapping them would have saved had a fan-out been
    /// free.
    forgone: Duration,
}

impl Placement {
    /// Whether a round whose overlap would save `saving` ([`overlap_saving`])
    /// fans out.
    ///
    /// Inline, a round costs Σ busy; fanned out, about `overhead` + max
    /// busy. So a round fans out when Σ busy − max busy > `overhead`, and
    /// when either side is unknown, which makes a query's first round fan
    /// out and measure. It also fans out once the savings forgone inline
    /// since the last fan-out, this round's included, exceed `overhead`:
    /// re-measuring then costs at most what inline has already given up, so
    /// one inflated measurement (a preempted barrier, a queue wait) cannot
    /// keep slow arms inline for the rest of the query. Both sides are
    /// durations the engine measured in this query; nothing is tuned.
    fn fans_out(&self, saving: Option<Duration>) -> bool {
        match (self.overhead, saving) {
            (Some(overhead), Some(saving)) => self.forgone + saving > overhead,
            _ => true,
        }
    }

    /// Record a fanned-out round's wait beyond its slowest job.
    fn measured(&mut self, overhead: Duration) {
        self.overhead = Some(overhead);
        self.forgone = Duration::ZERO;
    }
}

/// What overlapping a round's arms would save on a free fan-out: Σ busy −
/// max busy over their last step times, or `None` when an arm has not
/// stepped yet.
fn overlap_saving(last_busy: impl IntoIterator<Item = Option<Duration>>) -> Option<Duration> {
    let (mut sum, mut max) = (Duration::ZERO, Duration::ZERO);
    for busy in last_busy {
        let busy = busy?;
        sum += busy;
        max = max.max(busy);
    }
    Some(sum - max)
}

/// Start the jobs of every arm whose lease the pessimistic plan covers on
/// the executor and wait for them, then hand `placement` the wait beyond
/// the slowest job. Returns, per arm index, the job's start mark and
/// result; deferred arms, zero leases and failed runs have none. Empty
/// when no arm had a job to start: the executor is not called and nothing
/// is measured.
fn fan_out(
    runs: &mut [ModelRun],
    targets: &[(usize, usize)],
    budget: &TokenBudget,
    embedder: &SharedEmbedder,
    recording: bool,
    placement: &mut Placement,
) -> Vec<Option<(Option<TickMark>, Computed)>> {
    let requests: Vec<usize> = targets.iter().map(|&(_, request)| request).collect();
    let mut starts = vec![None; runs.len()];
    let mut jobs = Vec::new();
    for (&(i, _), lease) in targets.iter().zip(budget.plan_leases(&requests)) {
        if let Lease::Granted(lease) = lease {
            if let Some(job) = runs[i].begin_generate(lease) {
                let embedder = Arc::clone(embedder);
                starts[i] = recording.then(tick_mark);
                jobs.push((i, move || compute_marked(job, &embedder, recording)));
            }
        }
    }
    if jobs.is_empty() {
        return Vec::new();
    }
    let fan_out = jobs.len();
    let wall = Instant::now();
    let done = llmms_exec::submit_indexed(jobs).wait();
    let wall = wall.elapsed();
    let (busy, slowest) = done
        .iter()
        .filter_map(|(_, r)| r.as_ref().ok())
        .fold((Duration::ZERO, Duration::ZERO), |(sum, max), (d, _)| {
            (sum + d.busy, max.max(d.busy))
        });
    placement.measured(wall.saturating_sub(slowest));
    parallel_round_metrics(fan_out, busy, wall);
    let mut by_arm: Vec<Option<(Option<TickMark>, Computed)>> =
        (0..runs.len()).map(|_| None).collect();
    for (i, computed) in done {
        by_arm[i] = Some((starts[i], computed));
    }
    by_arm
}

/// Record arm `i`'s `"arm"` span for one step, from `start` to `end`, with
/// its retries as a zero-length `"retry"` child. A step that left the arm
/// `Failed` is an error span naming the model and the error; any other
/// carries only inline numerics (the arm index and the chunk's tokens) —
/// the arm→model binding is recorded once per trace, on the `orchestrate`
/// span's `arms` attribute.
fn record_arm_span(
    trace: &SpanContext,
    i: usize,
    run: &ModelRun,
    chunk: &Chunk,
    start: TickMark,
    end: TickMark,
    retry: Option<(u32, Duration)>,
) {
    let mut attrs = AttrList::new();
    attrs.push("arm", (i as u64).into());
    let status = if chunk.done == Some(DoneReason::Failed) {
        attrs.push("model", Arc::clone(&run.shared_name).into());
        attrs.push("error", run.error.clone().unwrap_or_default().into());
        SpanStatus::Error
    } else {
        attrs.push("tokens", chunk.tokens.into());
        SpanStatus::Ok
    };
    let arm_id = trace.record_span("arm", start, end, status, attrs);
    if let Some((count, backoff)) = retry {
        let mut attrs = AttrList::new();
        attrs.push("count", count.into());
        attrs.push("backoff_ms", (backoff.as_millis() as u64).into());
        trace.record_span_under(arm_id, "retry", end, end, SpanStatus::Ok, attrs);
    }
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

/// Count a round of two or more targets that computed on the calling
/// thread.
fn inline_round_metric() {
    let registry = llmms_obs::Registry::global();
    if registry.enabled() {
        registry.counter("round_inline_total").metric.inc();
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
    trace: &SpanContext,
) {
    for (i, run) in runs.iter().enumerate().filter(|(_, r)| r.failed) {
        recorder.emit_with(|| OrchestrationEvent::ModelFailed {
            model: run.name.clone(),
            error: run.error.clone().unwrap_or_default(),
        });
        if trace.is_enabled() {
            let now = tick_mark();
            record_arm_span(trace, i, run, &run.idle_chunk(), now, now, None);
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

    /// One single-target round for arm 0 through the production path.
    fn step(runs: &mut [ModelRun], request: usize, budget: &mut TokenBudget) -> Chunk {
        let embedder = llmms_embed::default_embedder();
        let trace = SpanContext::disabled();
        generate_round(
            runs,
            &[(0, request)],
            budget,
            &embedder,
            &trace,
            &mut Placement::default(),
        )
        .remove(0)
        .1
    }

    #[test]
    fn generate_charges_and_refunds_budget() {
        let models = pool();
        let mut runs = start(&models);
        let mut budget = TokenBudget::new(1000);
        // Ask for far more tokens than the answer holds: the unused grant
        // must come back.
        let chunk = step(&mut runs, 500, &mut budget);
        assert!(chunk.tokens < 500);
        assert_eq!(budget.used(), chunk.tokens);
        assert_eq!(runs[0].tokens(), chunk.tokens);
    }

    #[test]
    fn zero_remaining_budget_generates_nothing() {
        let models = pool();
        let mut runs = start(&models);
        let mut budget = TokenBudget::new(0);
        let chunk = step(&mut runs, 10, &mut budget);
        assert_eq!(chunk.tokens, 0);
        assert!(!runs[0].has_output());
    }

    #[test]
    fn embedding_is_cached_until_text_changes() {
        let models = pool();
        let mut runs = start(&models);
        let mut budget = TokenBudget::new(1000);
        step(&mut runs, 2, &mut budget);
        let a = runs[0].embedding();
        let b = runs[0].embedding();
        // Not merely equal values: the very same allocation is handed out.
        assert!(Arc::ptr_eq(&a, &b), "fresh cache must not recompute");
        // A zero lease runs no job and leaves the cache alone.
        step(&mut runs, 0, &mut budget);
        assert!(Arc::ptr_eq(&a, &runs[0].embedding()));
        step(&mut runs, 2, &mut budget);
        let c = runs[0].embedding();
        assert_ne!(a, c, "embedding must refresh after new tokens");
    }

    #[test]
    fn incremental_embedding_matches_from_scratch() {
        let models = pool();
        let embedder = llmms_embed::default_embedder();
        let mut budget = TokenBudget::new(1000);
        let mut runs = start(&models);
        for _ in 0..6 {
            step(&mut runs, 3, &mut budget);
            let fast = runs[0].embedding();
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
                    r.has_output().then(|| r.embedding()),
                )
            })
            .collect()
    }

    /// The production round against the test-only arm-by-arm reference
    /// ([`ModelRun::generate`] in `reference.rs`). Rounds cycle through the
    /// three placements: every active arm fanned out (no fan-out cost
    /// measured yet), every active arm inline (a fan-out costing an hour),
    /// and a single target.
    #[test]
    fn generate_round_matches_the_inline_path() {
        let embedder = llmms_embed::default_embedder();
        let trace = SpanContext::disabled();
        let mut models = pool();
        models[0] = ChaosModel::wrap(Arc::clone(&models[0]), FaultKind::Flaky { p: 0.4 }, 11);
        // The second limit is tight enough that the pessimistic lease plan
        // defers the last arm to the barrier.
        let mut retried = false;
        let (mut placed_out, mut placed_inline) = (false, false);
        for limit in [10_000, 5] {
            let mut fanned = start(&models);
            let mut inline = start(&models);
            let mut fanned_budget = TokenBudget::new(limit);
            let mut inline_budget = TokenBudget::new(limit);
            let mut deferred = false;
            for round in 0..12 {
                let targets: Vec<(usize, usize)> = (0..fanned.len())
                    .filter(|&i| fanned[i].is_active())
                    .map(|i| (i, 2))
                    .take(if round % 3 == 2 { 1 } else { usize::MAX })
                    .collect();
                let mut placement = Placement {
                    overhead: (round % 3 == 1).then(|| Duration::from_secs(3600)),
                    forgone: Duration::ZERO,
                };
                if targets.len() >= 2 {
                    let out = placement.fans_out(overlap_saving(
                        targets.iter().map(|&(i, _)| fanned[i].last_busy),
                    ));
                    placed_out |= out;
                    placed_inline |= !out;
                }
                let requests: Vec<usize> = targets.iter().map(|&(_, r)| r).collect();
                deferred |= fanned_budget
                    .plan_leases(&requests)
                    .contains(&Lease::Deferred);
                let from_round = generate_round(
                    &mut fanned,
                    &targets,
                    &mut fanned_budget,
                    &embedder,
                    &trace,
                    &mut placement,
                );
                let one_by_one: Vec<(usize, Chunk)> = targets
                    .iter()
                    .map(|&(i, request)| {
                        let run = &mut inline[i];
                        (i, run.generate(request, &mut inline_budget, &embedder))
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
        assert!(placed_out && placed_inline, "a placement never ran");
    }

    /// Jobs computed on the calling thread tile: each arm span starts where
    /// the previous one ended.
    #[test]
    fn inline_arm_spans_tile() {
        use llmms_obs::{TraceId, Tracer};
        let embedder = llmms_embed::default_embedder();
        let mut runs = start(&pool());
        let mut budget = TokenBudget::new(10_000);
        let targets: Vec<(usize, usize)> = (0..runs.len()).map(|i| (i, 2)).collect();
        // The first round fans out: no arm has stepped yet.
        let trace = SpanContext::disabled();
        let mut placement = Placement::default();
        generate_round(
            &mut runs,
            &targets,
            &mut budget,
            &embedder,
            &trace,
            &mut placement,
        );
        let tracer = Tracer::new(TraceId::from_raw(7));
        let round = tracer.root_span("round");
        let mut placement = Placement {
            overhead: Some(Duration::from_secs(3600)),
            forgone: Duration::ZERO,
        };
        let trace = round.context();
        generate_round(
            &mut runs,
            &targets,
            &mut budget,
            &embedder,
            &trace,
            &mut placement,
        );
        drop(trace);
        round.end();
        let spans = tracer.finish().expect("spans recorded").into_spans();
        let arms: Vec<_> = spans.iter().filter(|s| s.name == "arm").collect();
        assert_eq!(arms.len(), targets.len());
        for pair in arms.windows(2) {
            assert_eq!(pair[1].start_us, pair[0].end_us, "{arms:?}");
        }
    }

    /// The placement rule on synthetic durations.
    #[test]
    fn placement_rule_fans_out_only_when_overlap_pays() {
        let us = Duration::from_micros;
        let ms = Duration::from_millis;
        let measured = |overhead| Placement {
            overhead: Some(overhead),
            forgone: Duration::ZERO,
        };
        let saving = |busy: &[Duration]| overlap_saving(busy.iter().copied().map(Some));
        // No fan-out measured yet in this query: fan out and measure.
        assert!(Placement::default().fans_out(saving(&[us(1), us(1)])));
        // A target that has not stepped yet: fan out.
        assert_eq!(overlap_saving([Some(us(1)), None, Some(us(1))]), None);
        assert!(measured(us(40)).fans_out(None));
        // Microsecond arms: overlapping three of them saves 2 µs of a
        // 40 µs fan-out, so the round computes inline. A tie stays inline.
        assert!(!measured(us(40)).fans_out(saving(&[us(1); 3])));
        assert!(!measured(us(2)).fans_out(saving(&[us(1); 3])));
        // Millisecond arms hide the fan-out cost: fan out.
        assert!(measured(us(40)).fans_out(saving(&[ms(8); 4])));
        // One arm slowed down: fan out once the others' time exceeds the cost.
        assert!(!measured(us(40)).fans_out(saving(&[ms(8), us(1), us(1)])));
        assert!(measured(us(40)).fans_out(saving(&[ms(8), ms(8), us(1)])));
    }

    /// An inflated first measurement keeps slow arms inline for one round
    /// only: the second inline round has forgone more than the fan-out cost
    /// and re-measures.
    #[test]
    fn placement_re_measures_once_inline_has_forgone_a_fan_out() {
        let ms = Duration::from_millis;
        // Round 1's barrier stalled 30 ms; four 8-ms arms save 24 ms a round.
        let mut placement = Placement::default();
        placement.measured(ms(30));
        let saving = overlap_saving([Some(ms(8)); 4]);
        assert!(!placement.fans_out(saving));
        placement.forgone += saving.unwrap();
        assert!(placement.fans_out(saving));
        // The fresh measurement resets what was forgone.
        placement.measured(ms(1));
        assert_eq!(placement.forgone, Duration::ZERO);
        assert!(placement.fans_out(saving));
        // Microsecond arms forgo 2 µs a round against a 40 µs fan-out, so
        // they re-measure only after twenty inline rounds.
        let us = Duration::from_micros;
        let saving = overlap_saving([Some(us(1)); 3]);
        placement.measured(us(40));
        for _ in 0..19 {
            assert!(!placement.fans_out(saving));
            placement.forgone += saving.unwrap();
        }
        assert!(!placement.fans_out(saving), "a tie stays inline");
        placement.forgone += saving.unwrap();
        assert!(placement.fans_out(saving));
    }

    #[test]
    fn prune_aborts_session() {
        let models = pool();
        let mut runs = start(&models);
        let mut budget = TokenBudget::new(1000);
        step(&mut runs, 1, &mut budget);
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
            step(&mut runs, 10, &mut budget);
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
            step(&mut runs, 8, &mut budget);
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
        let first = step(&mut runs, 4, &mut budget);
        assert!(first.tokens > 0);
        let used_before = budget.used();
        let failed = step(&mut runs, 4, &mut budget);
        assert_eq!(failed.done, Some(DoneReason::Failed));
        assert_eq!(budget.used(), used_before, "failed grant must be refunded");
        assert!(runs[0].failed);
        // Once failed, further steps are free no-ops.
        let again = step(&mut runs, 4, &mut budget);
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
            step(&mut runs, 16, &mut budget);
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
