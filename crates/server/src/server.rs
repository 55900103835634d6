//! HTTP serving: route dispatch and overload bookkeeping behind the epoll
//! edge.
//!
//! [`Server::start_with`] binds the listener and starts the nonblocking
//! event loop in `crate::edge`: readiness-driven connection state
//! machines, HTTP keep-alive, and SSE frames drained from a bounded
//! per-connection outbox, so thousands of idle or streaming connections
//! cost no threads. Everything from "a parsed [`Request`] plus the
//! connection's `OutboxWriter`" down — tracing, shedding, admission,
//! dispatch, metrics — lives here, in `process_parsed` and the route
//! handlers it calls on the edge's dispatch workers.

use crate::admission::{AdmissionConfig, AdmissionController, DEFAULT_TENANT};
use crate::edge::OutboxWriter;
use crate::http::{write_response, write_response_with, write_sse_header, Method, Request};
use crate::service::{AppService, QueryContext, QueryRequest, ServiceError};
use crate::sse;
use llmms_core::{
    BrownoutController, EventSink, OrchestrationEvent, OrchestrationResult, PressureInputs,
};
use llmms_obs::{SpanRecord, SpanStatus, TraceData, TraceId, TraceStore, TraceStoreConfig, Tracer};
use serde_json::{json, Value};
use std::cell::Cell;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of the event-driven edge: connection cap, timeouts, keep-alive
/// reuse and per-connection buffering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeConfig {
    /// Maximum simultaneously open connections; at the cap, fresh accepts
    /// are answered 503 + `Retry-After` and closed immediately.
    pub max_conns: usize,
    /// How long a keep-alive connection may sit with no request in flight
    /// and no bytes buffered before it is silently closed.
    pub idle_timeout: Duration,
    /// How long a response (or SSE stream) may make zero write progress
    /// against an unwritable socket before the connection is abandoned.
    pub write_stall_timeout: Duration,
    /// Requests served per connection before the edge forces
    /// `Connection: close` (bounds per-connection state lifetime).
    pub max_keepalive_requests: u32,
    /// Bytes buffered per connection between the dispatch worker and the
    /// socket; a full outbox blocks the producing worker (bounded by
    /// `write_stall_timeout`), so a slow client costs memory, not threads.
    pub outbox_capacity: usize,
    /// Kernel send-buffer size clamp (`SO_SNDBUF`) the edge applies to
    /// accepted sockets; `None` keeps the system default. A small clamp
    /// makes live streams park in the edge outbox instead of the kernel.
    pub so_sndbuf: Option<usize>,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        Self {
            max_conns: 10_000,
            idle_timeout: Duration::from_secs(30),
            write_stall_timeout: Duration::from_secs(20),
            max_keepalive_requests: 1_000,
            outbox_capacity: 128 * 1024,
            so_sndbuf: None,
        }
    }
}

/// Transport-level robustness knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// How long a client may take to deliver a complete request before the
    /// connection is answered with 408 (slowloris protection).
    pub read_timeout: Duration,
    /// Maximum concurrently handled requests before new ones are shed with
    /// 503 + `Retry-After` (health and metrics probes are exempt).
    pub max_in_flight: usize,
    /// Size of the dispatch worker pool. The workers run request handling
    /// and SSE orchestration for requests the event loop has already
    /// parsed; they never own a socket, so connection count is decoupled
    /// from thread count.
    pub worker_threads: usize,
    /// Capacity of the dispatch queue in front of the worker pool. While it
    /// is full the event loop answers 503 + `Retry-After` itself — to a
    /// fresh connection at accept, and to a parsed request on a live
    /// connection — so overload is shed before any dispatch resources
    /// exist.
    pub queue_depth: usize,
    /// Per-tenant admission quotas (`X-LLMMS-Tenant` header picks the
    /// bucket). Over-quota requests are answered 429 with a computed
    /// `Retry-After` before any orchestration work starts.
    pub admission: AdmissionConfig,
    /// The p99 request latency (milliseconds) the operator considers
    /// healthy; the latency component of the brownout pressure signal is
    /// observed p99 over this target.
    pub target_p99_ms: u64,
    /// Ring-buffer capacity of the tail-sampled trace store behind
    /// `/debug/traces` (0 disables retention).
    pub trace_buffer_len: usize,
    /// Probability of retaining a fast, healthy trace; errors and the slow
    /// tail are always kept.
    pub trace_sample_rate: f64,
    /// Traces at least this slow are always retained.
    pub trace_slow_threshold_ms: u64,
    /// Event-loop edge knobs.
    pub edge: EdgeConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let traces = TraceStoreConfig::default();
        Self {
            read_timeout: Duration::from_secs(10),
            max_in_flight: 256,
            worker_threads: 8,
            queue_depth: 64,
            admission: AdmissionConfig::default(),
            target_p99_ms: 2_000,
            trace_buffer_len: traces.capacity,
            trace_sample_rate: traces.sample_rate,
            trace_slow_threshold_ms: traces.slow_threshold_ms,
            edge: EdgeConfig::default(),
        }
    }
}

/// Executor queue depth the brownout pressure signal normalizes against: a
/// scheduler backlog this deep contributes pressure 1.0.
const SCHED_DEPTH_TARGET: usize = 1024;

/// How long the brownout controller holds a level before it may step
/// again, in milliseconds.
const BROWNOUT_DWELL_MS: u64 = 500;

/// Shared overload bookkeeping: the admission controller, the brownout
/// ladder, and the live occupancy counters its pressure signal reads.
pub(crate) struct OverloadState {
    pub(crate) admission: Arc<AdmissionController>,
    brownout: BrownoutController,
    /// Requests currently being handled by workers.
    pub(crate) in_flight: AtomicUsize,
    /// Parsed requests sitting in the dispatch queue.
    pub(crate) queued: AtomicUsize,
    queue_capacity: usize,
    max_in_flight: usize,
    target_p99_ms: u64,
}

impl OverloadState {
    fn new(config: &ServerConfig) -> Self {
        Self {
            admission: Arc::new(AdmissionController::new(config.admission.clone())),
            brownout: BrownoutController::new(BROWNOUT_DWELL_MS),
            in_flight: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            queue_capacity: config.queue_depth.max(1),
            max_in_flight: config.max_in_flight,
            target_p99_ms: config.target_p99_ms,
        }
    }

    /// Feed the brownout controller one pressure sample built from live
    /// occupancy, queue depth, and the measured `/api/query` p99.
    fn observe_brownout(&self) -> u8 {
        let registry = llmms_obs::Registry::global();
        let p99_ms = if registry.enabled() {
            registry
                .histogram_with("http_request_duration_us", &[("route", "/api/query")])
                .metric
                .quantile(0.99)
                / 1000.0
        } else {
            0.0
        };
        self.brownout.observe(PressureInputs {
            in_flight: self.in_flight.load(Ordering::SeqCst),
            capacity: self.max_in_flight,
            queued: self.queued.load(Ordering::SeqCst),
            queue_capacity: self.queue_capacity,
            p99_ms,
            target_p99_ms: self.target_p99_ms as f64,
            sched_depth: llmms_exec::queue_depth(),
            sched_depth_target: SCHED_DEPTH_TARGET,
        })
    }

    /// `Retry-After` seconds for a 503 shed, derived from the measured
    /// completion drain rate against everything currently pending (1 until
    /// a rate is measurable — the old hardcoded value, now the floor).
    pub(crate) fn retry_after_secs(&self) -> u64 {
        let pending = self.in_flight.load(Ordering::SeqCst) + self.queued.load(Ordering::SeqCst);
        self.admission.retry_after_secs(pending)
    }
}

/// A running API server. Dropping the handle without calling
/// [`Server::shutdown`] leaves the event loop running for the process
/// lifetime (matching a daemonized deployment); tests call `shutdown`.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event_loop: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    /// Wakes the event loop so it can observe `stop`.
    edge_waker: Arc<crate::edge::poller::Waker>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `service` with default robustness settings.
    ///
    /// # Errors
    ///
    /// Bind failures, or the event loop's epoll/eventfd setup failing.
    pub fn start<S: AppService>(service: Arc<S>, addr: &str) -> std::io::Result<Server> {
        Server::start_with(service, addr, ServerConfig::default())
    }

    /// [`Server::start`] with explicit [`ServerConfig`]: bind, then serve
    /// through the epoll event loop in `crate::edge`.
    ///
    /// # Errors
    ///
    /// Bind failures, or the event loop's epoll/eventfd setup failing.
    pub fn start_with<S: AppService>(
        service: Arc<S>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        TraceStore::global().configure(TraceStoreConfig {
            capacity: config.trace_buffer_len,
            sample_rate: config.trace_sample_rate,
            slow_threshold_ms: config.trace_slow_threshold_ms,
        });
        let overload = Arc::new(OverloadState::new(&config));
        let stop = Arc::new(AtomicBool::new(false));
        let parts = crate::edge::start(
            listener,
            service,
            Arc::new(config),
            overload,
            Arc::clone(&stop),
        )?;
        Ok(Server {
            addr,
            stop,
            event_loop: parts.event_loop,
            workers: parts.workers,
            edge_waker: parts.waker,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections, then join the event loop and the
    /// dispatch workers.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.edge_waker.wake();
        let _ = self.event_loop.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// RAII in-flight request counter: increments on entry, decrements on
/// drop (including panics and early returns), so shed decisions always see
/// an accurate count.
pub(crate) struct InFlightGuard<'a> {
    counter: &'a AtomicUsize,
}

impl<'a> InFlightGuard<'a> {
    /// Enter, returning the guard and the post-increment occupancy
    /// (inclusive of this request). Shed decisions must use this returned
    /// count, not a separate `load`: under N simultaneous arrivals the
    /// atomic `fetch_add` hands each request a distinct rank, so exactly
    /// `max_in_flight` of them observe a count within the limit — a
    /// separate load could see every arrival's increment and shed all of
    /// them (or, checked before increment, admit one too many).
    pub(crate) fn enter(counter: &'a AtomicUsize) -> (Self, usize) {
        let occupancy = counter.fetch_add(1, Ordering::SeqCst) + 1;
        (Self { counter }, occupancy)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Routes exempt from load shedding: probes and debug endpoints must keep
/// answering while the server is saturated, or the operator loses eyes
/// exactly when they are needed most.
fn shed_exempt(route: &str) -> bool {
    matches!(
        route,
        "/healthz" | "/metrics" | "/stats" | "/debug/traces" | "/debug/traces/:id"
    )
}

/// Routes that go through per-tenant admission: the ones that fan out to
/// models. Everything else (config, sessions, probes) is cheap enough that
/// quota accounting would only add noise.
fn admission_controlled(route: &str) -> bool {
    route == "/api/query"
}

/// How a committed SSE stream actually ended — the wire status is 200 the
/// moment the header goes out, so this is the only honest record of
/// streaming failures. Feeds the request span and
/// `sse_streams_total{outcome}`.
pub(crate) struct SseOutcome {
    /// `"ok"`, `"degraded"`, `"error"`, or `"client_gone"`.
    outcome: &'static str,
    /// The `ServiceError` status carried by a terminal `error` frame.
    error_status: Option<u16>,
    /// The winning model's `DoneReason` wire string, when one finished.
    done_reason: Option<&'static str>,
}

/// The admission gate in front of model-fanning routes, in rejection-cost
/// order: 504-fast (one estimate comparison) before the token-bucket check
/// (one map entry) before any orchestration work.
#[allow(clippy::too_many_lines)]
fn admit_and_dispatch<S: AppService>(
    service: &S,
    sink: &mut OutboxWriter,
    request: &Request,
    route: &'static str,
    overload: &OverloadState,
    root: &mut llmms_obs::Span,
    sse: &mut Option<SseOutcome>,
) -> u16 {
    let registry = llmms_obs::Registry::global();
    let tenant = request
        .headers
        .get("x-llmms-tenant")
        .map_or(DEFAULT_TENANT, String::as_str);
    let deadline_ms: Option<u64> = request
        .headers
        .get("x-llmms-deadline-ms")
        .and_then(|v| v.trim().parse().ok());
    // Unknown priority names fall back to `Normal` rather than erroring:
    // the header is a scheduling hint, not part of the request contract.
    let priority = request
        .headers
        .get("x-llmms-priority")
        .and_then(|v| llmms_exec::Priority::parse(v))
        .unwrap_or_default();
    root.set_attr("tenant", tenant.to_owned());
    if priority != llmms_exec::Priority::Normal {
        root.set_attr("priority", priority.as_str().to_owned());
    }

    // 504-fast: when the EWMA says a full query takes longer than the
    // client has left, fail in microseconds instead of burning the budget
    // to discover the same thing.
    if let (Some(budget), Some(est)) = (deadline_ms, overload.admission.estimated_service_ms()) {
        if est > budget {
            if registry.enabled() {
                registry
                    .counter_with("deadline_rejects_total", &[("route", route)])
                    .metric
                    .inc();
            }
            root.set_attr("deadline_reject", est);
            return respond_json(
                sink,
                504,
                &json!({
                    "error": format!(
                        "deadline budget {budget}ms is below the estimated service time {est}ms"
                    ),
                }),
            );
        }
    }

    let permit = match overload.admission.admit(tenant) {
        Ok(permit) => permit,
        Err(rejection) => {
            let retry_after = rejection.retry_after_secs().to_string();
            let body = json!({
                "error": format!("tenant {tenant:?} over {} quota, retry later", rejection.reason()),
                "tenant": tenant,
            })
            .to_string();
            let _ = write_response_with(
                sink,
                429,
                "application/json",
                &[("Retry-After", retry_after.as_str())],
                body.as_bytes(),
            );
            return 429;
        }
    };

    let brownout_level = overload.observe_brownout();
    if brownout_level > 0 {
        root.set_attr("brownout_level", u64::from(brownout_level));
    }
    let ctx = QueryContext {
        tenant: permit.tenant().to_owned(),
        deadline_ms,
        brownout_level,
        priority,
    };
    let started = Instant::now();
    let status = dispatch(service, sink, request, &ctx, sse);
    // Every completed admission feeds the service-time EWMA (504-fast) and
    // the drain window (Retry-After); the permit drop frees the tenant's
    // concurrency slot.
    overload.admission.record_completion(started.elapsed());
    drop(permit);
    status
}

/// Serve one request the event loop has parsed into `sink`, the
/// connection's outbox: span-tree root, in-flight shed, admission,
/// dispatch, tail sampling, and the request metrics tail. Runs on an edge
/// dispatch worker; returns the written status.
///
/// `occupancy` is the caller's post-increment in-flight count (from
/// [`InFlightGuard::enter`]), inclusive of this request.
pub(crate) fn process_parsed<S: AppService>(
    service: &S,
    overload: &OverloadState,
    sink: &mut OutboxWriter,
    request: &Request,
    occupancy: usize,
    start: Instant,
) -> u16 {
    let registry = llmms_obs::Registry::global();
    let observing = registry.enabled();
    let route = route_label(&request.path);
    // Root of the per-request span tree. An `X-LLMMS-Trace-Id` header joins
    // the caller's trace; otherwise the id is fresh. When tracing is
    // globally disabled the tracer records nothing and allocates nothing.
    let trace_id = request
        .headers
        .get("x-llmms-trace-id")
        .and_then(|v| TraceId::from_hex(v))
        .unwrap_or_else(TraceId::generate);
    let tracer = Tracer::new(trace_id);
    let mut root = tracer.root_span("request");
    root.set_attr("route", route);
    let mut sse = None;
    let status = {
        let _guard = llmms_obs::trace::set_current(root.context());
        if occupancy > overload.max_in_flight && !shed_exempt(route) {
            if observing {
                registry
                    .counter_with("http_shed_total", &[("route", route)])
                    .metric
                    .inc();
            }
            let retry_after = overload.retry_after_secs().to_string();
            let body = json!({ "error": "server overloaded, retry shortly" }).to_string();
            let _ = write_response_with(
                sink,
                503,
                "application/json",
                &[("Retry-After", retry_after.as_str())],
                body.as_bytes(),
            );
            503
        } else {
            // One containment for every route: a panicking handler is
            // answered 500 and the dispatch worker lives on to serve the
            // next request.
            llmms_exec::run_contained(|| {
                if admission_controlled(route) {
                    admit_and_dispatch(service, sink, request, route, overload, &mut root, &mut sse)
                } else {
                    dispatch(service, sink, request, &QueryContext::default(), &mut sse)
                }
            })
            .unwrap_or_else(|_| answer_panic(sink, &mut sse))
        }
    };
    if let Some(sse) = sse {
        root.set_attr("sse_outcome", sse.outcome.to_owned());
        if let Some(error_status) = sse.error_status {
            root.set_attr("sse_error_status", u64::from(error_status));
        }
        if let Some(done) = sse.done_reason {
            root.set_attr("sse_done_reason", done.to_owned());
        }
        match sse.outcome {
            "error" => root.set_status(SpanStatus::Error),
            "degraded" => root.set_status(SpanStatus::Degraded),
            _ => {}
        }
        if observing {
            registry
                .counter_with("sse_streams_total", &[("outcome", sse.outcome)])
                .metric
                .inc();
        }
    }
    if status >= 500 {
        root.set_status(SpanStatus::Error);
    }
    root.set_attr("status", u64::from(status));
    root.end();
    record_request_tail(route, status, start, tracer.finish());
    status
}

/// The shared metrics tail of every request: tail-sample the trace, count
/// `http_requests_total{route,status}`, and record the latency histogram
/// (with the retained trace id as an exemplar, so a p99 spike in
/// `/metrics` links to an inspectable trace).
pub(crate) fn record_request_tail(
    route: &str,
    status: u16,
    start: Instant,
    trace: Option<llmms_obs::TraceData>,
) {
    let registry = llmms_obs::Registry::global();
    let retained = trace
        .map(|t| (t.trace_id, TraceStore::global().offer(t)))
        .filter(|(_, kept)| *kept);
    if registry.enabled() {
        let status_label = status.to_string();
        registry
            .counter_with(
                "http_requests_total",
                &[("route", route), ("status", &status_label)],
            )
            .metric
            .inc();
        let latency = registry.histogram_with("http_request_duration_us", &[("route", route)]);
        match retained {
            Some((trace_id, _)) => latency
                .metric
                .record_duration_with_exemplar(start.elapsed(), trace_id),
            None => latency.metric.record_duration(start.elapsed()),
        }
    }
}

/// Normalize a request path to a bounded label set: parameterized routes
/// collapse (`/api/sessions/{id}` → `/api/sessions/:id`) and unknown paths
/// share one label so arbitrary clients cannot explode metric cardinality.
pub(crate) fn route_label(path: &str) -> &'static str {
    match path {
        "/healthz" => "/healthz",
        "/metrics" => "/metrics",
        "/stats" => "/stats",
        "/api/models" => "/api/models",
        "/api/hardware" => "/api/hardware",
        "/api/config" => "/api/config",
        "/api/query" => "/api/query",
        "/api/ingest" => "/api/ingest",
        "/api/sessions" => "/api/sessions",
        p if p.starts_with("/api/sessions/") => "/api/sessions/:id",
        "/debug/traces" => "/debug/traces",
        p if p.starts_with("/debug/traces/") => "/debug/traces/:id",
        _ => "other",
    }
}

/// Serve one request; returns the HTTP status that was written, so the
/// caller can label `http_requests_total{route,status}` and close out the
/// request span.
fn dispatch<S: AppService>(
    service: &S,
    sink: &mut OutboxWriter,
    request: &Request,
    ctx: &QueryContext,
    sse: &mut Option<SseOutcome>,
) -> u16 {
    let path = request.path.as_str();
    match (request.method, path) {
        (Method::Get, "/healthz") => respond_json(sink, 200, &json!({ "status": "ok" })),
        (Method::Get, "/metrics") => {
            let text = service.metrics_text();
            let _ = write_response(sink, 200, "text/plain; version=0.0.4", text.as_bytes());
            200
        }
        (Method::Get, "/stats") => respond_json(sink, 200, &service.stats_json()),
        (Method::Get, "/debug/traces") => handle_trace_index(sink),
        (Method::Get, p) if p.starts_with("/debug/traces/") => handle_trace_get(sink, request),
        (Method::Get, "/api/models") => {
            let models = service.list_models();
            respond_json(sink, 200, &json!({ "models": models }))
        }
        (Method::Get, "/api/hardware") => respond_json(
            sink,
            200,
            &serde_json::to_value(service.hardware()).unwrap_or(Value::Null),
        ),
        (Method::Get, "/api/config") => respond_json(sink, 200, &service.config_json()),
        (Method::Post, "/api/config") => handle_configure(service, sink, request),
        (Method::Post, "/api/query") => handle_query(service, sink, request, ctx, sse),
        (Method::Post, "/api/ingest") => handle_ingest(service, sink, request),
        (Method::Post, "/api/sessions") => {
            let id = service.create_session();
            respond_json(sink, 201, &json!({ "id": id }))
        }
        (Method::Get, "/api/sessions") => {
            let sessions: Vec<Value> = service
                .list_sessions()
                .into_iter()
                .map(|(id, title)| json!({ "id": id, "title": title }))
                .collect();
            respond_json(sink, 200, &json!({ "sessions": sessions }))
        }
        (Method::Delete, p) if p.starts_with("/api/sessions/") => {
            let id = &p["/api/sessions/".len()..];
            match service.delete_session(id) {
                Ok(()) => respond_json(sink, 200, &json!({ "deleted": id })),
                Err(e) => respond_json(sink, 404, &json!({ "error": e })),
            }
        }
        (Method::Other, _) => respond_json(sink, 405, &json!({ "error": "method not allowed" })),
        _ => respond_json(sink, 404, &json!({ "error": "not found" })),
    }
}

/// `GET /debug/traces` — index of retained traces, newest first, without
/// span bodies.
fn handle_trace_index(sink: &mut OutboxWriter) -> u16 {
    let store = TraceStore::global();
    let rows: Vec<Value> = store
        .index()
        .into_iter()
        .map(|t| {
            json!({
                "trace_id": format!("{:016x}", t.trace_id),
                "route": t.route,
                "status": t.status.as_str(),
                "duration_us": t.duration_us,
                "winner": t.winner,
                "class": t.class.as_str(),
                "spans": t.spans,
            })
        })
        .collect();
    let stats = store.stats();
    respond_json(
        sink,
        200,
        &json!({
            "traces": rows,
            "stats": {
                "offered": stats.offered,
                "retained": stats.retained,
                "sampled_out": stats.sampled_out,
                "evicted": stats.evicted,
                "buffered": stats.buffered,
            },
        }),
    )
}

/// `GET /debug/traces/{id}` — one retained trace as a nested span tree, or
/// as Chrome trace-event JSON (loadable in `chrome://tracing` / Perfetto)
/// with `?format=chrome`.
fn handle_trace_get(sink: &mut OutboxWriter, request: &Request) -> u16 {
    let hex = &request.path["/debug/traces/".len()..];
    let Some(id) = TraceId::from_hex(hex) else {
        return respond_json(sink, 400, &json!({ "error": "bad trace id" }));
    };
    let Some(stored) = TraceStore::global().get(id.get()) else {
        return respond_json(sink, 404, &json!({ "error": "trace not retained" }));
    };
    if request.query.get("format").map(String::as_str) == Some("chrome") {
        let data = TraceData::new(stored.trace_id, stored.spans);
        // Chrome JSON Object Format, loadable as-is in chrome://tracing
        // and Perfetto.
        let body = format!("{{\"traceEvents\":{}}}", data.chrome_json());
        let _ = write_response(sink, 200, "application/json", body.as_bytes());
        return 200;
    }
    respond_json(
        sink,
        200,
        &json!({
            "trace_id": format!("{:016x}", stored.trace_id),
            "route": stored.route,
            "status": stored.status.as_str(),
            "duration_us": stored.duration_us,
            "winner": stored.winner,
            "class": stored.class.as_str(),
            "spans": span_tree(&stored.spans, 0),
        }),
    )
}

/// Children of `parent` as nested JSON objects, ordered by start time.
fn span_tree(spans: &[SpanRecord], parent: u64) -> Vec<Value> {
    let mut children: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent == parent).collect();
    children.sort_by_key(|s| (s.start_us, s.id));
    children
        .into_iter()
        .map(|s| {
            let attrs: serde_json::Map<String, Value> = s
                .attrs
                .iter()
                .map(|(k, v)| {
                    let value = match v.as_u64() {
                        Some(n) => json!(n),
                        None => json!(v.as_str().unwrap_or_default()),
                    };
                    (k.to_owned(), value)
                })
                .collect();
            json!({
                "id": s.id,
                "name": s.name,
                "start_us": s.start_us,
                "duration_us": s.duration_us(),
                "status": s.status.as_str(),
                "attrs": attrs,
                "children": span_tree(spans, s.id),
            })
        })
        .collect()
}

fn handle_configure<S: AppService>(service: &S, sink: &mut OutboxWriter, request: &Request) -> u16 {
    let body: Value = match serde_json::from_str(&request.body_str()) {
        Ok(v) => v,
        Err(e) => return respond_json(sink, 400, &json!({ "error": format!("bad json: {e}") })),
    };
    let strategy = body.get("strategy").and_then(Value::as_str);
    let budget = body
        .get("token_budget")
        .and_then(Value::as_u64)
        .map(|v| v as usize);
    match service.configure(strategy, budget) {
        Ok(()) => respond_json(sink, 200, &service.config_json()),
        Err(e) => respond_json(sink, 400, &json!({ "error": e })),
    }
}

fn handle_ingest<S: AppService>(service: &S, sink: &mut OutboxWriter, request: &Request) -> u16 {
    let body: Value = match serde_json::from_str(&request.body_str()) {
        Ok(v) => v,
        Err(e) => return respond_json(sink, 400, &json!({ "error": format!("bad json: {e}") })),
    };
    let (Some(id), Some(text)) = (
        body.get("document_id").and_then(Value::as_str),
        body.get("text").and_then(Value::as_str),
    ) else {
        return respond_json(
            sink,
            400,
            &json!({ "error": "document_id and text are required" }),
        );
    };
    match service.ingest(id, text) {
        Ok(chunks) => respond_json(sink, 201, &json!({ "document_id": id, "chunks": chunks })),
        Err(e) => respond_json(sink, 400, &json!({ "error": e })),
    }
}

fn handle_query<S: AppService>(
    service: &S,
    sink: &mut OutboxWriter,
    request: &Request,
    ctx: &QueryContext,
    sse: &mut Option<SseOutcome>,
) -> u16 {
    let query: QueryRequest = match serde_json::from_str(&request.body_str()) {
        Ok(q) => q,
        Err(e) => return respond_json(sink, 400, &json!({ "error": format!("bad json: {e}") })),
    };
    if query.question.trim().is_empty() {
        return respond_json(sink, 400, &json!({ "error": "question is required" }));
    }
    if !query.stream {
        return match service.query(&query, ctx, None) {
            Ok(result) => respond_json(
                sink,
                200,
                &serde_json::to_value(&result).unwrap_or(Value::Null),
            ),
            Err(e) => respond_json(sink, e.status, &json!({ "error": e.message })),
        };
    }

    // Streaming: the orchestration runs here, on the dispatch worker that
    // owns the request. Its sink writes each event into the connection's
    // outbox as an SSE frame the moment it is emitted, and a final `result`
    // frame follows. The wire status is committed as 200 the moment the SSE
    // header goes out; the stream's real fate is reported through `sse`
    // instead.
    sink.mark_streaming();
    // First frame: the trace id, so a streaming client can pull
    // `/debug/traces/{id}` once the stream ends.
    let trace_frame = llmms_obs::trace::current()
        .trace_id()
        .map(|id| sse::frame("trace", &json!({ "trace_id": id.to_hex() }).to_string()));
    if write_sse_header(sink).is_err()
        || trace_frame.is_some_and(|frame| sink.write_all(frame.as_bytes()).is_err())
    {
        *sse = Some(SseOutcome {
            outcome: "client_gone",
            error_status: None,
            done_reason: None,
        });
        return 200;
    }
    let client_gone = Rc::new(Cell::new(false));
    let feed = SseFeed {
        writer: sink.clone(),
        client_gone: Rc::clone(&client_gone),
    };
    let result = service.query(&query, ctx, Some(Box::new(feed)));
    *sse = Some(finish_stream(sink, result, client_gone.get()));
    200
}

/// A streaming query's live feed: each orchestration event goes out as one
/// SSE frame on the orchestrating thread. The first failed write (client
/// gone, or stalled past the write-stall timeout) ends the feed.
struct SseFeed {
    writer: OutboxWriter,
    client_gone: Rc<Cell<bool>>,
}

impl EventSink for SseFeed {
    fn send(&mut self, event: &OrchestrationEvent) -> bool {
        let frame = sse::event_frame(event);
        if self.writer.write_all(frame.as_bytes()).is_err() {
            self.client_gone.set(true);
            return false;
        }
        true
    }
}

/// Write a stream's terminal frame — `result`, or `error` with the
/// failure's status — and report how the stream ended.
fn finish_stream(
    sink: &mut OutboxWriter,
    result: Result<OrchestrationResult, ServiceError>,
    client_gone: bool,
) -> SseOutcome {
    let (event, data, mut outcome) = match result {
        Ok(result) => (
            "result",
            serde_json::to_string(&result).unwrap_or_else(|_| "{}".into()),
            SseOutcome {
                outcome: if result.degraded { "degraded" } else { "ok" },
                error_status: None,
                done_reason: result
                    .outcomes
                    .get(result.best)
                    .and_then(|o| o.done)
                    .map(|d| d.as_str()),
            },
        ),
        Err(e) => (
            "error",
            json!({ "error": e.message, "status": e.status }).to_string(),
            SseOutcome {
                outcome: "error",
                error_status: Some(e.status),
                done_reason: None,
            },
        ),
    };
    let final_failed = sink.write_all(sse::frame(event, &data).as_bytes()).is_err();
    // An orchestration failure outranks the client leaving: the dashboards
    // exist to surface failing streams, not bored clients.
    if (client_gone || final_failed) && outcome.outcome != "error" {
        outcome.outcome = "client_gone";
    }
    outcome
}

/// Answer a request whose handler panicked. A stream whose header is out
/// ends with a 500 `error` frame; otherwise the client gets a 500 JSON
/// body, unless response bytes already went out, in which case the
/// connection closes after them.
fn answer_panic(sink: &mut OutboxWriter, sse: &mut Option<SseOutcome>) -> u16 {
    if sink.is_streaming() {
        let failed = Err(ServiceError::internal("orchestration worker panicked"));
        *sse = Some(finish_stream(sink, failed, false));
        return 200;
    }
    if sink.has_written() {
        sink.close_after();
        return 500;
    }
    respond_json(sink, 500, &json!({ "error": "request handler panicked" }))
}

fn respond_json(sink: &mut OutboxWriter, status: u16, body: &Value) -> u16 {
    let _ = write_response(
        sink,
        status,
        "application/json",
        body.to_string().as_bytes(),
    );
    status
}
