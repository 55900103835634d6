//! The [`AppService`] trait: what the HTTP layer needs from the platform.
//!
//! The server crate owns transport (HTTP parsing, routing, SSE); the
//! assembled platform (in the `llmms` facade crate) implements this trait.
//! Keeping the boundary a trait lets the transport be tested against a stub
//! and keeps the dependency graph acyclic.

use llmms_core::{EventSink, OrchestrationResult};
use llmms_models::{ModelInfo, UtilizationReport};
use serde::{Deserialize, Serialize};

/// One query as received by the API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// The user's question.
    pub question: String,
    /// Session to thread context through, if any.
    #[serde(default)]
    pub session_id: Option<String>,
    /// RAG context chunks to retrieve (0 disables retrieval).
    #[serde(default = "default_top_k")]
    pub top_k: usize,
    /// Restrict retrieval to one document.
    #[serde(default)]
    pub document_id: Option<String>,
    /// Stream orchestration events over SSE instead of returning one JSON
    /// body.
    #[serde(default)]
    pub stream: bool,
}

fn default_top_k() -> usize {
    3
}

/// Per-request context the transport layer extracts from headers and the
/// admission/brownout machinery, threaded alongside the parsed body.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryContext {
    /// Admission tenant (`X-LLMMS-Tenant` header, or [`crate::admission::DEFAULT_TENANT`]).
    pub tenant: String,
    /// Client deadline budget in milliseconds (`X-LLMMS-Deadline-Ms`
    /// header). Tightens — never loosens — the configured query deadline.
    pub deadline_ms: Option<u64>,
    /// Brownout degradation level the server chose for this request
    /// (0 = none, up to [`llmms_core::brownout::MAX_LEVEL`]).
    pub brownout_level: u8,
    /// Scheduler priority class (`X-LLMMS-Priority` header: `high` /
    /// `normal` / `batch`). Orders this query's jobs relative to the
    /// tenant's other in-flight queries in the shared executor.
    pub priority: llmms_exec::Priority,
}

/// A service-layer failure carrying the HTTP status it should surface as,
/// so orchestration failure modes map to meaningful statuses instead of a
/// blanket 400: every model failed → 502 (the upstream pool is the broken
/// gateway), deadline exceeded → 504, unknown resource → 404.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// HTTP status to respond with.
    pub status: u16,
    /// Human-readable message (returned in the JSON error body).
    pub message: String,
}

impl ServiceError {
    /// 400 Bad Request — invalid client input.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    /// 404 Not Found — referenced session/document does not exist.
    pub fn not_found(message: impl Into<String>) -> Self {
        Self {
            status: 404,
            message: message.into(),
        }
    }

    /// 502 Bad Gateway — every upstream model failed.
    pub fn bad_gateway(message: impl Into<String>) -> Self {
        Self {
            status: 502,
            message: message.into(),
        }
    }

    /// 504 Gateway Timeout — the query deadline expired with nothing to
    /// show.
    pub fn gateway_timeout(message: impl Into<String>) -> Self {
        Self {
            status: 504,
            message: message.into(),
        }
    }

    /// 500 Internal Server Error — unexpected platform failure.
    pub fn internal(message: impl Into<String>) -> Self {
        Self {
            status: 500,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.message, self.status)
    }
}

impl std::error::Error for ServiceError {}

impl From<String> for ServiceError {
    fn from(message: String) -> Self {
        ServiceError::bad_request(message)
    }
}

impl From<&str> for ServiceError {
    fn from(message: &str) -> Self {
        ServiceError::bad_request(message)
    }
}

/// The platform behaviour the HTTP layer dispatches to.
pub trait AppService: Send + Sync + 'static {
    /// Answer a query on the calling thread. When `sink` is supplied, hand
    /// it each orchestration event as it happens: for a streaming request
    /// the server passes a sink that writes every event straight to the
    /// client as an SSE frame, so the dispatch worker that owns the request
    /// runs the whole stream.
    ///
    /// # Errors
    ///
    /// A [`ServiceError`] carrying the HTTP status to respond with
    /// (502 when every model failed, 504 on deadline expiry, 400 for bad
    /// input).
    fn query(
        &self,
        request: &QueryRequest,
        ctx: &QueryContext,
        sink: Option<Box<dyn EventSink>>,
    ) -> Result<OrchestrationResult, ServiceError>;

    /// Ingest a document for RAG; returns the number of stored chunks.
    ///
    /// # Errors
    ///
    /// A human-readable error string.
    fn ingest(&self, document_id: &str, text: &str) -> Result<usize, String>;

    /// Static facts of every available model.
    fn list_models(&self) -> Vec<ModelInfo>;

    /// Current hardware utilization (the SMI poll).
    fn hardware(&self) -> UtilizationReport;

    /// Create a session, returning its id.
    fn create_session(&self) -> String;

    /// `(id, title)` of every session.
    fn list_sessions(&self) -> Vec<(String, String)>;

    /// Delete a session.
    ///
    /// # Errors
    ///
    /// A human-readable error string (mapped to HTTP 404).
    fn delete_session(&self, id: &str) -> Result<(), String>;

    /// Update orchestration settings. `strategy` is one of
    /// `"oua"`, `"mab"`, `"single"`.
    ///
    /// # Errors
    ///
    /// A human-readable error string.
    fn configure(&self, strategy: Option<&str>, token_budget: Option<usize>) -> Result<(), String>;

    /// The current orchestration settings as JSON.
    fn config_json(&self) -> serde_json::Value;

    /// Prometheus text exposition of the process-wide metrics registry
    /// (served at `GET /metrics`).
    fn metrics_text(&self) -> String {
        llmms_obs::prometheus::render(&llmms_obs::Registry::global().snapshot())
    }

    /// Per-model orchestration aggregates as JSON (served at `GET /stats`).
    fn stats_json(&self) -> serde_json::Value {
        stats_from(&llmms_obs::Registry::global().snapshot())
    }
}

/// Build the `/stats` payload from a metrics snapshot: one entry per model
/// seen by the orchestrator, with token/win/prune/early-win counts and the
/// mean Eq. 6.1 reward, plus request totals per route.
pub fn stats_from(snapshot: &llmms_obs::Snapshot) -> serde_json::Value {
    use serde_json::{json, Map, Value};
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct ModelStats {
        tokens: u64,
        wins: u64,
        prunes: u64,
        early_wins: u64,
        mean_reward: f64,
    }

    let model_of = |labels: &llmms_obs::Labels| {
        labels
            .iter()
            .find(|(k, _)| k == "model")
            .map(|(_, v)| v.clone())
    };

    let mut models: BTreeMap<String, ModelStats> = BTreeMap::new();
    for c in &snapshot.counters {
        let Some(model) = model_of(&c.labels) else {
            continue;
        };
        let entry = models.entry(model).or_default();
        match c.name.as_str() {
            "model_tokens_total" => entry.tokens += c.value,
            "model_wins_total" => entry.wins += c.value,
            "model_pruned_total" => entry.prunes += c.value,
            "model_early_win_total" => entry.early_wins += c.value,
            _ => {}
        }
    }
    for h in &snapshot.histograms {
        if h.name != "model_reward" {
            continue;
        }
        let Some(model) = model_of(&h.labels) else {
            continue;
        };
        models.entry(model).or_default().mean_reward = h.mean;
    }

    let mut model_map = Map::new();
    for (name, s) in models {
        model_map.insert(
            name,
            json!({
                "tokens": s.tokens,
                "wins": s.wins,
                "prunes": s.prunes,
                "early_wins": s.early_wins,
                "mean_reward": s.mean_reward,
            }),
        );
    }

    // Requests are keyed on the full (route, status) label set: counters
    // that share a route but differ in status are separate series, so 4xx
    // and 5xx counts must not be folded into (or overwritten by) the
    // success totals.
    let mut by_route: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for c in &snapshot.counters {
        if c.name != "http_requests_total" {
            continue;
        }
        let Some((_, route)) = c.labels.iter().find(|(k, _)| k == "route") else {
            continue;
        };
        let status = c
            .labels
            .iter()
            .find(|(k, _)| k == "status")
            .map_or_else(|| "unknown".to_owned(), |(_, v)| v.clone());
        *by_route
            .entry(route.clone())
            .or_default()
            .entry(status)
            .or_insert(0) += c.value;
    }
    let mut routes = Map::new();
    for (route, statuses) in by_route {
        let total: u64 = statuses.values().sum();
        let mut status_map = Map::new();
        for (status, count) in statuses {
            status_map.insert(status, json!(count));
        }
        routes.insert(
            route,
            json!({ "total": total, "by_status": Value::Object(status_map) }),
        );
    }

    // Circuit-breaker health: current state per model (from the
    // `breaker_state` gauge) plus lifetime transition counts.
    let mut breakers = Map::new();
    for g in &snapshot.gauges {
        if g.name != "breaker_state" {
            continue;
        }
        let Some(model) = model_of(&g.labels) else {
            continue;
        };
        let state = match g.value {
            0 => "closed",
            1 => "half_open",
            _ => "open",
        };
        let transitions: u64 = snapshot
            .counters
            .iter()
            .filter(|c| {
                c.name == "breaker_transitions_total"
                    && c.labels.iter().any(|(k, v)| k == "model" && *v == model)
            })
            .map(|c| c.value)
            .sum();
        breakers.insert(model, json!({ "state": state, "transitions": transitions }));
    }

    // Incremental scoring engine: cross-round embedding-cache hit rate,
    // dirty arms per round, and per-round scoring refresh latency.
    let counter_total = |name: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    };
    let dirty = counter_total("scoring_arms_dirty_total");
    let clean = counter_total("scoring_arms_clean_total");
    let hit_rate = if dirty + clean == 0 {
        0.0
    } else {
        clean as f64 / (dirty + clean) as f64
    };
    let hist_of = |name: &str| snapshot.histograms.iter().find(|h| h.name == name);
    let scoring = json!({
        "arms_dirty": dirty,
        "arms_clean": clean,
        "cache_hit_rate": hit_rate,
        "mean_dirty_arms_per_round": hist_of("scoring_dirty_arms").map_or(0.0, |h| h.mean),
        "refresh_us": hist_of("scoring_refresh_us").map_or_else(
            || json!({ "count": 0 }),
            |h| json!({ "count": h.count, "mean": h.mean, "p50": h.p50, "p99": h.p99 }),
        ),
    });

    // Parallel round execution: aggregate speedup (total per-arm busy time
    // over wall-clock round time — how much generation overlapped), last
    // round's fan-out, per-model generate latency and the embedding
    // memo-cache counters that feed the overlap. `rounds`, `busy_us`,
    // `wall_us` and the speedup cover fanned-out rounds only;
    // `inline_rounds` counts the rounds of two or more arms that computed
    // on the calling thread.
    let busy_us = hist_of("round_busy_us").map_or(0.0, |h| h.sum);
    let wall_us = hist_of("round_wall_us").map_or(0.0, |h| h.sum);
    let mut generate = Map::new();
    for h in &snapshot.histograms {
        if h.name != "generate_latency_us" {
            continue;
        }
        let Some(model) = model_of(&h.labels) else {
            continue;
        };
        generate.insert(
            model,
            json!({ "count": h.count, "mean": h.mean, "p99": h.p99 }),
        );
    }
    let parallel = json!({
        "rounds": hist_of("round_wall_us").map_or(0, |h| h.count),
        "inline_rounds": counter_total("round_inline_total"),
        "last_round_fanout": snapshot
            .gauges
            .iter()
            .find(|g| g.name == "round_fanout")
            .map_or(0, |g| g.value),
        "busy_us": busy_us,
        "wall_us": wall_us,
        "round_parallel_speedup": if wall_us > 0.0 { busy_us / wall_us } else { 0.0 },
        "generate_latency_us": Value::Object(generate),
        "embed_cache": {
            "hits": counter_total("embed_cache_hits_total"),
            "misses": counter_total("embed_cache_misses_total"),
        },
    });

    // Durable storage: WAL append/fsync activity, checkpoint cost, and
    // what the last recovery replayed. All zeros on an in-memory store.
    let storage = json!({
        "wal_appends": counter_total("wal_appends_total"),
        "wal_fsync_us": hist_of("wal_fsync_us").map_or_else(
            || json!({ "count": 0 }),
            |h| json!({ "count": h.count, "mean": h.mean, "p50": h.p50, "p99": h.p99 }),
        ),
        "snapshots": counter_total("snapshots_total"),
        "snapshot_us": hist_of("snapshot_us").map_or_else(
            || json!({ "count": 0 }),
            |h| json!({ "count": h.count, "mean": h.mean, "p99": h.p99 }),
        ),
        "recovery": {
            "replayed_frames": counter_total("recovery_replayed_frames"),
            "torn_tails": counter_total("recovery_torn_tails_total"),
        },
    });

    // Request tracing: the tail sampler's bookkeeping, mirrored into the
    // registry by the global trace store.
    let tracing = json!({
        "offered": counter_total("traces_offered_total"),
        "retained": counter_total("traces_retained_total"),
        "sampled_out": counter_total("traces_sampled_out_total"),
        "evicted": counter_total("traces_evicted_total"),
        "buffered": snapshot
            .gauges
            .iter()
            .find(|g| g.name == "traces_buffered")
            .map_or(0, |g| g.value),
    });

    // Overload control plane: admission decisions, computed sheds, the
    // brownout ladder's current level/pressure, and how often each level
    // actually degraded a query.
    let gauge_of = |name: &str| {
        snapshot
            .gauges
            .iter()
            .find(|g| g.name == name)
            .map_or(0, |g| g.value)
    };
    let mut rejected = Map::new();
    for c in &snapshot.counters {
        if c.name != "admission_rejected_total" {
            continue;
        }
        let reason = c
            .labels
            .iter()
            .find(|(k, _)| k == "reason")
            .map_or_else(|| "unknown".to_owned(), |(_, v)| v.clone());
        let prior = rejected.get(&reason).and_then(Value::as_u64).unwrap_or(0);
        rejected.insert(reason, json!(prior + c.value));
    }
    let mut brownout_queries = Map::new();
    for c in &snapshot.counters {
        if c.name != "brownout_queries_total" {
            continue;
        }
        let level = c
            .labels
            .iter()
            .find(|(k, _)| k == "level")
            .map_or_else(|| "unknown".to_owned(), |(_, v)| v.clone());
        brownout_queries.insert(level, json!(c.value));
    }
    let overload = json!({
        "admitted": counter_total("admission_admitted_total"),
        "rejected": Value::Object(rejected),
        "shed": counter_total("http_shed_total"),
        "deadline_rejects": counter_total("deadline_rejects_total"),
        "estimated_service_ms": gauge_of("admission_estimated_service_ms"),
        "brownout": {
            "level": gauge_of("brownout_level"),
            "pressure": gauge_of("overload_pressure_x1000") as f64 / 1000.0,
            "transitions": counter_total("brownout_transitions_total"),
            "queries_by_level": Value::Object(brownout_queries),
        },
    });

    // ANN fast path: segment lifecycle (seals, compactions, fan-out per
    // search) and how indexes came back on the last recovery — read from
    // the persisted sidecar or rebuilt from records.
    let ann = json!({
        "seals": counter_total("ann_seals_total"),
        "segment_compactions": counter_total("ann_segment_compactions_total"),
        "segments_searched": hist_of("ann_segments_searched").map_or_else(
            || json!({ "count": 0 }),
            |h| json!({ "count": h.count, "mean": h.mean, "p99": h.p99 }),
        ),
        "indexes_reopened": counter_total("ann_index_reopened_total"),
        "indexes_rebuilt": counter_total("ann_index_rebuilt_total"),
    });

    // Cross-query scheduler: live backlog/active-query gauges, worker-level
    // dispatch accounting per tenant, queue run-delay percentiles, and the
    // poisoned-task counter from the panic-isolation path.
    let mut dispatched = Map::new();
    for c in &snapshot.counters {
        if c.name != "sched_dispatch_total" {
            continue;
        }
        let tenant = c
            .labels
            .iter()
            .find(|(k, _)| k == "tenant")
            .map_or_else(|| "unknown".to_owned(), |(_, v)| v.clone());
        let prior = dispatched.get(&tenant).and_then(Value::as_u64).unwrap_or(0);
        dispatched.insert(tenant, json!(prior + c.value));
    }
    let sched = json!({
        "queue_depth": gauge_of("sched_queue_depth"),
        "active_queries": gauge_of("sched_active_queries"),
        "dispatched_by_tenant": Value::Object(dispatched),
        "run_delay_us": hist_of("sched_run_delay_us").map_or_else(
            || json!({ "count": 0 }),
            |h| json!({ "count": h.count, "mean": h.mean, "p50": h.p50, "p99": h.p99 }),
        ),
        "task_panics": counter_total("exec_task_panics_total"),
    });

    json!({
        "models": Value::Object(model_map),
        "requests": Value::Object(routes),
        "breakers": Value::Object(breakers),
        "scoring": scoring,
        "parallel": parallel,
        "storage": storage,
        "ann": ann,
        "tracing": tracing,
        "overload": overload,
        "sched": sched,
    })
}
