//! The traced run's in-process half: replay a sample of the workload stage
//! by stage with a span around each call into a crate's public API, time a
//! few calls directly, and turn both into the per-layer metrics.
//!
//! The stages mirror `Platform::ask_with` (crates/llmms/src/platform.rs,
//! `ask_inner`): register with the scheduler → retrieve → session context →
//! build prompt → orchestrate → record the turn. The replay checks that the
//! staged answer equals the platform's own for every request, so the mirror
//! cannot drift unnoticed.

use crate::child;
use crate::gen::{Op, Timed, CHUNKS_PER_DOC, TENANTS};
use crate::http::render_request;
use crate::spans::{self_times, write_jsonl, Recorder, Span, TimedEmbedder, TimedModel};
use crate::stats::{mean, median};
use crate::workloads::{Inputs, Metrics, Workload};
use llmms::core::{OrchestrationEvent, OrchestrationResult, Orchestrator, QueryOverrides};
use llmms::embed::{Embedder, SharedEmbedder};
use llmms::models::SharedModel;
use llmms::platform::AskOptions;
use llmms::rag::{HistoryTurn, PromptBuilder, PromptConfig};
use llmms::session::{MemoryGraph, MemoryGraphConfig, Role};
use llmms::vectordb::{meta, Filter, Record};
use llmms::Platform;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests replayed in-process.
const SAMPLE: usize = 500;

/// Every per-layer metric with its unit. A traced run reports all of them;
/// a layer that does no work on a workload reads 0.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("server.parse_head_us_p50", "us"),
    ("server.admit_us_p50", "us"),
    ("server.sse_frame_us_p50", "us"),
    ("server.sse_frames_per_req", "count"),
    ("server.render_response_us_p50", "us"),
    ("server.response_bytes_per_req", "bytes"),
    ("server.transport_ms_p50", "ms"),
    ("server.shed_total", "count"),
    ("server.rejected_total", "count"),
    ("exec.fanout3_us_p50", "us"),
    ("exec.run_delay_us_p50", "us"),
    ("exec.tasks_per_query", "count"),
    ("exec.queue_depth_max", "count"),
    ("exec.task_panics", "count"),
    ("exec.self_share", "share"),
    ("core.run_ms_p50", "ms"),
    ("core.self_us_p50", "us"),
    ("core.rounds_per_query", "count"),
    ("core.prunes_per_query", "count"),
    ("core.early_stop_share", "share"),
    ("core.score_us_per_round", "us"),
    ("core.scoring_cache_hit_share", "share"),
    ("core.self_share", "share"),
    ("models.chunk_us_p50", "us"),
    ("models.chunks_per_query", "count"),
    ("models.tokens_per_query", "count"),
    ("models.failed_total", "count"),
    ("models.self_share", "share"),
    ("embed.embed_us_p50", "us"),
    ("embed.calls_per_query", "count"),
    ("embed.cache_hit_share", "share"),
    ("embed.cosine_ns_384d", "ns"),
    ("embed.self_share", "share"),
    ("tokenizer.normalize_us_per_kword", "us"),
    ("vectordb.query_us_p50", "us"),
    ("vectordb.vectors_scanned_per_query", "count"),
    ("vectordb.segments_searched_p50", "count"),
    ("vectordb.upsert_us_per_chunk", "us"),
    ("vectordb.delete_matching_us_p50", "us"),
    ("vectordb.wal_appends_per_ingest", "count"),
    ("vectordb.wal_bytes_per_chunk", "bytes"),
    ("vectordb.fsync_us_p50", "us"),
    ("vectordb.snapshot_ms", "ms"),
    ("vectordb.self_share", "share"),
    ("rag.retrieve_us_p50", "us"),
    ("rag.retrieve_self_us_p50", "us"),
    ("rag.hit_share", "share"),
    ("rag.prompt_build_us_p50", "us"),
    ("rag.prompt_tokens", "count"),
    ("rag.ingest_ms_per_doc", "ms"),
    ("rag.chunks_per_doc", "count"),
    ("rag.ingest_http_ms_p50", "ms"),
    ("rag.self_share", "share"),
    ("session.push_us_p50", "us"),
    ("session.context_us_p50", "us"),
    ("session.memory_record_us_p50", "us"),
    ("session.summaries_per_100_turns", "count"),
    ("session.self_share", "share"),
    ("llmms.ask_ms_p50", "ms"),
    ("llmms.unattributed_share", "share"),
    ("obs.trace_overhead_share", "share"),
    ("loadgen.sched_lag_p90_ms", "ms"),
    ("loadgen.steal_share", "share"),
    ("loadgen.calib_drift", "share"),
    ("offline.pass_ms_p50", "ms"),
    ("offline.oracle_ms", "ms"),
    ("offline.queries_per_pass", "count"),
];

/// Median time of one call to `f`, in microseconds, from `rounds` timings of
/// `batch` back-to-back calls each (a single sub-microsecond call is below
/// the clock's resolution).
fn probe_us(rounds: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(rounds);
    let mut i = 0;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..batch {
            f(i);
            i += 1;
        }
        per_call.push(start.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    median(&per_call)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Removes the replay's durable store on every exit path.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The first [`SAMPLE`] operations of the measured plan in due order
/// (connections interleaved, as the server saw them).
fn sample_of(inp: &Inputs) -> Vec<Op> {
    let mut cursors: Vec<std::slice::Iter<'_, Timed>> =
        inp.measured.iter().map(|l| l.iter()).collect();
    let mut heads: Vec<Option<&Timed>> = cursors.iter_mut().map(Iterator::next).collect();
    let mut out = Vec::with_capacity(SAMPLE);
    while out.len() < SAMPLE {
        // Ties (a closed loop has no due times) go round-robin by length.
        let Some(next) = (0..heads.len())
            .filter(|&i| heads[i].is_some())
            .min_by_key(|&i| (heads[i].map(|t| t.due), out.len() % heads.len() != i))
        else {
            break;
        };
        out.push(heads[next].expect("filtered").op.clone());
        heads[next] = cursors[next].next();
    }
    out
}

/// What one replayed request asks of the platform.
struct Ask {
    question: String,
    options: AskOptions,
    stream: bool,
}

fn ask_of(op: &Op, inp: &Inputs, sessions: &[String]) -> Option<Ask> {
    match op {
        Op::Chat { slot, tenant, item } => Some(Ask {
            question: inp.pool.items[*item].question.clone(),
            options: AskOptions {
                session_id: slot.map(|s| sessions[s].clone()),
                top_k: 0,
                tenant: Some(TENANTS[*tenant].to_owned()),
                ..Default::default()
            },
            stream: true,
        }),
        Op::Rag { doc, fact, stream } => Some(Ask {
            question: inp.docs[*doc].question(*fact),
            options: AskOptions {
                top_k: 3,
                tenant: Some("default".to_owned()),
                ..Default::default()
            },
            stream: *stream,
        }),
        Op::NewSession { .. } | Op::Ingest { .. } => None,
    }
}

/// The pieces `Platform::ask_with` composes, held separately so each call
/// between them can carry a span.
struct Staged<'a> {
    platform: &'a Platform,
    recorder: &'a Recorder,
    embedder: SharedEmbedder,
    models: Vec<SharedModel>,
    orchestrator: Orchestrator,
    memory: MemoryGraph,
    /// Store time measured directly for each sampled operation (see
    /// `direct_store_times`), attached under the call that contains it.
    store_time: &'a HashMap<usize, Duration>,
    summaries: usize,
    turns: usize,
}

impl Staged<'_> {
    fn ask(&mut self, index: usize, ask: &Ask) -> Result<(OrchestrationResult, String), String> {
        let rec = self.recorder;
        rec.next_request();
        let _root = rec.stage("llmms.ask");
        let o = &ask.options;
        let _scope = {
            let _span = rec.stage("exec.register");
            let handle = llmms::exec::QueryHandle::register(
                o.tenant.as_deref().unwrap_or("default"),
                o.priority,
                None,
            );
            (handle.enter(), handle)
        };
        let context = if o.top_k > 0 {
            let span = rec.stage("rag.retrieve");
            let hits = self
                .platform
                .retriever()
                .retrieve(&ask.question, o.top_k, None)
                .map_err(|e| e.to_string())?;
            if let (Some(span), Some(dur)) = (&span, self.store_time.get(&index)) {
                rec.synthetic_child(span, "vectordb.query", *dur);
            }
            hits
        } else {
            Vec::new()
        };
        let session = match &o.session_id {
            Some(id) => Some(
                self.platform
                    .sessions()
                    .get(id)
                    .map_err(|e| e.to_string())?,
            ),
            None => None,
        };
        let mut history = Vec::new();
        if let Some(session) = &session {
            let _span = rec.stage("session.context");
            for m in session.read().context_turns() {
                history.push(HistoryTurn {
                    role: m.role.as_str().to_owned(),
                    text: m.text,
                });
            }
        }
        let prompt = {
            let _span = rec.stage("rag.prompt_build");
            PromptBuilder::new(PromptConfig::default())
                .question(&ask.question)
                .context(context)
                .history(history)
                .build()
        };
        let result = {
            let _span = rec.stage("core.run");
            let overrides = QueryOverrides {
                tenant: o.tenant.clone(),
                ..Default::default()
            };
            if ask.stream {
                let (tx, rx) = llmms::crossbeam_channel::unbounded();
                let result =
                    self.orchestrator
                        .run_streaming_with(&self.models, &prompt, tx, overrides);
                drop(rx);
                result
            } else {
                self.orchestrator.run_with(&self.models, &prompt, overrides)
            }
            .map_err(|e| e.to_string())?
        };
        if let (Some(session), Some(id)) = (&session, &o.session_id) {
            let mut guard = session.write();
            for (role, text) in [
                (Role::User, ask.question.as_str()),
                (Role::Assistant, result.response()),
            ] {
                let before = guard.summary().len();
                let _span = rec.stage("session.push");
                guard.push(role, text, &self.embedder);
                self.summaries += usize::from(guard.summary().len() != before);
            }
            self.turns += 1;
            let _span = rec.stage("session.memory_record");
            self.memory.record(id, &ask.question, result.response());
        }
        Ok((result, prompt))
    }
}

/// Time the store calls that sit inside `Retriever::retrieve` and
/// `Retriever::ingest_text`, by making the same calls directly on the
/// platform's collection: the top-k query of every sampled question, and the
/// delete-stale + upsert-batch pair of every sampled re-ingest.
fn direct_store_times(
    platform: &Platform,
    ops: &[Op],
    inp: &Inputs,
    persist: Option<&Path>,
    m: &mut Metrics,
) -> Result<HashMap<usize, Duration>, String> {
    let mut per_op = HashMap::new();
    let Ok(coll) = platform.vector_db().collection("rag-chunks") else {
        return Ok(per_op);
    };
    let embedder = platform.embedder();
    let (mut query, mut delete, mut upsert, mut wal_bytes) = (vec![], vec![], vec![], vec![]);
    let mut hits = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Rag { doc, fact, .. } => {
                let e = embedder.embed(&inp.docs[*doc].question(*fact));
                let guard = coll.read();
                let start = Instant::now();
                let found = guard.query(&e, 3, None).map_err(|e| e.to_string())?;
                let dur = start.elapsed();
                query.push(us(dur));
                per_op.insert(i, dur);
                let top_doc = found
                    .first()
                    .and_then(|h| h.metadata.get("document_id")?.as_str().map(str::to_owned));
                hits.push(f64::from(u8::from(
                    top_doc.as_deref() == Some(inp.docs[*doc].id.as_str()),
                )));
            }
            Op::Ingest { doc } => {
                let d = &inp.docs[*doc];
                let paragraphs = [d.text.clone()];
                let records: Vec<Record> =
                    llmms::rag::chunk(&paragraphs, &llmms::rag::ChunkStrategy::default())
                        .iter()
                        .map(|c| {
                            Record::new(format!("{}#{}", d.id, c.index), embedder.embed(&c.text))
                                .with_document(c.text.clone())
                                .with_metadata(meta([
                                    ("document_id", d.id.as_str().into()),
                                    ("chunk_index", (c.index as i64).into()),
                                    ("title", d.id.as_str().into()),
                                ]))
                        })
                        .collect();
                let chunks = records.len().max(1) as f64;
                let bytes_before = persist.map_or(0, dir_bytes);
                let mut guard = coll.write();
                let start = Instant::now();
                guard
                    .delete_matching(&Filter::eq_str("document_id", &d.id))
                    .map_err(|e| e.to_string())?;
                let deleted = start.elapsed();
                guard.upsert_batch(records).map_err(|e| e.to_string())?;
                let total = start.elapsed();
                drop(guard);
                delete.push(us(deleted));
                upsert.push(us(total - deleted) / chunks);
                per_op.insert(i, total);
                if let Some(dir) = persist {
                    // A snapshot in between truncates the log; the median
                    // over the sample ignores that one reading.
                    wal_bytes.push(dir_bytes(dir) as f64 - bytes_before as f64);
                }
            }
            _ => {}
        }
    }
    if !query.is_empty() {
        // A flat index scans every slot of every segment, live or deleted.
        let stats = coll.read().stats();
        m.insert("vectordb.query_us_p50", median(&query));
        m.insert(
            "vectordb.vectors_scanned_per_query",
            (stats.records + stats.tombstones) as f64,
        );
        m.insert(
            "vectordb.segments_searched_p50",
            (stats.sealed_segments + 1) as f64,
        );
        m.insert("rag.hit_share", mean(&hits));
    }
    if !delete.is_empty() {
        m.insert("vectordb.delete_matching_us_p50", median(&delete));
        m.insert("vectordb.upsert_us_per_chunk", median(&upsert));
        m.insert(
            "vectordb.wal_bytes_per_chunk",
            median(&wal_bytes) / CHUNKS_PER_DOC as f64,
        );
    }
    Ok(per_op)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .map(|e| {
                e.metadata().map_or(0, |m| {
                    if m.is_dir() {
                        dir_bytes(&e.path())
                    } else {
                        m.len()
                    }
                })
            })
            .sum()
    })
}

/// Direct timings of calls that are too small, or too deep inside another
/// call, to see as spans: the HTTP layer's pure functions, the executor's
/// fan-out, and the embedding arithmetic.
fn micro_probes(
    heads: &[String],
    events: &[OrchestrationEvent],
    bodies: &[String],
    texts: &[String],
    m: &mut Metrics,
) {
    use llmms::server::{http, sse, AdmissionConfig, AdmissionController, TenantQuota};
    if !heads.is_empty() {
        m.insert(
            "server.parse_head_us_p50",
            probe_us(200, 20, |i| {
                let head =
                    http::parse_head(&heads[i % heads.len()]).expect("own request head parses");
                std::hint::black_box(
                    http::body_len(&head.headers).expect("own content-length parses"),
                );
            }),
        );
        let admission = Arc::new(AdmissionController::new(AdmissionConfig {
            default_quota: TenantQuota {
                rate_per_sec: 1e6,
                burst: 1e6,
                max_concurrent: 1024,
            },
            ..Default::default()
        }));
        m.insert(
            "server.admit_us_p50",
            probe_us(200, 50, |i| {
                std::hint::black_box(admission.admit(TENANTS[i % TENANTS.len()]).is_ok());
            }),
        );
    }
    if !events.is_empty() {
        m.insert(
            "server.sse_frame_us_p50",
            probe_us(200, 20, |i| {
                std::hint::black_box(sse::event_frame(&events[i % events.len()]));
            }),
        );
    }
    if !bodies.is_empty() {
        m.insert(
            "server.render_response_us_p50",
            probe_us(200, 20, |i| {
                let body = bodies[i % bodies.len()].as_bytes();
                std::hint::black_box(http::render_response(
                    200,
                    "application/json",
                    &[],
                    true,
                    body,
                ));
            }),
        );
    }
    m.insert(
        "exec.fanout3_us_p50",
        probe_us(300, 1, |_| {
            let tasks: Vec<(usize, _)> = (0..3).map(|i| (i, move || i)).collect();
            std::hint::black_box(llmms::exec::submit_indexed(tasks).wait());
        }),
    );
    if !texts.is_empty() {
        let raw = llmms::embed::HashedNgramEmbedder::default();
        m.insert(
            "embed.embed_us_p50",
            probe_us(200, 5, |i| {
                std::hint::black_box(raw.embed(&texts[i % texts.len()]));
            }),
        );
        let (a, b) = (raw.embed(&texts[0]), raw.embed(&texts[texts.len() / 2]));
        m.insert(
            "embed.cosine_ns_384d",
            1e3 * probe_us(200, 1000, |_| {
                std::hint::black_box(llmms::embed::cosine_embeddings(
                    std::hint::black_box(&a),
                    &b,
                ));
            }),
        );
        let words: usize = texts.iter().map(|t| t.split_whitespace().count()).sum();
        let config = llmms::tokenizer::NormalizerConfig::case_insensitive();
        let start = Instant::now();
        for t in texts {
            std::hint::black_box(llmms::tokenizer::normalize(t, &config));
        }
        m.insert(
            "tokenizer.normalize_us_per_kword",
            us(start.elapsed()) * 1e3 / words.max(1) as f64,
        );
    }
}

/// Turn the staged pass's spans into per-layer metrics: median durations of
/// the named calls, calls per request, and each layer's share of the root
/// spans by self time. The shares and the root's own remainder
/// (`llmms.unattributed_share`) add up to 1.
fn span_metrics(spans: &[Span], root: &'static str, queries: usize, m: &mut Metrics) {
    let selfs = self_times(spans);
    let durs = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    let count = |prefix: &str| spans.iter().filter(|s| s.name.starts_with(prefix)).count() as f64;
    let q = queries.max(1) as f64;
    m.insert("core.run_ms_p50", median(&durs("core.run")) / 1e3);
    m.insert("models.chunk_us_p50", median(&durs("models.chunk")));
    m.insert("models.chunks_per_query", count("models.chunk") / q);
    m.insert("embed.calls_per_query", count("embed.") / q);
    m.insert("rag.retrieve_us_p50", median(&durs("rag.retrieve")));
    m.insert("rag.prompt_build_us_p50", median(&durs("rag.prompt_build")));
    m.insert("session.push_us_p50", median(&durs("session.push")));
    m.insert("session.context_us_p50", median(&durs("session.context")));
    m.insert(
        "session.memory_record_us_p50",
        median(&durs("session.memory_record")),
    );
    let self_of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| selfs[&s.id] as f64 / 1e3)
            .collect()
    };
    m.insert("core.self_us_p50", median(&self_of("core.run")));
    m.insert("rag.retrieve_self_us_p50", median(&self_of("rag.retrieve")));

    // Only spans under a root count: set-up work outside any request does not.
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let under_root = |s: &Span| {
        let mut at = s;
        loop {
            if at.name == root {
                return true;
            }
            match by_id.get(&at.parent) {
                Some(p) => at = p,
                None => return false,
            }
        }
    };
    let total: f64 = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.dur_ns() as f64)
        .sum();
    let mut by_layer: HashMap<&str, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.name != root && under_root(s)) {
        *by_layer.entry(s.layer()).or_default() += selfs[&s.id] as f64;
    }
    let share = |x: f64| if total > 0.0 { x / total } else { 0.0 };
    for (layer, key) in [
        ("exec", "exec.self_share"),
        ("core", "core.self_share"),
        ("models", "models.self_share"),
        ("embed", "embed.self_share"),
        ("vectordb", "vectordb.self_share"),
        ("rag", "rag.self_share"),
        ("session", "session.self_share"),
    ] {
        m.insert(key, share(by_layer.get(layer).copied().unwrap_or(0.0)));
    }
    let attributed: f64 = by_layer.values().sum();
    m.insert("llmms.unattributed_share", share(total - attributed));
}

fn result_metrics(results: &[OrchestrationResult], m: &mut Metrics) {
    let n = results.len().max(1) as f64;
    m.insert(
        "core.rounds_per_query",
        results.iter().map(|r| r.rounds as f64).sum::<f64>() / n,
    );
    m.insert(
        "core.prunes_per_query",
        results
            .iter()
            .map(|r| r.outcomes.iter().filter(|o| o.pruned).count() as f64)
            .sum::<f64>()
            / n,
    );
    m.insert(
        "models.tokens_per_query",
        results.iter().map(|r| r.total_tokens as f64).sum::<f64>() / n,
    );
    m.insert(
        "models.failed_total",
        results
            .iter()
            .map(|r| r.outcomes.iter().filter(|o| o.failed).count() as f64)
            .sum(),
    );
}

/// The in-process half of an online workload's traced run.
pub fn replay_online(
    w: Workload,
    inp: &Inputs,
    http_latency_p50_ms: f64,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let recorder = Recorder::new();
    let cache = TimedEmbedder::new(Arc::clone(&recorder));
    let timed: SharedEmbedder = cache.clone();
    let knowledge = llmms::eval::generate(&llmms::eval::GeneratorConfig::default()).to_knowledge();
    let mut builder = Platform::builder()
        .knowledge(knowledge)
        .embedder(Arc::clone(&timed));
    let temp = (w == Workload::RagRwOpen).then(|| TempDir(child::persist_dir("replay")));
    if let Some(dir) = &temp {
        builder = builder.persist_path(&dir.0);
    }
    let platform = builder.build().map_err(|e| e.to_string())?;

    // The same corpus the server held, loaded through the same call.
    let load_start = Instant::now();
    let mut chunks = 0;
    for d in &inp.docs {
        chunks += platform
            .ingest_document(&d.id, &d.text)
            .map_err(|e| e.to_string())?;
    }
    if !inp.docs.is_empty() {
        m.insert(
            "rag.ingest_ms_per_doc",
            load_start.elapsed().as_secs_f64() * 1e3 / inp.docs.len() as f64,
        );
        m.insert("rag.chunks_per_doc", chunks as f64 / inp.docs.len() as f64);
    }

    let ops = sample_of(inp);
    let store_time = direct_store_times(
        &platform,
        &ops,
        inp,
        temp.as_ref().map(|t| t.0.as_path()),
        m,
    )?;

    // Pass 1, untraced: the platform's own `ask_with` / `ask_streaming`.
    cache.reset_cache();
    let mut plain_ms = Vec::new();
    let mut plain_answers = Vec::new();
    let mut events: Vec<OrchestrationEvent> = Vec::new();
    let mut bodies = Vec::new();
    let mut sessions = vec![String::new(); 8];
    for op in &ops {
        match op {
            Op::NewSession { slot } => {
                sessions[*slot] = platform.sessions().create().read().id.clone()
            }
            Op::Ingest { doc } => {
                let d = &inp.docs[*doc];
                platform
                    .ingest_document(&d.id, &d.text)
                    .map_err(|e| e.to_string())?;
            }
            _ => {
                let ask = ask_of(op, inp, &sessions).expect("query op");
                let start = Instant::now();
                let result = if ask.stream {
                    let (tx, rx) = llmms::crossbeam_channel::unbounded();
                    let r = platform.ask_streaming(&ask.question, &ask.options, tx);
                    plain_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    if events.len() < 2000 {
                        events.extend(rx.iter());
                    }
                    r
                } else {
                    let r = platform.ask_with(&ask.question, &ask.options);
                    plain_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    r
                }
                .map_err(|e| e.to_string())?;
                if bodies.len() < 200 {
                    bodies.push(serde_json::to_string(&result).map_err(|e| e.to_string())?);
                }
                plain_answers.push(result.response().to_owned());
            }
        }
    }

    // Pass 2, traced: the same requests stage by stage, in fresh sessions.
    let mut staged = Staged {
        platform: &platform,
        recorder: &recorder,
        embedder: Arc::clone(&timed),
        models: platform
            .models()
            .iter()
            .map(|model| {
                Arc::new(TimedModel {
                    inner: Arc::clone(model),
                    recorder: Arc::clone(&recorder),
                }) as SharedModel
            })
            .collect(),
        orchestrator: Orchestrator::new(Arc::clone(&timed), platform.orchestrator_config()),
        memory: MemoryGraph::new(Arc::clone(&timed), MemoryGraphConfig::default()),
        store_time: &store_time,
        summaries: 0,
        turns: 0,
    };
    let mut results = Vec::new();
    let mut prompts = Vec::new();
    let mut staged_answers = Vec::new();
    cache.reset_cache();
    recorder.set_enabled(true);
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::NewSession { slot } => {
                sessions[*slot] = platform.sessions().create().read().id.clone()
            }
            Op::Ingest { doc } => {
                let d = &inp.docs[*doc];
                recorder.next_request();
                let span = recorder.stage("rag.ingest");
                platform
                    .ingest_document(&d.id, &d.text)
                    .map_err(|e| e.to_string())?;
                if let (Some(span), Some(dur)) = (&span, store_time.get(&i)) {
                    recorder.synthetic_child(span, "vectordb.write", *dur);
                }
            }
            _ => {
                let ask = ask_of(op, inp, &sessions).expect("query op");
                let (result, prompt) = staged.ask(i, &ask)?;
                staged_answers.push(result.response().to_owned());
                results.push(result);
                prompts.push(prompt);
            }
        }
    }
    recorder.set_enabled(false);
    let (summaries, turns) = (staged.summaries, staged.turns);
    let spans = recorder.take();

    if let Some(i) = (0..plain_answers.len()).find(|&i| plain_answers[i] != staged_answers[i]) {
        return Err(format!(
            "staged replay diverged from Platform::ask on sampled query {i}: {:?} vs {:?}",
            staged_answers[i], plain_answers[i]
        ));
    }

    let snapshot_start = Instant::now();
    platform.checkpoint_storage().map_err(|e| e.to_string())?;
    if platform.is_durable() {
        m.insert(
            "vectordb.snapshot_ms",
            snapshot_start.elapsed().as_secs_f64() * 1e3,
        );
    }

    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "llmms.ask")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let ask_ms = median(&plain_ms);
    m.insert("llmms.ask_ms_p50", ask_ms);
    m.insert(
        "obs.trace_overhead_share",
        if ask_ms > 0.0 {
            median(&roots) / ask_ms - 1.0
        } else {
            0.0
        },
    );
    m.insert("server.transport_ms_p50", http_latency_p50_ms - ask_ms);
    m.insert(
        "rag.prompt_tokens",
        mean(
            &prompts
                .iter()
                .map(|p| p.split_whitespace().count() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    if turns > 0 {
        m.insert(
            "session.summaries_per_100_turns",
            100.0 * summaries as f64 / turns as f64,
        );
    }
    span_metrics(&spans, "llmms.ask", results.len(), m);
    result_metrics(&results, m);

    // Request heads as the load generator sends them, up to the blank line.
    let heads: Vec<String> = ops
        .iter()
        .filter_map(|op| ask_of(op, inp, &sessions))
        .take(100)
        .map(|ask| {
            let tenant = ask.options.tenant.unwrap_or_default();
            let body = serde_json::json!({ "question": ask.question, "stream": ask.stream });
            let request = render_request(
                "POST",
                "/api/query",
                &[("X-LLMMS-Tenant", &tenant)],
                &body.to_string(),
            );
            let text = String::from_utf8_lossy(&request);
            text.split("\r\n\r\n").next().unwrap_or_default().to_owned()
        })
        .collect();
    micro_probes(&heads, &events, &bodies, &prompts, m);

    let path = Path::new(child::OUT_DIR).join(format!("{}.trace.jsonl", w.name()));
    write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans of {} replayed operations written to {}; staged answers equal Platform::ask on all {} queries",
        spans.len(),
        ops.len(),
        path.display(),
        plain_answers.len()
    ));
    Ok(())
}

/// The traced run of `eval_offline`: a sample of orchestrated queries, once
/// plain and once with the models and the embedder behind timing adapters.
pub fn replay_offline(
    questions: &[String],
    pool: &[SharedModel],
    config: llmms::core::OrchestratorConfig,
    m: &mut Metrics,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let recorder = Recorder::new();
    let plain = Orchestrator::new(llmms::embed::default_embedder(), config.clone());
    let timed: SharedEmbedder = TimedEmbedder::new(Arc::clone(&recorder));
    let traced = Orchestrator::new(Arc::clone(&timed), config);
    let timed_pool: Vec<SharedModel> = pool
        .iter()
        .map(|model| {
            Arc::new(TimedModel {
                inner: Arc::clone(model),
                recorder: Arc::clone(&recorder),
            }) as SharedModel
        })
        .collect();
    let sample: Vec<&String> = questions.iter().cycle().take(SAMPLE).collect();

    let mut plain_ms = Vec::new();
    let mut plain_answers = Vec::new();
    for q in &sample {
        let start = Instant::now();
        let r = plain.run(pool, q).map_err(|e| e.to_string())?;
        plain_ms.push(start.elapsed().as_secs_f64() * 1e3);
        plain_answers.push(r.response().to_owned());
    }
    let mut results = Vec::new();
    recorder.set_enabled(true);
    for q in &sample {
        recorder.next_request();
        let _root = recorder.stage("core.run");
        results.push(traced.run(&timed_pool, q).map_err(|e| e.to_string())?);
    }
    recorder.set_enabled(false);
    let spans = recorder.take();
    if let Some(i) = (0..results.len()).find(|&i| results[i].response() != plain_answers[i]) {
        return Err(format!(
            "traced orchestration diverged from the plain one on sampled query {i}"
        ));
    }

    let roots: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.run")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let run_ms = median(&plain_ms);
    span_metrics(&spans, "core.run", results.len(), m);
    // The root here is core's own call: its remainder is core's self time,
    // and nothing is left unattributed.
    let core_share = m.get("llmms.unattributed_share").copied().unwrap_or(0.0);
    m.insert("core.self_share", core_share);
    m.insert("llmms.unattributed_share", 0.0);
    m.insert("core.run_ms_p50", run_ms);
    m.insert(
        "obs.trace_overhead_share",
        if run_ms > 0.0 {
            median(&roots) / run_ms - 1.0
        } else {
            0.0
        },
    );
    result_metrics(&results, m);
    let texts: Vec<String> = sample.iter().take(100).map(|q| (*q).clone()).collect();
    micro_probes(&[], &[], &[], &texts, m);

    let path = Path::new(child::OUT_DIR).join("eval_offline.trace.jsonl");
    write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans of {} replayed queries written to {}",
        spans.len(),
        sample.len(),
        path.display()
    ));
    Ok(())
}
