//! The four workloads: set-up, measured phase, output checks and the
//! end-to-end metrics of each.

use crate::child::{self, Server};
use crate::gen::{self, Doc, Op, Plan};
use crate::load::{self, Kind, Outcome, Pace, Record, Source, Target};
use crate::stats::{mean, median, percentile, windowed_percentile, windowed_rate};
use crate::trace;
use llmms::eval::{Dataset, EvalRewardWeights};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChatSseOpen,
    RagRwOpen,
    SaturateClosed,
    EvalOffline,
}

pub const ALL: [Workload; 4] = [
    Workload::ChatSseOpen,
    Workload::RagRwOpen,
    Workload::SaturateClosed,
    Workload::EvalOffline,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ChatSseOpen => "chat_sse_open",
            Workload::RagRwOpen => "rag_rw_open",
            Workload::SaturateClosed => "saturate_closed",
            Workload::EvalOffline => "eval_offline",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every end-to-end metric with its unit; each workload reports all of them.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ttft_p50_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("goodput_rps", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
    ("tokens_per_req", "count"),
    ("answer_f1", "score"),
    ("answer_reward", "score"),
];

pub type Metrics = BTreeMap<&'static str, f64>;

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed (per reply and after the run).
    pub correct: bool,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Metrics,
    /// Share of machine time stolen by the hypervisor during the measured
    /// phase, and how much a fixed probe slowed down across it.
    pub steal_share: f64,
    pub calib_drift: f64,
    /// Readings that do not repeat well enough to be metrics.
    pub notes: Vec<String>,
}

/// A request is good when it passed its checks within these limits, about
/// seven times the p90 first measured: chat first token and total, RAG total.
const CHAT_TTFT_LIMIT_MS: f64 = 10.0;
const CHAT_TOTAL_LIMIT_MS: f64 = 20.0;
const RAG_TOTAL_LIMIT_MS: f64 = 40.0;

/// How each online workload is sized.
struct Sizing {
    /// Documents ingested in set-up. 1300 × 7 chunks passes the store's
    /// seal threshold of 8192, so one sealed segment and the head are searched.
    docs: usize,
    durable: bool,
    /// Set-ups per run; `setup_s` is their median. The durable corpus load
    /// takes seconds and is averaged over thousands of writes already.
    setups: usize,
    warmup_ops: usize,
    /// Operations per second of the open loop; `None` is the closed loop.
    rate: Option<f64>,
}

fn sizing(w: Workload) -> Sizing {
    match w {
        Workload::ChatSseOpen => Sizing {
            docs: 0,
            durable: false,
            setups: 3,
            warmup_ops: 1000,
            rate: Some(200.0),
        },
        Workload::RagRwOpen => Sizing {
            docs: 1300,
            durable: true,
            setups: 1,
            warmup_ops: 300,
            rate: Some(60.0),
        },
        Workload::SaturateClosed => Sizing {
            docs: 300,
            durable: false,
            setups: 3,
            warmup_ops: 2000,
            rate: None,
        },
        Workload::EvalOffline => unreachable!("eval_offline runs in-process"),
    }
}

/// The seeded inputs of one online run.
pub struct Inputs {
    pub pool: Dataset,
    pub docs: Vec<Doc>,
    pub warmup: Plan,
    pub measured: Plan,
}

pub fn inputs(w: Workload, seed: u64, seconds: f64) -> Inputs {
    let size = sizing(w);
    let pool = gen::question_pool(seed);
    let docs = gen::corpus(seed, size.docs);
    let mut facts = gen::fact_order(seed, size.docs).into_iter().cycle();
    let n = pool.items.len();
    let (warmup, measured) = match w {
        Workload::ChatSseOpen => (
            // The warm-up is the chat stream itself (`warmup_ops` operations,
            // phase 0's draws) run as fast as the server answers.
            gen::without_due(gen::chat_plan(seed, 0, n, size.warmup_ops as f64, 1.0)),
            gen::chat_plan(seed, 1, n, size.rate.unwrap_or(0.0), seconds),
        ),
        Workload::RagRwOpen => (
            gen::rag_warmup(&mut facts, size.warmup_ops),
            gen::rag_plan(
                seed,
                1,
                size.docs,
                &mut facts,
                size.rate.unwrap_or(0.0),
                seconds,
            ),
        ),
        Workload::SaturateClosed => (
            gen::saturate_plan(seed, 0, n, &mut facts, size.warmup_ops),
            // Far more than two connections finish in the time limit.
            gen::saturate_plan(seed, 1, n, &mut facts, (seconds * 20_000.0) as usize),
        ),
        Workload::EvalOffline => unreachable!("eval_offline runs in-process"),
    };
    Inputs {
        pool,
        docs,
        warmup,
        measured,
    }
}

fn first_failure(records: &[Record]) -> Option<String> {
    records
        .iter()
        .find(|r| !r.ok())
        .map(|r| format!("{:?}: {}", r.kind, r.failure.as_deref().unwrap_or("")))
}

/// A fixed piece of arithmetic over 1 MiB, timed; the fastest of five rounds
/// counts, since interference only ever adds time. Run before and after the
/// measured phase: if the same work got slower, the machine changed, not the
/// program.
pub fn calibration_probe() -> Duration {
    let mut data: Vec<u64> = (0..1u64 << 17).collect();
    (0..5u64)
        .map(|round| {
            let start = Instant::now();
            let mut acc = 0u64;
            for pass in 0..64u64 {
                for v in data.iter_mut() {
                    *v = v
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(round + pass);
                    acc = acc.wrapping_add(*v >> 7);
                }
            }
            std::hint::black_box(acc);
            start.elapsed()
        })
        .min()
        .expect("five rounds")
}

struct Ready {
    server: Server,
    models: Vec<String>,
}

/// One set-up: start the server, load the corpus, warm up. Any failed
/// operation aborts the run; set-up has no error budget.
fn set_up(bin: &Path, w: Workload, inp: &Inputs, tag: &str) -> Result<Ready, String> {
    let size = sizing(w);
    let persist = size.durable.then(|| child::persist_dir(tag));
    let server = Server::spawn(bin, persist)?;
    let health = load::get_json(server.addr, "/healthz")?;
    if health["status"] != "ok" {
        return Err(format!("/healthz said {health}"));
    }
    let models: Vec<String> = load::get_json(server.addr, "/api/models")?["models"]
        .as_array()
        .map(|a| {
            a.iter()
                .filter_map(|m| m["name"].as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default();
    if models.is_empty() {
        return Err("server lists no models".into());
    }
    let target = Target {
        addr: server.addr,
        pool: &inp.pool,
        docs: &inp.docs,
        models: &models,
    };
    let forever = Pace::Closed(Duration::from_secs(3600));
    for (what, plan) in [
        ("ingest", &gen::ingest_plan(inp.docs.len())),
        ("warm-up", &inp.warmup),
    ] {
        let out = load::run(&target, plan, forever, false);
        if let Some(why) = first_failure(&out.records) {
            return Err(format!("{what} failed: {why}"));
        }
    }
    Ok(Ready { server, models })
}

fn of_kind<'a>(records: &'a [Record], kinds: &[Kind]) -> Vec<&'a Record> {
    records.iter().filter(|r| kinds.contains(&r.kind)).collect()
}

fn good(r: &Record) -> bool {
    let latency = r.timing.latency_ms();
    r.ok()
        && match r.kind {
            Kind::Chat => {
                latency <= CHAT_TOTAL_LIMIT_MS
                    && r.timing.ttft_ms().is_some_and(|t| t <= CHAT_TTFT_LIMIT_MS)
            }
            Kind::RagStream | Kind::RagJson => latency <= RAG_TOTAL_LIMIT_MS,
            Kind::Session | Kind::Ingest => false,
        }
}

/// Mean tokens, F1 and Eq. 8.1 reward of the answers in `records`, scored
/// with the evaluation crate's own metric code against the entry each
/// question was built from.
fn quality(records: &[Record], inp: &Inputs) -> (f64, f64, f64) {
    let embedder = llmms::embed::default_embedder();
    let weights = EvalRewardWeights::default();
    let (mut tokens, mut f1, mut reward) = (Vec::new(), Vec::new(), Vec::new());
    for r in records.iter().filter(|r| r.kind.is_query() && r.ok()) {
        let item = match r.source {
            Source::Pool(i) => inp.pool.items[i].clone(),
            Source::Fact(d, f) => inp.docs[d].item(f),
            Source::None => continue,
        };
        let m = llmms::eval::score_query(
            &r.answer,
            r.answer_tokens,
            r.total_tokens,
            &item,
            &embedder,
            &weights,
        );
        tokens.push(r.total_tokens as f64);
        f1.push(m.f1);
        reward.push(m.reward);
    }
    (mean(&tokens), mean(&f1), mean(&reward))
}

/// After `rag_rw_open`: every document re-ingested during the run must still
/// answer its own question from its own text — the delete-stale + upsert
/// pair must not have lost or orphaned its chunks.
fn check_reingested(target: &Target, measured: &Plan) -> Result<usize, String> {
    let mut docs: Vec<usize> = measured
        .iter()
        .flatten()
        .filter_map(|t| match t.op {
            Op::Ingest { doc } => Some(doc),
            _ => None,
        })
        .collect();
    docs.sort_unstable();
    docs.dedup();
    for &d in &docs {
        let doc = &target.docs[d];
        let fact = d % gen::FACTS_PER_DOC;
        let answer = load::ask_json(
            target,
            &json!({ "question": doc.question(fact), "top_k": 1, "document_id": doc.id }),
        )?;
        if !answer.contains(&doc.values[fact]) {
            return Err(format!(
                "{} re-ingested, but its own question no longer finds {:?}: {answer:?}",
                doc.id, doc.values[fact]
            ));
        }
    }
    Ok(docs.len())
}

fn delta(after: &Value, before: &Value, path: &[&str]) -> f64 {
    let dig = |v: &Value| path.iter().fold(v, |v, k| &v[*k]).as_f64().unwrap_or(0.0);
    dig(after) - dig(before)
}

fn sum_object(v: &Value) -> f64 {
    v.as_object()
        .map_or(0.0, |m| m.values().filter_map(Value::as_f64).sum())
}

fn share(part: f64, rest: f64) -> f64 {
    if part + rest > 0.0 {
        part / (part + rest)
    } else {
        0.0
    }
}

/// Per-layer counts of the HTTP phase: `/stats` before and after, plus what
/// the load threads saw.
fn http_layer_metrics(out: &Outcome, before: &Value, after: &Value, m: &mut Metrics) {
    let queries = out
        .records
        .iter()
        .filter(|r| r.kind.is_query())
        .count()
        .max(1) as f64;
    let streams: Vec<f64> = out
        .records
        .iter()
        .filter(|r| matches!(r.kind, Kind::Chat | Kind::RagStream))
        .map(|r| r.frames as f64)
        .collect();
    let bytes: Vec<f64> = out.records.iter().map(|r| r.bytes as f64).collect();
    let ingests = of_kind(&out.records, &[Kind::Ingest]);
    let early: f64 = ["llama3-8b", "mistral-7b", "qwen2-7b"]
        .iter()
        .map(|model| delta(after, before, &["models", model, "early_wins"]))
        .sum();
    let dispatched = sum_object(&after["sched"]["dispatched_by_tenant"])
        - sum_object(&before["sched"]["dispatched_by_tenant"]);
    let rejected =
        sum_object(&after["overload"]["rejected"]) - sum_object(&before["overload"]["rejected"]);
    m.insert("server.sse_frames_per_req", mean(&streams));
    m.insert("server.response_bytes_per_req", mean(&bytes));
    m.insert(
        "server.shed_total",
        delta(after, before, &["overload", "shed"]),
    );
    m.insert("server.rejected_total", rejected);
    m.insert(
        "exec.run_delay_us_p50",
        after["sched"]["run_delay_us"]["p50"]
            .as_f64()
            .unwrap_or(0.0),
    );
    m.insert("exec.tasks_per_query", dispatched / queries);
    m.insert("exec.queue_depth_max", out.queue_depth_max as f64);
    m.insert(
        "exec.task_panics",
        after["sched"]["task_panics"].as_f64().unwrap_or(0.0),
    );
    m.insert("core.early_stop_share", early / queries);
    m.insert(
        "core.score_us_per_round",
        after["scoring"]["refresh_us"]["mean"]
            .as_f64()
            .unwrap_or(0.0),
    );
    m.insert(
        "core.scoring_cache_hit_share",
        share(
            delta(after, before, &["scoring", "arms_clean"]),
            delta(after, before, &["scoring", "arms_dirty"]),
        ),
    );
    m.insert(
        "embed.cache_hit_share",
        share(
            delta(after, before, &["parallel", "embed_cache", "hits"]),
            delta(after, before, &["parallel", "embed_cache", "misses"]),
        ),
    );
    m.insert(
        "vectordb.fsync_us_p50",
        after["storage"]["wal_fsync_us"]["p50"]
            .as_f64()
            .unwrap_or(0.0),
    );
    m.insert(
        "vectordb.wal_appends_per_ingest",
        delta(after, before, &["storage", "wal_appends"]) / ingests.len().max(1) as f64,
    );
    m.insert("rag.ingest_http_ms_p50", median(&latencies(&ingests)));
    let lag: Vec<f64> = out.records.iter().map(|r| r.timing.lag_ms()).collect();
    m.insert("loadgen.sched_lag_p90_ms", percentile(&lag, 0.9));
}

fn latencies(records: &[&Record]) -> Vec<f64> {
    records.iter().map(|r| r.timing.latency_ms()).collect()
}

/// `(start, value)` pairs for the windowed percentiles.
fn timed_latencies(records: &[&Record]) -> Vec<(Duration, f64)> {
    records
        .iter()
        .map(|r| (r.timing.due, r.timing.latency_ms()))
        .collect()
}

fn timed_ttfts(records: &[&Record]) -> Vec<(Duration, f64)> {
    records
        .iter()
        .filter_map(|r| r.timing.ttft_ms().map(|t| (r.timing.due, t)))
        .collect()
}

/// Run one online workload once: set-up(s), measured phase, checks, metrics.
fn run_online(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let size = sizing(w);
    let bin = child::build_llmms()?;
    let inp = inputs(w, seed, seconds);

    // Each set-up but the last is torn down again; the last one's server is
    // the one measured.
    let mut setup_s = Vec::new();
    let mut ready = None;
    for i in 0..size.setups {
        drop(ready.take());
        let start = Instant::now();
        ready = Some(set_up(&bin, w, &inp, &format!("{}-{i}", w.name()))?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Ready { server, models } = ready.expect("at least one set-up");
    let target = Target {
        addr: server.addr,
        pool: &inp.pool,
        docs: &inp.docs,
        models: &models,
    };

    let stats_before = if traced {
        load::get_json(server.addr, "/stats")?
    } else {
        Value::Null
    };
    let calib_before = calibration_probe();
    let (steal0, total0) = child::machine_jiffies();
    let cpu0 = server.cpu_ms();

    let pace = match size.rate {
        Some(_) => Pace::Open,
        None => Pace::Closed(Duration::from_secs_f64(seconds)),
    };
    let out = load::run(&target, &inp.measured, pace, traced);

    let cpu_ms = server.cpu_ms() - cpu0;
    let (steal1, total1) = child::machine_jiffies();
    let calib_after = calibration_probe();
    let steal_share = if total1 > total0 {
        (steal1 - steal0) / (total1 - total0)
    } else {
        0.0
    };
    let calib_drift = calib_after.as_secs_f64() / calib_before.as_secs_f64() - 1.0;

    let mut notes = Vec::new();
    let mut correct = true;
    let attempted = out.records.len() as u64;
    let failed = out.records.iter().filter(|r| !r.ok()).count() as u64;
    if let Some(why) = first_failure(&out.records) {
        correct = false;
        notes.push(format!("first failed operation: {why}"));
    }
    if w == Workload::RagRwOpen {
        match check_reingested(&target, &inp.measured) {
            Ok(n) => notes.push(format!(
                "{n} re-ingested documents still answer their own question"
            )),
            Err(why) => {
                correct = false;
                notes.push(why);
            }
        }
    }

    let (ttft_of, latency_of): (&[Kind], &[Kind]) = match w {
        Workload::ChatSseOpen => (&[Kind::Chat], &[Kind::Chat]),
        Workload::RagRwOpen => (&[Kind::RagStream], &[Kind::RagStream, Kind::RagJson]),
        // Streaming chat and JSON RAG alternate here; pooling their totals
        // would put the median on the gap between two modes.
        _ => (&[Kind::Chat], &[Kind::RagJson]),
    };
    let phase = Duration::from_secs_f64(seconds);
    let ttft = timed_ttfts(&of_kind(&out.records, ttft_of));
    let latency = timed_latencies(&of_kind(&out.records, latency_of));
    let wall = out.wall.as_secs_f64().max(1e-9);
    let good_at: Vec<Duration> = out
        .records
        .iter()
        .filter(|r| good(r))
        .map(|r| r.timing.due)
        .collect();
    let all_latency = latencies(&of_kind(
        &out.records,
        &[Kind::Chat, Kind::RagStream, Kind::RagJson],
    ));
    let ingests = of_kind(&out.records, &[Kind::Ingest]);
    // Tails move by a fifth from run to run on a shared two-core VM, too
    // much to gate on: they are printed, not bounded.
    notes.push(format!(
        "ttft_p90_ms {:.3}, latency_p90_ms {:.3} (windowed); all queries: latency p99 {:.3} ms, max {:.3} ms",
        windowed_percentile(&ttft, phase, 0.9),
        windowed_percentile(&latency, phase, 0.9),
        percentile(&all_latency, 0.99),
        percentile(&all_latency, 1.0),
    ));
    notes.push(format!(
        "{attempted} operations in {wall:.2} s over {} connections; generator lag p90 {:.3} ms",
        out.connects,
        percentile(
            &out.records
                .iter()
                .map(|r| r.timing.lag_ms())
                .collect::<Vec<_>>(),
            0.9
        ),
    ));
    if !ingests.is_empty() {
        notes.push(format!(
            "ingest_p50_ms {:.3} over {} re-ingests",
            median(&latencies(&ingests)),
            ingests.len()
        ));
    }
    let grounded: Vec<f64> = out
        .records
        .iter()
        .filter_map(|r| match r.source {
            Source::Fact(d, f) if r.ok() => Some(f64::from(u8::from(
                r.answer.contains(&inp.docs[d].values[f]),
            ))),
            _ => None,
        })
        .collect();
    if !grounded.is_empty() {
        notes.push(format!(
            "{:.1}% of {} RAG answers state the document's value",
            100.0 * mean(&grounded),
            grounded.len()
        ));
    }

    let mut metrics = Metrics::new();
    if traced {
        let stats_after = load::get_json(server.addr, "/stats")?;
        http_layer_metrics(&out, &stats_before, &stats_after, &mut metrics);
        metrics.insert("loadgen.steal_share", steal_share);
        metrics.insert("loadgen.calib_drift", calib_drift);
        let http_latency_p50 = windowed_percentile(&latency, phase, 0.5);
        drop(server);
        trace::replay_online(w, &inp, http_latency_p50, &mut metrics, &mut notes)?;
    } else {
        let (tokens, f1, reward) = quality(&out.records, &inp);
        let peak_rss_mb = server.peak_rss_mb();
        metrics.insert("setup_s", median(&setup_s));
        metrics.insert("ttft_p50_ms", windowed_percentile(&ttft, phase, 0.5));
        metrics.insert("latency_p50_ms", windowed_percentile(&latency, phase, 0.5));
        metrics.insert("goodput_rps", windowed_rate(&good_at, phase));
        metrics.insert("cpu_ms_per_req", cpu_ms / attempted.max(1) as f64);
        metrics.insert("peak_rss_mb", peak_rss_mb);
        metrics.insert("tokens_per_req", tokens);
        metrics.insert("answer_f1", f1);
        metrics.insert("answer_reward", reward);
    }
    Ok(RunResult {
        attempted,
        failed,
        correct,
        metrics,
        steal_share,
        calib_drift,
        notes,
    })
}

/// Above this share of stolen machine time a run says more about the
/// neighbours than about the program, and is repeated once.
const STEAL_RETRY: f64 = 0.05;

/// Run `w` once; repeat it at most once if the hypervisor stole more than
/// [`STEAL_RETRY`] of the machine during the measured phase. The decision
/// looks only at that probe, never at a measured metric.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool) -> Result<RunResult, String> {
    let once = |w| match w {
        Workload::EvalOffline => crate::offline::run(seed, seconds, traced),
        _ => run_online(w, seed, seconds, traced),
    };
    let first = once(w)?;
    if first.steal_share <= STEAL_RETRY {
        return Ok(first);
    }
    let mut second = once(w)?;
    second.notes.push(format!(
        "retried once: steal share was {:.3} on the first attempt, {:.3} on this one",
        first.steal_share, second.steal_share
    ));
    Ok(second)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CHUNKS_PER_DOC;

    #[test]
    fn every_workload_has_a_unique_name_that_parses_back() {
        for w in ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn durable_corpus_seals_a_segment_and_no_snapshot_falls_in_the_measured_phase() {
        let size = sizing(Workload::RagRwOpen);
        // One sealed segment (8192 slots) plus a head.
        assert!(size.docs * CHUNKS_PER_DOC > 8192);
        // The store snapshots — and stalls every reader for a moment — once
        // 4096 frames have been logged since the last snapshot, checked after
        // each batch. A first ingest logs one batch of 7 upserts; a re-ingest
        // logs 7 deletes, then 7 upserts.
        let mut since_snapshot = 0;
        for _ in 0..size.docs {
            since_snapshot += CHUNKS_PER_DOC;
            if since_snapshot >= 4096 {
                since_snapshot = 0;
            }
        }
        // 20 s at 60 ops/s, every tenth a re-ingest: none may reach the limit.
        let reingests = 20 * 60 / 10;
        assert!(since_snapshot + reingests * 2 * CHUNKS_PER_DOC < 4096);
    }

    #[test]
    fn stats_deltas_and_shares() {
        let before = json!({"a": {"b": 2}, "m": {"x": 1, "y": 2}});
        let after = json!({"a": {"b": 7}, "m": {"x": 4, "y": 2}});
        assert_eq!(delta(&after, &before, &["a", "b"]), 5.0);
        assert_eq!(delta(&after, &before, &["a", "missing"]), 0.0);
        assert_eq!(sum_object(&after["m"]) - sum_object(&before["m"]), 3.0);
        assert_eq!(share(3.0, 1.0), 0.75);
        assert_eq!(share(0.0, 0.0), 0.0);
    }
}
