//! Driving a plan against a live server: one thread and one connection per
//! plan list, open- or closed-loop pacing, and the per-reply output checks.

use crate::gen::{Doc, Op, Plan, Timed, TENANTS};
use crate::http::{render_request, Conn, Reply};
use crate::stats::OpTiming;
use llmms::eval::Dataset;
use serde_json::{json, Value};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What the load threads share, read-only.
pub struct Target<'a> {
    pub addr: SocketAddr,
    pub pool: &'a Dataset,
    pub docs: &'a [Doc],
    /// Names of the server's model pool (`GET /api/models`).
    pub models: &'a [String],
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Session,
    Chat,
    RagStream,
    RagJson,
    Ingest,
}

impl Kind {
    pub fn is_query(self) -> bool {
        matches!(self, Kind::Chat | Kind::RagStream | Kind::RagJson)
    }
}

/// What the question of a query was built from, for quality scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    None,
    Pool(usize),
    Fact(usize, usize),
}

/// One finished operation.
#[derive(Debug, Clone)]
pub struct Record {
    pub kind: Kind,
    pub source: Source,
    pub timing: OpTiming,
    /// `None` when every check passed, else the first that did not.
    pub failure: Option<String>,
    pub bytes: usize,
    pub frames: usize,
    /// The selected answer, its token count and the total across the pool.
    pub answer: String,
    pub answer_tokens: usize,
    pub total_tokens: usize,
}

impl Record {
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Send each request when it is due, or at once if already late.
    Open,
    /// Send each request as soon as the previous reply is in; stop starting
    /// new ones after the limit.
    Closed(Duration),
}

pub struct Outcome {
    pub records: Vec<Record>,
    /// Connections opened by all threads: one each if keep-alive never
    /// broke; every SSE reply and the server's request cap break it.
    pub connects: u64,
    /// Largest scheduler backlog seen in the `/stats` scrapes (traced runs).
    pub queue_depth_max: u64,
    /// Wall time from the start of the phase to the last reply.
    pub wall: Duration,
}

/// Sleep until shortly before `target`, then spin: `thread::sleep` alone
/// overshoots by 50–100 µs, a tenth of a request here.
fn wait_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

fn request_for(op: &Op, target: &Target, sessions: &[String]) -> (Kind, Source, Vec<u8>) {
    match op {
        Op::NewSession { .. } => (
            Kind::Session,
            Source::None,
            render_request("POST", "/api/sessions", &[], ""),
        ),
        Op::Chat { slot, tenant, item } => {
            let mut body = json!({
                "question": target.pool.items[*item].question,
                "stream": true,
                "top_k": 0,
            });
            if let (Some(slot), Some(map)) = (slot, body.as_object_mut()) {
                map.insert(
                    "session_id".to_owned(),
                    Value::from(sessions[*slot].as_str()),
                );
            }
            (
                Kind::Chat,
                Source::Pool(*item),
                render_request(
                    "POST",
                    "/api/query",
                    &[("X-LLMMS-Tenant", TENANTS[*tenant])],
                    &body.to_string(),
                ),
            )
        }
        Op::Rag { doc, fact, stream } => {
            let body = json!({
                "question": target.docs[*doc].question(*fact),
                "stream": *stream,
                "top_k": 3,
            });
            (
                if *stream {
                    Kind::RagStream
                } else {
                    Kind::RagJson
                },
                Source::Fact(*doc, *fact),
                render_request("POST", "/api/query", &[], &body.to_string()),
            )
        }
        Op::Ingest { doc } => {
            let d = &target.docs[*doc];
            let body = json!({ "document_id": d.id, "text": d.text });
            (
                Kind::Ingest,
                Source::None,
                render_request("POST", "/api/ingest", &[], &body.to_string()),
            )
        }
    }
}

/// The selected answer of an orchestration result, checked: non-empty, and
/// from a model of the pool.
fn answer_of(result: &Value, models: &[String]) -> Result<(String, usize, usize), String> {
    let best = result["best"].as_u64().ok_or("result has no best index")? as usize;
    let outcome = &result["outcomes"][best];
    let model = outcome["model"]
        .as_str()
        .ok_or("best outcome has no model")?;
    if !models.iter().any(|m| m == model) {
        return Err(format!("winner {model:?} is not in the pool"));
    }
    let answer = outcome["response"].as_str().unwrap_or("");
    if answer.trim().is_empty() {
        return Err("empty answer".to_owned());
    }
    Ok((
        answer.to_owned(),
        outcome["tokens"].as_u64().unwrap_or(0) as usize,
        result["total_tokens"].as_u64().unwrap_or(0) as usize,
    ))
}

fn parse_json(bytes: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| format!("bad json: {e}"))
}

/// Check one reply against what its operation must return; fills the
/// record's answer fields and, for a new session, the connection's slot.
fn check(
    op: &Op,
    kind: Kind,
    reply: &Reply,
    target: &Target,
    sessions: &mut [String],
    record: &mut Record,
) -> Result<(), String> {
    let p = &reply.parsed;
    let want = match kind {
        Kind::Session | Kind::Ingest => 201,
        _ => 200,
    };
    if p.status != want {
        return Err(format!("status {} (want {want})", p.status));
    }
    match kind {
        Kind::Session => {
            let body = parse_json(p.body())?;
            let id = body["id"].as_str().ok_or("session reply has no id")?;
            if let Op::NewSession { slot } = op {
                sessions[*slot] = id.to_owned();
            }
        }
        Kind::Ingest => {
            if parse_json(p.body())?["chunks"].as_u64().unwrap_or(0) == 0 {
                return Err("ingest stored no chunks".to_owned());
            }
        }
        Kind::RagJson => {
            if p.is_sse {
                return Err("asked for JSON, got a stream".to_owned());
            }
            let (answer, tokens, total) = answer_of(&parse_json(p.body())?, target.models)?;
            (record.answer, record.answer_tokens, record.total_tokens) = (answer, tokens, total);
        }
        Kind::Chat | Kind::RagStream => {
            if !p.is_sse {
                return Err("asked for a stream, got a body".to_owned());
            }
            let finished: Vec<_> = p.frames.iter().filter(|f| f.event == "finished").collect();
            if finished.len() != 1 {
                return Err(format!("{} finished frames (want 1)", finished.len()));
            }
            let winner = parse_json(finished[0].data.as_bytes())?["Finished"]["winner"]
                .as_str()
                .unwrap_or("")
                .to_owned();
            if !target.models.contains(&winner) {
                return Err(format!("winner {winner:?} is not in the pool"));
            }
            let last = p.frames.last().ok_or("stream without frames")?;
            if last.event != "result" {
                return Err(format!("stream ended with {:?}: {}", last.event, last.data));
            }
            if reply.first_chunk_at.is_none() {
                return Err("stream had no chunk frame".to_owned());
            }
            let (answer, tokens, total) =
                answer_of(&parse_json(last.data.as_bytes())?, target.models)?;
            (record.answer, record.answer_tokens, record.total_tokens) = (answer, tokens, total);
        }
    }
    Ok(())
}

/// The deepest scheduler backlog `GET /stats` reports right now.
fn scrape_queue_depth(conn: &mut Conn) -> u64 {
    conn.exchange(&render_request("GET", "/stats", &[], ""))
        .ok()
        .and_then(|r| parse_json(r.parsed.body()).ok())
        .and_then(|v| v["sched"]["queue_depth"].as_u64())
        .unwrap_or(0)
}

fn run_thread(
    target: &Target,
    ops: &[Timed],
    pace: Pace,
    start: Instant,
    scrape_stats: bool,
) -> (Vec<Record>, u64, u64) {
    let mut conn = Conn::new(target.addr);
    let mut sessions = vec![String::new(); 8];
    let mut records = Vec::with_capacity(ops.len());
    let mut queue_depth_max = 0;
    let mut next_scrape = Duration::from_secs(1);
    for timed in ops {
        let due = match pace {
            Pace::Open => {
                wait_until(start + timed.due);
                timed.due
            }
            Pace::Closed(limit) => {
                let now = start.elapsed();
                if now >= limit {
                    break;
                }
                now
            }
        };
        let (kind, source, request) = request_for(&timed.op, target, &sessions);
        let sent = start.elapsed().max(due);
        let mut record = Record {
            kind,
            source,
            timing: OpTiming {
                due,
                sent,
                first_chunk: None,
                done: sent,
            },
            failure: None,
            bytes: 0,
            frames: 0,
            answer: String::new(),
            answer_tokens: 0,
            total_tokens: 0,
        };
        match conn.exchange(&request) {
            Ok(reply) => {
                record.timing.first_chunk = reply.first_chunk_at.map(|t| t - start);
                record.timing.done = reply.done_at - start;
                record.bytes = reply.parsed.bytes();
                record.frames = reply.parsed.frames.len();
                record.failure =
                    check(&timed.op, kind, &reply, target, &mut sessions, &mut record).err();
            }
            Err(e) => {
                record.timing.done = start.elapsed();
                record.failure = Some(format!("i/o: {e}"));
            }
        }
        records.push(record);
        if scrape_stats && start.elapsed() >= next_scrape {
            queue_depth_max = queue_depth_max.max(scrape_queue_depth(&mut conn));
            next_scrape = start.elapsed() + Duration::from_secs(1);
        }
    }
    (records, conn.connects, queue_depth_max)
}

/// Run `plan`, one thread per list, and gather what happened.
pub fn run(target: &Target, plan: &Plan, pace: Pace, scrape_stats: bool) -> Outcome {
    let start = Instant::now();
    let parts: Vec<(Vec<Record>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                scope.spawn(move || run_thread(target, ops, pace, start, scrape_stats && t == 0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut outcome = Outcome {
        records: Vec::new(),
        connects: 0,
        queue_depth_max: 0,
        wall: Duration::ZERO,
    };
    for (records, connects, depth) in parts {
        outcome.connects += connects;
        outcome.queue_depth_max = outcome.queue_depth_max.max(depth);
        outcome.records.extend(records);
    }
    outcome.wall = outcome
        .records
        .iter()
        .map(|r| r.timing.done)
        .max()
        .unwrap_or_default();
    outcome
}

/// One request outside any plan (health probe, model list, `/stats`).
pub fn get_json(addr: SocketAddr, path: &str) -> Result<Value, String> {
    let reply = Conn::new(addr)
        .exchange(&render_request("GET", path, &[], ""))
        .map_err(|e| format!("GET {path}: {e}"))?;
    if reply.parsed.status != 200 {
        return Err(format!("GET {path}: status {}", reply.parsed.status));
    }
    parse_json(reply.parsed.body())
}

/// Ask one non-streaming question outside any plan; returns the answer.
pub fn ask_json(target: &Target, body: &Value) -> Result<String, String> {
    let reply = Conn::new(target.addr)
        .exchange(&render_request(
            "POST",
            "/api/query",
            &[],
            &body.to_string(),
        ))
        .map_err(|e| format!("POST /api/query: {e}"))?;
    if reply.parsed.status != 200 {
        return Err(format!("POST /api/query: status {}", reply.parsed.status));
    }
    answer_of(&parse_json(reply.parsed.body())?, target.models).map(|(answer, _, _)| answer)
}
