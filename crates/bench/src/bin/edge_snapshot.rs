//! C10K gate for the event-driven serving edge: one process serves, this
//! process swarms.
//!
//! The server child (spawned from this same binary with `--serve
//! edge|baseline`) runs a stub [`AppService`] whose `"hold"` question
//! streams ~32 KiB of SSE chunks and whose `"ttft"` question emits one
//! chunk after a small think time. The parent then measures:
//!
//! 1. **TTFT** — 100 concurrent clients, time from request written to the
//!    first `event: chunk` byte, p50/p99, on both transports.
//! 2. **Capacity** — clients connect with a 4 KiB `SO_RCVBUF`, read only
//!    until the first chunk, then stop reading while keeping the socket
//!    open. The server clamps `SO_SNDBUF` to 4 KiB, so the rest of the
//!    stream must park somewhere: the edge parks it in the bounded
//!    per-connection outbox and keeps accepting (target: >= 10k live
//!    streams on 8 workers); the thread-pool baseline blocks a worker in
//!    `write` per client, so it pins at `worker_threads` live streams.
//! 3. **Shed** — with the edge at `max_conns`, extra connects must be
//!    answered `503 Retry-After` at accept time, not hung.
//!
//! Two processes because the fd limit is per-process: 10.5k server sockets
//! plus 10.5k client sockets don't fit under one 20k rlimit.
//!
//! Usage: `edge_snapshot [OUT.json] [--check]`. Env overrides:
//! `EDGE_BENCH_CLIENTS`, `EDGE_BENCH_PROBE`, `EDGE_BENCH_TTFT_CLIENTS`,
//! `EDGE_BENCH_TTFT_ROUNDS`.

use llmms::core::{ModelOutcome, OrchestrationEvent, OrchestrationResult};
use llmms::crossbeam_channel::Sender;
use llmms::models::{DoneReason, ModelInfo, UtilizationReport};
use llmms::server::admission::TenantQuota;
use llmms::server::service::{
    AppService, GenerateRequest, GenerateResponse, QueryContext, QueryRequest, ServiceError,
};
use llmms::server::{client, EdgeConfig, Server, ServerConfig};
use serde_json::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Dispatch workers on both transports — the baseline's concurrency
/// ceiling and the edge's proof that connections outnumber threads.
const WORKER_THREADS: usize = 8;

/// `SO_RCVBUF` for capacity-wave clients and `SO_SNDBUF` on the server:
/// small enough that a ~32 KiB stream cannot hide in kernel buffers.
const SMALL_BUF: usize = 4 * 1024;

/// Payload of a `"hold"` stream past the first chunk: must exceed what the
/// clamped kernel buffers swallow (~16 KiB) and stay under the bench
/// outbox capacity so the dispatch worker is never blocked on the edge.
const HOLD_PAD_CHUNKS: usize = 16;
const HOLD_PAD_CHUNK_BYTES: usize = 2 * 1024;

/// Outbox capacity for the edge child: room for one full hold stream.
const BENCH_OUTBOX: usize = 64 * 1024;

/// Accept headroom above the capacity wave so the parent's `/metrics`
/// scrapes get in while the wave is held; the shed probe then has to
/// overrun only this margin to hit the `max_conns` wall.
const CONN_HEADROOM: usize = 64;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn capacity_clients() -> usize {
    env_usize("EDGE_BENCH_CLIENTS", 10_500)
}

// ---------------------------------------------------------------------------
// The served stub: deterministic streams, zero orchestration machinery.
// ---------------------------------------------------------------------------

struct BenchService;

impl BenchService {
    fn outcome(question: &str) -> OrchestrationResult {
        OrchestrationResult {
            strategy: "single".into(),
            best: 0,
            outcomes: vec![ModelOutcome {
                model: "bench".into(),
                response: format!("answer to {question}"),
                tokens: 3,
                score: 0.9,
                rounds: 1,
                pruned: false,
                done: Some(DoneReason::Stop),
                simulated_latency: Duration::from_millis(1),
                failed: false,
                error: None,
                retries: 0,
                backoff_ms: 0,
            }],
            total_tokens: 3,
            rounds: 1,
            budget_exhausted: false,
            degraded: false,
            deadline_exceeded: false,
            brownout_level: 0,
            events: Vec::new(),
        }
    }
}

impl AppService for BenchService {
    fn query(
        &self,
        request: &QueryRequest,
        _ctx: &QueryContext,
        sink: Option<Sender<OrchestrationEvent>>,
    ) -> Result<OrchestrationResult, ServiceError> {
        match request.question.as_str() {
            // A short first chunk the client waits for, then enough padding
            // that a non-reading client leaves bytes parked server-side.
            "hold" => {
                if let Some(sink) = sink {
                    let _ = sink.send(OrchestrationEvent::ModelChunk {
                        model: "bench".into(),
                        text: "lead".into(),
                        tokens: 1,
                        done: None,
                    });
                    for _ in 0..HOLD_PAD_CHUNKS {
                        let _ = sink.send(OrchestrationEvent::ModelChunk {
                            model: "bench".into(),
                            text: "x".repeat(HOLD_PAD_CHUNK_BYTES),
                            tokens: 1,
                            done: None,
                        });
                    }
                }
            }
            // A think-time chunk: time-to-first-token is dominated by how
            // fast the transport moves the request to a worker and the
            // first frame back out.
            "ttft" => {
                std::thread::sleep(Duration::from_millis(2));
                if let Some(sink) = sink {
                    let _ = sink.send(OrchestrationEvent::ModelChunk {
                        model: "bench".into(),
                        text: "first".into(),
                        tokens: 1,
                        done: Some(DoneReason::Stop),
                    });
                }
            }
            _ => {}
        }
        Ok(Self::outcome(&request.question))
    }

    fn ingest(&self, _document_id: &str, _text: &str) -> Result<usize, String> {
        Ok(0)
    }

    fn list_models(&self) -> Vec<ModelInfo> {
        vec![ModelInfo {
            name: "bench".into(),
            family: "bench".into(),
            params_b: 1.0,
            context_window: 2048,
            quantization: "none".into(),
            decode_tokens_per_second: 50.0,
        }]
    }

    fn hardware(&self) -> UtilizationReport {
        UtilizationReport {
            used_vram_gb: 0.0,
            total_vram_gb: 0.0,
            gpu_residents: vec![],
            cpu_residents: vec![],
        }
    }

    fn create_session(&self) -> String {
        "s1".into()
    }

    fn list_sessions(&self) -> Vec<(String, String)> {
        Vec::new()
    }

    fn delete_session(&self, _id: &str) -> Result<(), String> {
        Ok(())
    }

    fn configure(&self, _strategy: Option<&str>, _budget: Option<usize>) -> Result<(), String> {
        Ok(())
    }

    fn config_json(&self) -> serde_json::Value {
        json!({})
    }

    fn generate(&self, request: &GenerateRequest) -> Result<GenerateResponse, String> {
        Ok(GenerateResponse {
            model: "bench".into(),
            text: format!("echo {}", request.prompt),
            tokens: 1,
            done_reason: "stop".into(),
            latency_ms: 1.0,
        })
    }
}

fn bench_config() -> ServerConfig {
    let mut config = ServerConfig {
        worker_threads: WORKER_THREADS,
        queue_depth: 256,
        max_in_flight: 256,
        trace_buffer_len: 0,
        edge: EdgeConfig {
            max_conns: capacity_clients() + CONN_HEADROOM,
            // Held streams must outlive the measurement window, not a
            // production patience budget.
            idle_timeout: Duration::from_secs(600),
            write_stall_timeout: Duration::from_secs(600),
            max_keepalive_requests: 1_000,
            outbox_capacity: BENCH_OUTBOX,
            so_sndbuf: Some(SMALL_BUF),
        },
        ..ServerConfig::default()
    };
    // The wave is tens of thousands of requests in seconds; admission
    // control is a different bench (overload_snapshot).
    config.admission.default_quota = TenantQuota {
        rate_per_sec: 1e9,
        burst: 1e9,
        max_concurrent: 1_000_000,
    };
    config
}

/// Child mode: serve until killed. The parent reads the `LISTENING` line.
fn serve_child(mode: &str) -> ! {
    let service = Arc::new(BenchService);
    let server = match mode {
        "edge" => Server::start_with(service, "127.0.0.1:0", bench_config()),
        "baseline" => Server::start_blocking(service, "127.0.0.1:0", bench_config()),
        other => {
            eprintln!("edge_snapshot: unknown serve mode {other:?}");
            std::process::exit(2);
        }
    }
    .expect("bench server must bind");
    println!("LISTENING {}", server.addr());
    std::io::stdout().flush().expect("flush addr line");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

struct ChildServer {
    child: Child,
    addr: SocketAddr,
}

impl ChildServer {
    fn spawn(mode: &str) -> ChildServer {
        let exe = std::env::current_exe().expect("current exe path");
        let mut child = Command::new(exe)
            .args(["--serve", mode])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn server child");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read child addr");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected child greeting: {line:?}"))
            .parse()
            .expect("parse child addr");
        ChildServer { child, addr }
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// Wire helpers.
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
use llmms::server::edge::poller::connect_with_rcvbuf;

#[cfg(not(target_os = "linux"))]
fn connect_with_rcvbuf(addr: SocketAddr, _rcvbuf: usize) -> std::io::Result<TcpStream> {
    TcpStream::connect(addr)
}

fn send_sse_query(stream: &mut TcpStream, question: &str) -> std::io::Result<()> {
    let body = format!("{{\"question\":\"{question}\",\"stream\":true}}");
    let request = format!(
        "POST /api/query HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(request.as_bytes())
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

enum HoldOutcome {
    /// First chunk received; the socket is kept open and unread.
    Held(TcpStream),
    /// The server said 503 (or reset the connection at the accept wall).
    Shed,
    /// Anything else — timeout waiting for the first chunk, odd EOF.
    Other,
}

/// Open one deliberately slow stream: tiny receive window, read only until
/// the first `event: chunk`, then never again.
fn hold_one(addr: SocketAddr, read_timeout: Duration) -> HoldOutcome {
    let mut stream = match connect_with_rcvbuf(addr, SMALL_BUF) {
        Ok(s) => s,
        Err(_) => return HoldOutcome::Other,
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(read_timeout));
    if send_sse_query(&mut stream, "hold").is_err() {
        // The accept-shed path writes its 503 and closes; a racing write
        // into that close surfaces here as a reset.
        return HoldOutcome::Shed;
    }
    let mut buf = Vec::new();
    let mut tmp = [0u8; 2048];
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => {
                return if buf.starts_with(b"HTTP/1.1 503") {
                    HoldOutcome::Shed
                } else {
                    HoldOutcome::Other
                }
            }
            Ok(n) => {
                buf.extend_from_slice(&tmp[..n]);
                if buf.starts_with(b"HTTP/1.1 503") {
                    return HoldOutcome::Shed;
                }
                if contains(&buf, b"event: chunk") {
                    return HoldOutcome::Held(stream);
                }
                if buf.len() > 16 * 1024 {
                    return HoldOutcome::Other;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => return HoldOutcome::Shed,
            Err(_) => return HoldOutcome::Other,
        }
    }
}

#[derive(Default)]
struct WaveCounts {
    held: usize,
    shed: usize,
    other: usize,
}

/// Read the unlabelled `edge_open_connections` gauge off `/metrics`.
fn scrape_open_connections(addr: SocketAddr) -> Option<f64> {
    let response = client::request(addr, "GET", "/metrics", None).ok()?;
    response
        .body
        .lines()
        .find(|l| l.starts_with("edge_open_connections"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
}

/// Swarm `clients` hold streams from `threads` connector threads, then —
/// while every stream is still held — let `at_peak` observe the server
/// before the sockets drop.
fn capacity_wave<R>(
    addr: SocketAddr,
    clients: usize,
    threads: usize,
    at_peak: impl FnOnce() -> R,
) -> (WaveCounts, R) {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let counts = Arc::new(Mutex::new(WaveCounts::default()));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            let counts = Arc::clone(&counts);
            // Spread the remainder so exactly `clients` connect in total.
            let share = clients / threads + usize::from(i < clients % threads);
            std::thread::spawn(move || {
                let mut held = Vec::with_capacity(share);
                let mut local = WaveCounts::default();
                for _ in 0..share {
                    match hold_one(addr, Duration::from_secs(5)) {
                        HoldOutcome::Held(stream) => {
                            held.push(stream);
                            local.held += 1;
                        }
                        HoldOutcome::Shed => local.shed += 1,
                        HoldOutcome::Other => local.other += 1,
                    }
                }
                {
                    let mut counts = counts.lock().expect("wave counts");
                    counts.held += local.held;
                    counts.shed += local.shed;
                    counts.other += local.other;
                }
                barrier.wait(); // wave complete, streams held
                barrier.wait(); // peak observed, release
                drop(held);
            })
        })
        .collect();
    barrier.wait();
    let peak = at_peak();
    barrier.wait();
    for h in handles {
        h.join().expect("connector thread");
    }
    let counts = Arc::try_unwrap(counts)
        .unwrap_or_else(|_| panic!("connector threads joined"))
        .into_inner()
        .expect("wave counts");
    (counts, peak)
}

/// One TTFT sample: microseconds from request written to the first
/// `event: chunk` byte, then drain the stream to EOF.
fn ttft_one(addr: SocketAddr) -> Option<u64> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(20)));
    send_sse_query(&mut stream, "ttft").ok()?;
    let start = Instant::now();
    let mut buf = Vec::new();
    let mut tmp = [0u8; 4096];
    let mut ttft = None;
    loop {
        match stream.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => {
                if ttft.is_none() {
                    buf.extend_from_slice(&tmp[..n]);
                    if contains(&buf, b"event: chunk") {
                        ttft = Some(start.elapsed().as_micros() as u64);
                    } else if buf.starts_with(b"HTTP/1.1 5") || buf.starts_with(b"HTTP/1.1 4") {
                        return None;
                    }
                }
            }
            Err(_) => break,
        }
    }
    ttft
}

fn ttft_phase(addr: SocketAddr, clients: usize, rounds: usize) -> Vec<u64> {
    let samples = Arc::new(Mutex::new(Vec::with_capacity(clients * rounds)));
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let samples = Arc::clone(&samples);
            std::thread::spawn(move || {
                for _ in 0..rounds {
                    if let Some(us) = ttft_one(addr) {
                        samples.lock().expect("ttft samples").push(us);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("ttft thread");
    }
    let mut samples = Arc::try_unwrap(samples)
        .unwrap_or_else(|_| panic!("ttft threads joined"))
        .into_inner()
        .expect("ttft samples");
    samples.sort_unstable();
    samples
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn ttft_json(sorted: &[u64], expected: usize) -> serde_json::Value {
    json!({
        "p50": percentile(sorted, 0.50),
        "p99": percentile(sorted, 0.99),
        "samples": sorted.len(),
        "errors": expected.saturating_sub(sorted.len()),
    })
}

// ---------------------------------------------------------------------------
// The bench driver.
// ---------------------------------------------------------------------------

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--serve") {
        serve_child(args.get(i + 1).map(String::as_str).unwrap_or(""));
    }
    let check = args.iter().any(|a| a == "--check");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_edge.json".into());

    let clients = capacity_clients();
    let probe = env_usize("EDGE_BENCH_PROBE", 600);
    let ttft_clients = env_usize("EDGE_BENCH_TTFT_CLIENTS", 100);
    let ttft_rounds = env_usize("EDGE_BENCH_TTFT_ROUNDS", 3);
    let baseline_clients = 8 * WORKER_THREADS;

    // --- Edge transport: TTFT while fresh, then the capacity wave. ---
    eprintln!("edge: starting event-loop server child");
    let edge = ChildServer::spawn("edge");
    eprintln!("edge: TTFT with {ttft_clients} clients x {ttft_rounds}");
    let edge_ttft = ttft_phase(edge.addr, ttft_clients, ttft_rounds);
    eprintln!(
        "edge: TTFT p50={}us p99={}us ({} samples)",
        percentile(&edge_ttft, 0.5),
        percentile(&edge_ttft, 0.99),
        edge_ttft.len()
    );
    eprintln!("edge: capacity wave of {clients} slow SSE clients");
    let wave_start = Instant::now();
    let (edge_wave, (gauge, probe_counts)) = capacity_wave(edge.addr, clients, 8, || {
        let gauge = scrape_open_connections(edge.addr);
        eprintln!(
            "edge: wave held, edge_open_connections={:?}; probing {probe} extra connects",
            gauge
        );
        // Overrun the accept headroom: the overflow must be shed with a
        // rendered 503, and every probe socket stays open so freed slots
        // don't mask the wall.
        let mut held = Vec::new();
        let mut counts = WaveCounts::default();
        for _ in 0..probe {
            match hold_one(edge.addr, Duration::from_secs(3)) {
                HoldOutcome::Held(stream) => {
                    held.push(stream);
                    counts.held += 1;
                }
                HoldOutcome::Shed => counts.shed += 1,
                HoldOutcome::Other => counts.other += 1,
            }
        }
        (gauge, counts)
    });
    let wave_secs = wave_start.elapsed().as_secs_f64();
    eprintln!(
        "edge: held={} shed={} other={} in {:.1}s; probe held={} shed={} other={}",
        edge_wave.held,
        edge_wave.shed,
        edge_wave.other,
        wave_secs,
        probe_counts.held,
        probe_counts.shed,
        probe_counts.other
    );
    drop(edge);

    // --- Thread-pool baseline: TTFT, then how many slow streams it can
    // actually hold live (pinned workers, not kernel buffers). ---
    eprintln!("baseline: starting thread-pool server child");
    let baseline = ChildServer::spawn("baseline");
    eprintln!("baseline: TTFT with {ttft_clients} clients x {ttft_rounds}");
    let base_ttft = ttft_phase(baseline.addr, ttft_clients, ttft_rounds);
    eprintln!(
        "baseline: TTFT p50={}us p99={}us ({} samples)",
        percentile(&base_ttft, 0.5),
        percentile(&base_ttft, 0.99),
        base_ttft.len()
    );
    eprintln!("baseline: capacity probe with {baseline_clients} slow SSE clients");
    let (base_wave, ()) = capacity_wave(baseline.addr, baseline_clients, baseline_clients, || ());
    eprintln!(
        "baseline: held={} shed={} other={}",
        base_wave.held, base_wave.shed, base_wave.other
    );
    drop(baseline);

    // --- Gates. ---
    let required_held = clients.min(10_000);
    let edge_p99 = percentile(&edge_ttft, 0.99);
    let base_p99 = percentile(&base_ttft, 0.99);
    // "No worse" with room for single-core scheduler noise: both sides run
    // 100 client threads plus the server on the same CPU.
    let ttft_budget = (base_p99 as f64 * 1.25) as u64 + 20_000;

    let report = json!({
        "config": {
            "worker_threads": WORKER_THREADS,
            "capacity_clients": clients,
            "max_conns": clients + CONN_HEADROOM,
            "probe_connects": probe,
            "ttft_clients": ttft_clients,
            "ttft_rounds": ttft_rounds,
            "client_rcvbuf": SMALL_BUF,
            "server_sndbuf": SMALL_BUF,
            "hold_stream_bytes": HOLD_PAD_CHUNKS * HOLD_PAD_CHUNK_BYTES,
        },
        "edge": {
            "ttft_us": ttft_json(&edge_ttft, ttft_clients * ttft_rounds),
            "capacity": {
                "target": clients,
                "held": edge_wave.held,
                "shed": edge_wave.shed,
                "other": edge_wave.other,
                "wave_secs": wave_secs,
                "open_connections_gauge": gauge,
                "probe": {
                    "attempts": probe,
                    "held": probe_counts.held,
                    "shed": probe_counts.shed,
                    "other": probe_counts.other,
                },
            },
        },
        "baseline": {
            "ttft_us": ttft_json(&base_ttft, ttft_clients * ttft_rounds),
            "capacity": {
                "clients": baseline_clients,
                "held": base_wave.held,
                "worker_threads": WORKER_THREADS,
            },
        },
        "gates": {
            "edge_held_min": required_held,
            "baseline_held_max": WORKER_THREADS,
            "probe_shed_min": 1,
            "edge_ttft_p99_budget_us": ttft_budget,
        },
    });
    std::fs::write(&out_path, format!("{:#}\n", report)).expect("write snapshot");
    eprintln!("wrote {out_path}");

    if check {
        assert!(
            edge_wave.held >= required_held,
            "edge transport held {} concurrent SSE streams, need >= {required_held}",
            edge_wave.held
        );
        assert!(
            base_wave.held <= WORKER_THREADS,
            "thread-pool baseline held {} streams, expected <= {WORKER_THREADS} (one per worker)",
            base_wave.held
        );
        assert!(
            probe_counts.shed >= 1,
            "no accept-time 503 observed past max_conns (probe: {} held, {} other)",
            probe_counts.held,
            probe_counts.other
        );
        assert!(
            edge_p99 <= ttft_budget,
            "edge TTFT p99 {edge_p99}us exceeds budget {ttft_budget}us (baseline p99 {base_p99}us)"
        );
        eprintln!("edge_snapshot --check: all gates passed");
    }
}
