//! Federated model integration end-to-end: a *remote* llmms node serves its
//! models over `/api/generate`; the *local* orchestrator mixes a
//! [`RemoteModel`] adapter into its candidate pool alongside local models
//! (§9.5 "federated and secure model integration").

use llmms::core::{Orchestrator, OrchestratorConfig, OuaConfig, Strategy};
use llmms::models::{GenOptions, LanguageModel, SharedModel};
use llmms::server::{client, RemoteModel, Server};
use llmms::Platform;
use std::sync::Arc;

fn remote_node() -> Server {
    Server::start(Arc::new(Platform::evaluation_default()), "127.0.0.1:0")
        .expect("remote node must bind")
}

#[test]
fn generate_endpoint_serves_raw_completions() {
    let node = remote_node();
    let r = client::request(
        node.addr(),
        "POST",
        "/api/generate",
        Some(r#"{"model":"qwen2-7b","prompt":"What is the capital of France?","temperature":0.0}"#),
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let v = r.json().unwrap();
    assert_eq!(v["model"], "qwen2-7b");
    assert!(!v["text"].as_str().unwrap().is_empty());
    assert_eq!(v["done_reason"], "stop");
    // Unknown model is a clean 400.
    let r = client::request(
        node.addr(),
        "POST",
        "/api/generate",
        Some(r#"{"model":"gpt-5","prompt":"hi"}"#),
    )
    .unwrap();
    assert_eq!(r.status, 400);
    node.shutdown();
}

#[test]
fn remote_model_behaves_like_a_local_language_model() {
    let node = remote_node();
    let remote = RemoteModel::new(node.addr(), "mistral-7b").with_local_name("mistral-remote");
    assert_eq!(remote.name(), "mistral-remote");
    assert_eq!(remote.info().family, "remote");

    let options = GenOptions {
        temperature: 0.0,
        ..GenOptions::default()
    };
    let done = remote.complete("What is the capital of France?", &options);
    assert!(!done.text.is_empty());
    assert!(done.tokens > 0);

    // Chunked streaming matches the blocking completion.
    let mut session = remote.start("What is the capital of France?", &options);
    let mut acc = String::new();
    loop {
        let chunk = session.next_chunk(3).expect("healthy remote streams");
        assert!(chunk.tokens <= 3);
        acc.push_str(&chunk.text);
        if chunk.is_done() {
            break;
        }
    }
    assert_eq!(acc, done.text);
    node.shutdown();
}

#[test]
fn orchestrator_mixes_local_and_remote_models() {
    let node = remote_node();
    // Local pool: two local models + one federated one.
    let local_platform = Platform::evaluation_default();
    let mut pool: Vec<SharedModel> = local_platform.models()[..2].to_vec();
    pool.push(Arc::new(
        RemoteModel::new(node.addr(), "qwen2-7b").with_local_name("qwen2-federated"),
    ));

    let orchestrator = Orchestrator::new(
        llmms::embed::default_embedder(),
        OrchestratorConfig {
            strategy: Strategy::Oua(OuaConfig::default()),
            temperature: 0.0,
            ..OrchestratorConfig::default()
        },
    );
    let result = orchestrator
        .run(&pool, "Can you see the Great Wall of China from space?")
        .unwrap();
    assert_eq!(result.outcomes.len(), 3);
    let federated = result
        .outcomes
        .iter()
        .find(|o| o.model == "qwen2-federated")
        .unwrap();
    assert!(
        federated.tokens > 0,
        "the federated model must have participated"
    );
    assert!(!result.response().is_empty());
    node.shutdown();
}

#[test]
fn dead_remote_degrades_gracefully() {
    // Point at a node that is immediately shut down: the adapter surfaces a
    // transient error, retries are exhausted, the arm is marked failed, and
    // orchestration still answers from the healthy local models.
    let node = remote_node();
    let addr = node.addr();
    node.shutdown();

    let local_platform = Platform::evaluation_default();
    let mut pool: Vec<SharedModel> = local_platform.models()[..2].to_vec();
    pool.push(Arc::new(RemoteModel::new(addr, "qwen2-7b")));

    let orchestrator = Orchestrator::new(
        llmms::embed::default_embedder(),
        OrchestratorConfig {
            temperature: 0.0,
            ..OrchestratorConfig::default()
        },
    );
    let result = orchestrator
        .run(&pool, "What is the capital of France?")
        .unwrap();
    assert!(
        result.response().to_lowercase().contains("paris"),
        "local models must still answer: {}",
        result.response()
    );
    assert!(result.degraded, "a dead remote must flag degradation");
    let dead = result
        .outcomes
        .iter()
        .find(|o| o.model.starts_with("qwen2-7b@"))
        .expect("dead remote appears in outcomes");
    assert!(dead.failed);
    assert!(dead.retries > 0, "transient faults are retried first");
}

/// A fake federated peer speaking just enough HTTP to serve
/// `/api/generate`: it captures each request's raw head (start line +
/// headers) into a channel and answers with a canned completion.
fn capturing_peer() -> (std::net::SocketAddr, std::sync::mpsc::Receiver<String>) {
    use std::io::{Read, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            let mut raw = Vec::new();
            let mut buf = [0u8; 1024];
            // Read the whole request. Closing with request bytes still
            // unread makes the kernel reset the connection, and the client
            // can see that reset before it reads the answer.
            let complete = |raw: &[u8]| {
                let text = String::from_utf8_lossy(raw);
                let Some((head, body)) = text.split_once("\r\n\r\n") else {
                    return false;
                };
                let length = head.lines().find_map(|line| {
                    let (name, value) = line.split_once(':')?;
                    name.trim()
                        .eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse::<usize>().ok())?
                });
                body.len() >= length.unwrap_or(0)
            };
            while !complete(&raw) {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => raw.extend_from_slice(&buf[..n]),
                }
            }
            let text = String::from_utf8_lossy(&raw);
            let head = text.split("\r\n\r\n").next().unwrap_or_default();
            let _ = tx.send(head.to_owned());
            let body = r#"{"model":"qwen2-7b","text":"the peer answers briefly","tokens":4,"done_reason":"stop","latency_ms":1.0}"#;
            let _ = write!(
                stream,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            let _ = stream.flush();
        }
    });
    (addr, rx)
}

/// Deadline header value captured by the peer, if any.
fn deadline_header(head: &str) -> Option<u64> {
    head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("x-llmms-deadline-ms")
            .then(|| value.trim().parse().ok())?
    })
}

#[test]
fn remote_call_forwards_the_remaining_deadline_budget() {
    use llmms::core::deadline;

    let (addr, rx) = capturing_peer();
    let remote = RemoteModel::new(addr, "qwen2-7b");

    // No ambient deadline: no header rides along.
    let done = remote.complete("hello", &GenOptions::default());
    assert!(!done.text.is_empty());
    let head = rx.recv().unwrap();
    assert_eq!(deadline_header(&head), None, "head: {head}");

    // Under a 5s ambient deadline, the peer sees the *remaining* budget —
    // strictly smaller than the original after some time has elapsed.
    let budget_ms = 5_000;
    let _guard = deadline::scope(deadline::Deadline::new(Some(budget_ms)).expires_at());
    std::thread::sleep(std::time::Duration::from_millis(30));
    let done = remote.complete("hello again", &GenOptions::default());
    assert!(!done.text.is_empty());
    let head = rx.recv().unwrap();
    let forwarded = deadline_header(&head).expect("deadline header must ride along");
    assert!(
        forwarded < budget_ms,
        "peer must see remaining budget, got {forwarded} of {budget_ms}"
    );
    assert!(forwarded > 3_000, "budget unreasonably shrunk: {forwarded}");
}

#[test]
fn orchestrated_query_propagates_a_shrunken_deadline_to_the_peer() {
    let (addr, rx) = capturing_peer();
    let local_platform = Platform::evaluation_default();
    let mut pool: Vec<SharedModel> = local_platform.models()[..1].to_vec();
    pool.push(Arc::new(RemoteModel::new(addr, "qwen2-7b")));

    let orchestrator = Orchestrator::new(
        llmms::embed::default_embedder(),
        OrchestratorConfig {
            temperature: 0.0,
            ..OrchestratorConfig::default()
        },
    );
    let budget_ms = 30_000;
    let result = orchestrator
        .run_with(
            &pool,
            "What is the capital of France?",
            llmms::core::QueryOverrides {
                deadline_ms: Some(budget_ms),
                brownout_level: 0,
                ..llmms::core::QueryOverrides::default()
            },
        )
        .unwrap();
    assert!(!result.response().is_empty());
    let head = rx.recv().unwrap();
    let forwarded = deadline_header(&head).expect("orchestrated remote call carries the deadline");
    assert!(
        forwarded <= budget_ms,
        "peer must never see more than the client budget: {forwarded}"
    );
}

#[test]
fn hung_peer_times_out_fast_as_a_transient_fault() {
    use llmms::models::ModelError;

    // A listener that accepts connections but never answers.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let _keep = std::thread::spawn(move || {
        let mut parked = Vec::new();
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            parked.push(stream); // hold the socket open, say nothing
        }
    });

    let remote = RemoteModel::new(addr, "qwen2-7b").with_timeouts(
        std::time::Duration::from_millis(200),
        std::time::Duration::from_millis(300),
    );
    let started = std::time::Instant::now();
    let mut session = remote.start("hello", &GenOptions::default());
    let err = session.next_chunk(8).expect_err("hung peer must fail");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(3),
        "socket timeouts must bound the wait, took {:?}",
        started.elapsed()
    );
    assert!(
        matches!(err, ModelError::Transient { .. }),
        "hung peer maps to a transient fault: {err:?}"
    );
}

#[test]
fn expired_deadline_skips_the_remote_round_trip() {
    use llmms::core::deadline;
    use llmms::models::ModelError;

    let (addr, rx) = capturing_peer();
    let remote = RemoteModel::new(addr, "qwen2-7b");
    let _guard = deadline::scope(deadline::Deadline::new(Some(0)).expires_at());
    let mut session = remote.start("hello", &GenOptions::default());
    let err = session
        .next_chunk(8)
        .expect_err("expired deadline must fail the arm");
    assert!(matches!(err, ModelError::Transient { .. }), "{err:?}");
    // The peer never saw a request: the budget died before the socket.
    assert!(
        rx.try_recv().is_err(),
        "no request must reach the peer once the deadline is spent"
    );
}
