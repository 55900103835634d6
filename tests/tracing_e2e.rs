//! End-to-end request tracing acceptance test (the tentpole's seeded
//! scenario): one traced query against a pool containing a chaos-faulted
//! arm and a federated remote model must yield a single connected span
//! tree — request → rag_retrieve / orchestrate → round → arm / retry /
//! remote_generate — with the faulted arm's spans marked as errors, the
//! trace retained by tail sampling, and the trace reachable from a latency
//! histogram exemplar in `/metrics`.

use llmms::models::{ChaosModel, FaultKind, SharedModel};
use llmms::server::{client, RemoteModel, Server, ServerConfig};
use llmms::Platform;
use serde_json::Value;
use std::sync::Arc;

/// Collect every span name in the nested tree returned by
/// `GET /debug/traces/{id}`, depth-first.
fn flatten<'a>(spans: &'a [Value], out: &mut Vec<&'a Value>) {
    for span in spans {
        out.push(span);
        if let Some(children) = span["children"].as_array() {
            flatten(children, out);
        }
    }
}

fn get_trace(addr: std::net::SocketAddr, hex: &str) -> (u16, Value) {
    let r = client::request(addr, "GET", &format!("/debug/traces/{hex}"), None).unwrap();
    let v = r.json().unwrap_or(Value::Null);
    (r.status, v)
}

#[test]
fn traced_query_yields_connected_tree_reachable_from_exemplar() {
    let dir = std::env::temp_dir().join(format!("llmms-tracing-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // A second llmms node whose models the local orchestrator federates.
    let remote_node =
        Server::start(Arc::new(Platform::evaluation_default()), "127.0.0.1:0").unwrap();

    // Local pool: the three evaluation models, a chaos arm that fails its
    // very first chunk with retryable errors, and the federated remote.
    let base = Platform::evaluation_default();
    let chaos: SharedModel = Arc::new(
        ChaosModel::new(
            base.models()[0].clone(),
            FaultKind::ErrorAfterN {
                n: 0,
                transient: true,
            },
            7,
        )
        .with_name("chaos-arm"),
    );
    let remote: SharedModel = Arc::new(
        RemoteModel::new(remote_node.addr(), "qwen2-7b").with_local_name("qwen2-federated"),
    );
    let platform = Platform::builder()
        .persist_path(&dir)
        .fsync_every(1)
        .extra_models(vec![chaos, remote])
        .build()
        .unwrap();
    // Started after the remote node, so this retention config (keep every
    // trace) is the one the shared global store ends up with.
    let server = Server::start_with(
        Arc::new(platform),
        "127.0.0.1:0",
        ServerConfig {
            trace_sample_rate: 1.0,
            trace_slow_threshold_ms: 60_000,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // --- Ingest under trace A: storage spans land in the request tree. ---
    let ingest_hex = "00000000000000aa";
    let r = client::request_with_headers(
        addr,
        "POST",
        "/api/ingest",
        &[("X-LLMMS-Trace-Id", ingest_hex)],
        Some(r#"{"document_id":"zorblax","text":"The capital of Zorblax is the crystal city of Vantar."}"#),
    )
    .unwrap();
    assert_eq!(r.status, 201, "{}", r.body);
    let (status, trace) = get_trace(addr, ingest_hex);
    assert_eq!(status, 200, "ingest trace must be retained: {trace}");
    let mut spans = Vec::new();
    flatten(trace["spans"].as_array().unwrap(), &mut spans);
    let names: Vec<&str> = spans.iter().map(|s| s["name"].as_str().unwrap()).collect();
    assert!(names.contains(&"wal_append"), "{names:?}");
    assert!(names.contains(&"wal_fsync"), "{names:?}");

    // --- Query under trace B: the full orchestration tree. ---
    let query_hex = "00000000000000bb";
    let r = client::request_with_headers(
        addr,
        "POST",
        "/api/query",
        &[("X-LLMMS-Trace-Id", query_hex)],
        Some(r#"{"question":"What is the capital of Zorblax?","top_k":3}"#),
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let result: Value = r.json().unwrap();
    assert_eq!(result["degraded"], true, "chaos arm must degrade: {result}");
    let federated = result["outcomes"]
        .as_array()
        .unwrap()
        .iter()
        .find(|o| o["model"] == "qwen2-federated")
        .expect("federated arm participates");
    assert!(federated["tokens"].as_u64().unwrap() > 0);

    let (status, trace) = get_trace(addr, query_hex);
    assert_eq!(status, 200, "query trace must be retained: {trace}");
    assert_eq!(trace["route"], "/api/query");
    let mut spans = Vec::new();
    flatten(trace["spans"].as_array().unwrap(), &mut spans);
    let names: Vec<&str> = spans.iter().map(|s| s["name"].as_str().unwrap()).collect();
    for required in [
        "request",
        "rag_retrieve",
        "orchestrate",
        "embed_query",
        "round",
        "arm",
        "retry",
        "score",
        "remote_generate",
    ] {
        assert!(names.contains(&required), "missing {required}: {names:?}");
    }

    // The faulted arm surfaces as an error span carrying its model name.
    let error_arm = spans.iter().find(|s| {
        s["name"] == "arm" && s["status"] == "error" && s["attrs"]["model"] == "chaos-arm"
    });
    assert!(error_arm.is_some(), "chaos arm error span: {spans:#?}");

    // One connected tree: every retained span is reachable from the root
    // (the nested rendering silently drops orphans, so equal counts with
    // the store's own span tally prove connectivity).
    let r = client::request(addr, "GET", "/debug/traces", None).unwrap();
    let index: Value = r.json().unwrap();
    let tallies: Vec<u64> = index["traces"]
        .as_array()
        .unwrap()
        .iter()
        .filter(|t| t["trace_id"] == query_hex)
        .map(|t| t["spans"].as_u64().unwrap())
        .collect();
    assert!(
        tallies.len() >= 2,
        "local tree and the federated node's own sub-trace share the id: {index}"
    );
    assert_eq!(
        spans.len() as u64,
        *tallies.iter().max().unwrap(),
        "span tree must be fully connected"
    );

    // --- Exemplar: a /metrics latency bucket links to a retained trace. ---
    let r = client::request(addr, "GET", "/metrics", None).unwrap();
    let exemplar_hex = r
        .body
        .lines()
        .filter(|l| l.starts_with("http_request_duration_us_bucket"))
        .find_map(|l| {
            let (_, rest) = l.split_once("trace_id=\"")?;
            rest.split_once('"').map(|(hex, _)| hex.to_owned())
        })
        .expect("a latency bucket carries a trace exemplar");
    let (status, _) = get_trace(addr, &exemplar_hex);
    assert_eq!(status, 200, "exemplar {exemplar_hex} must resolve");

    server.shutdown();
    remote_node.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
