//! # llmms-server
//!
//! The application layer of the LLM-MS reproduction (thesis Chapter 5, §7):
//! a dependency-free HTTP/1.1 server on an epoll event loop, exposing the
//! platform's REST API with Server-Sent-Events streaming — the role Flask +
//! mod_wsgi play in the original system. It serves only on Linux.
//!
//! Routes:
//!
//! | route | method | role |
//! |---|---|---|
//! | `/healthz` | GET | liveness probe |
//! | `/api/models` | GET | model list (the model-selection dropdown) |
//! | `/api/hardware` | GET | simulated SMI utilization report |
//! | `/api/query` | POST | answer a question; `"stream": true` switches to SSE |
//! | `/api/ingest` | POST | upload a document for RAG |
//! | `/api/sessions` | POST/GET | create / list sessions (the sidebar) |
//! | `/api/sessions/{id}` | DELETE | delete a session |
//! | `/api/config` | GET/POST | read / switch orchestration settings |
//!
//! The transport is generic over [`AppService`]; the assembled platform in
//! the `llmms` facade crate implements it.

#![warn(missing_docs)]

#[cfg(not(target_os = "linux"))]
compile_error!("llmms-server is epoll-based and serves only on Linux");

pub mod admission;
pub mod client;
mod edge;
pub mod http;
pub mod server;
pub mod service;
pub mod sse;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionPermit, Rejection, TenantQuota, DEFAULT_TENANT,
};
pub use server::{EdgeConfig, Server, ServerConfig};
pub use service::{AppService, QueryContext, QueryRequest, ServiceError};

#[cfg(test)]
mod tests {
    use super::*;
    use llmms_core::{EventSink, ModelOutcome, OrchestrationEvent, OrchestrationResult};
    use llmms_models::{DoneReason, ModelInfo, UtilizationReport};
    use parking_lot::Mutex;
    use serde_json::json;
    use std::sync::Arc;

    /// An in-crate stub so transport tests need no real models.
    struct StubService {
        sessions: Mutex<Vec<String>>,
    }

    impl StubService {
        fn new() -> Self {
            Self {
                sessions: Mutex::new(Vec::new()),
            }
        }
    }

    impl AppService for StubService {
        fn query(
            &self,
            request: &QueryRequest,
            ctx: &QueryContext,
            mut sink: Option<Box<dyn EventSink>>,
        ) -> Result<OrchestrationResult, ServiceError> {
            match request.question.as_str() {
                "panic" => panic!("stub handler panicked"),
                "fail" => return Err(ServiceError::bad_request("stub failure")),
                "all-models-down" => {
                    return Err(ServiceError::bad_gateway("every candidate model failed"))
                }
                "too-slow" => return Err(ServiceError::gateway_timeout("query deadline exceeded")),
                "sleep" => std::thread::sleep(std::time::Duration::from_millis(300)),
                _ => {}
            }
            if let (Some(sink), "hold") = (&mut sink, request.question.as_str()) {
                // 32 KiB of chunks: more than clamped kernel buffers on
                // both ends swallow, so a client that stops reading leaves
                // the rest of its stream parked on the server.
                for _ in 0..16 {
                    let _ = sink.send(&OrchestrationEvent::ModelChunk {
                        model: "stub".into(),
                        text: "x".repeat(2 * 1024),
                        tokens: 1,
                        done: None,
                    });
                }
            }
            if let Some(sink) = &mut sink {
                let _ = sink.send(&OrchestrationEvent::RoundStarted { round: 1 });
                let _ = sink.send(&OrchestrationEvent::ModelChunk {
                    model: "stub".into(),
                    text: "hello".into(),
                    tokens: 1,
                    done: Some(DoneReason::Stop),
                });
            }
            // "thread" answers with the name of the thread the query ran on.
            let response = match request.question.as_str() {
                "thread" => std::thread::current().name().unwrap_or("").to_owned(),
                question => format!("answer to {question}"),
            };
            Ok(OrchestrationResult {
                strategy: "single".into(),
                best: 0,
                outcomes: vec![ModelOutcome {
                    model: "stub".into(),
                    response,
                    tokens: 3,
                    score: 0.9,
                    rounds: 1,
                    pruned: false,
                    done: Some(DoneReason::Stop),
                    simulated_latency: std::time::Duration::from_millis(5),
                    failed: false,
                    error: None,
                    retries: 0,
                    backoff_ms: 0,
                }],
                total_tokens: 3,
                rounds: 1,
                budget_exhausted: false,
                degraded: ctx.brownout_level > 0,
                deadline_exceeded: false,
                brownout_level: ctx.brownout_level,
                events: Vec::new(),
            })
        }

        fn ingest(&self, document_id: &str, text: &str) -> Result<usize, String> {
            if text.is_empty() {
                return Err("empty document".into());
            }
            let _ = document_id;
            Ok(2)
        }

        fn list_models(&self) -> Vec<ModelInfo> {
            vec![ModelInfo {
                name: "stub".into(),
                family: "stub".into(),
                params_b: 1.0,
                context_window: 2048,
                quantization: "none".into(),
                decode_tokens_per_second: 50.0,
            }]
        }

        fn hardware(&self) -> UtilizationReport {
            UtilizationReport {
                used_vram_gb: 1.0,
                total_vram_gb: 32.0,
                gpu_residents: vec!["stub".into()],
                cpu_residents: vec![],
            }
        }

        fn create_session(&self) -> String {
            let mut sessions = self.sessions.lock();
            let id = format!("s{}", sessions.len() + 1);
            sessions.push(id.clone());
            id
        }

        fn list_sessions(&self) -> Vec<(String, String)> {
            self.sessions
                .lock()
                .iter()
                .map(|id| (id.clone(), format!("title of {id}")))
                .collect()
        }

        fn delete_session(&self, id: &str) -> Result<(), String> {
            let mut sessions = self.sessions.lock();
            let before = sessions.len();
            sessions.retain(|s| s != id);
            if sessions.len() == before {
                Err(format!("session {id} not found"))
            } else {
                Ok(())
            }
        }

        fn configure(
            &self,
            strategy: Option<&str>,
            _token_budget: Option<usize>,
        ) -> Result<(), String> {
            match strategy {
                Some("oua" | "mab" | "single") | None => Ok(()),
                Some(other) => Err(format!("unknown strategy {other}")),
            }
        }

        fn config_json(&self) -> serde_json::Value {
            json!({ "strategy": "oua", "token_budget": 2048 })
        }
    }

    fn start() -> Server {
        Server::start(Arc::new(StubService::new()), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn healthz_and_models() {
        let server = start();
        let r = client::request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.json().unwrap()["status"], "ok");
        let r = client::request(server.addr(), "GET", "/api/models", None).unwrap();
        assert_eq!(r.json().unwrap()["models"][0]["name"], "stub");
        server.shutdown();
    }

    #[test]
    fn query_roundtrip() {
        let server = start();
        let r = client::request(
            server.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"what is up"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 200);
        let v = r.json().unwrap();
        assert_eq!(v["outcomes"][0]["response"], "answer to what is up");
        server.shutdown();
    }

    #[test]
    fn query_validation_errors() {
        let server = start();
        let r = client::request(server.addr(), "POST", "/api/query", Some("{}")).unwrap();
        assert_eq!(r.status, 400);
        let r = client::request(
            server.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"fail"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 400);
        assert!(r.body.contains("stub failure"));
        let r = client::request(server.addr(), "POST", "/api/query", Some("not json")).unwrap();
        assert_eq!(r.status, 400);
        server.shutdown();
    }

    #[test]
    fn streaming_query_emits_sse() {
        let server = start();
        let events = client::sse_request(
            server.addr(),
            "/api/query",
            r#"{"question":"hello","stream":true}"#,
        )
        .unwrap();
        let names: Vec<&str> = events.iter().map(|(e, _)| e.as_str()).collect();
        assert!(names.contains(&"round"));
        assert!(names.contains(&"chunk"));
        assert_eq!(*names.last().unwrap(), "result");
        let (_, result) = events.last().unwrap();
        assert!(result.contains("answer to hello"));
        server.shutdown();
    }

    #[test]
    fn ingest_endpoint() {
        let server = start();
        let r = client::request(
            server.addr(),
            "POST",
            "/api/ingest",
            Some(r#"{"document_id":"d1","text":"hello world"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 201);
        assert_eq!(r.json().unwrap()["chunks"], 2);
        let r = client::request(
            server.addr(),
            "POST",
            "/api/ingest",
            Some(r#"{"document_id":"d1"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 400);
        server.shutdown();
    }

    #[test]
    fn session_lifecycle_over_http() {
        let server = start();
        let r = client::request(server.addr(), "POST", "/api/sessions", Some("{}")).unwrap();
        assert_eq!(r.status, 201);
        let id = r.json().unwrap()["id"].as_str().unwrap().to_owned();
        let r = client::request(server.addr(), "GET", "/api/sessions", None).unwrap();
        assert!(r.body.contains(&id));
        let r = client::request(
            server.addr(),
            "DELETE",
            &format!("/api/sessions/{id}"),
            None,
        )
        .unwrap();
        assert_eq!(r.status, 200);
        let r = client::request(
            server.addr(),
            "DELETE",
            &format!("/api/sessions/{id}"),
            None,
        )
        .unwrap();
        assert_eq!(r.status, 404);
        server.shutdown();
    }

    #[test]
    fn config_endpoints() {
        let server = start();
        let r = client::request(server.addr(), "GET", "/api/config", None).unwrap();
        assert_eq!(r.json().unwrap()["strategy"], "oua");
        let r = client::request(
            server.addr(),
            "POST",
            "/api/config",
            Some(r#"{"strategy":"mab"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 200);
        let r = client::request(
            server.addr(),
            "POST",
            "/api/config",
            Some(r#"{"strategy":"nonsense"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 400);
        server.shutdown();
    }

    #[test]
    fn unknown_route_is_404() {
        let server = start();
        for (method, path) in [("GET", "/nope"), ("POST", "/api/generate")] {
            let r = client::request(server.addr(), method, path, None).unwrap();
            assert_eq!(r.status, 404, "{method} {path}");
        }
        server.shutdown();
    }

    #[test]
    fn unknown_method_is_405_over_the_wire() {
        let server = start();
        let r = client::request(server.addr(), "PATCH", "/api/config", Some("{}")).unwrap();
        assert_eq!(r.status, 405);
        server.shutdown();
    }

    #[test]
    fn oversized_body_is_413_over_the_wire() {
        use std::io::{Read, Write};
        let server = start();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        // Only the headers go over the wire: the server must reject from
        // Content-Length alone, without reading a body.
        write!(
            stream,
            "POST /api/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            crate::http::MAX_BODY_BYTES + 1
        )
        .unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 413 Payload Too Large"),
            "{response}"
        );
        server.shutdown();
    }

    #[test]
    fn orchestration_failures_map_to_gateway_statuses() {
        let server = start();
        let r = client::request(
            server.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"all-models-down"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 502, "{}", r.body);
        assert!(r.body.contains("every candidate model failed"));
        let r = client::request(
            server.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"too-slow"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 504, "{}", r.body);
        server.shutdown();
    }

    #[test]
    fn streaming_error_frame_carries_status() {
        let server = start();
        let events = client::sse_request(
            server.addr(),
            "/api/query",
            r#"{"question":"all-models-down","stream":true}"#,
        )
        .unwrap();
        let (name, data) = events.last().unwrap();
        assert_eq!(name, "error");
        assert!(data.contains("\"status\":502"), "{data}");
        server.shutdown();
    }

    #[test]
    fn slow_client_is_answered_with_408() {
        use std::io::{Read, Write};
        let server = Server::start_with(
            Arc::new(StubService::new()),
            "127.0.0.1:0",
            server::ServerConfig {
                read_timeout: std::time::Duration::from_millis(50),
                ..server::ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        // Send only a partial request line, then stall past the timeout.
        stream.write_all(b"POST /api/query HT").unwrap();
        stream.flush().unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 408 Request Timeout"),
            "{response}"
        );
        server.shutdown();
    }

    #[test]
    fn saturated_server_sheds_load_but_keeps_probes() {
        let server = Server::start_with(
            Arc::new(StubService::new()),
            "127.0.0.1:0",
            server::ServerConfig {
                max_in_flight: 1,
                ..server::ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        // Occupy the only slot with a deliberately slow query…
        let busy = std::thread::spawn(move || {
            client::request(addr, "POST", "/api/query", Some(r#"{"question":"sleep"}"#)).unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        // …then the next query must be shed with a Retry-After hint…
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let body = r#"{"question":"hi"}"#;
        write!(
            stream,
            "POST /api/query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{response}"
        );
        assert!(response.contains("Retry-After: 1"), "{response}");
        // …while the liveness probe still answers.
        let r = client::request(addr, "GET", "/healthz", None).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(busy.join().unwrap().status, 200);
        server.shutdown();
    }

    /// A full dispatch queue is shed by the event loop in both places it
    /// can be: at the request boundary on a live connection, and at accept
    /// for a fresh one.
    #[test]
    fn full_handoff_queue_is_shed_at_the_acceptor() {
        use std::io::{Read, Write};
        use std::net::TcpStream;
        use std::time::Duration;
        let registry = llmms_obs::Registry::global();
        let accept_sheds = || {
            registry.snapshot().counter_value(
                "http_shed_total",
                &[("route", "accept"), ("reason", "queue")],
            )
        };
        let server = Server::start_with(
            Arc::new(StubService::new()),
            "127.0.0.1:0",
            server::ServerConfig {
                worker_threads: 1,
                queue_depth: 1,
                ..server::ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let post = |stream: &mut TcpStream, body: &str| {
            write!(
                stream,
                "POST /api/query HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
        };
        // Pin the only worker on a slow streaming query: its SSE header goes
        // out before the 300 ms orchestration starts, so once it arrives the
        // worker is busy and the queue is empty.
        let mut pinned = TcpStream::connect(addr).unwrap();
        post(&mut pinned, r#"{"question":"sleep","stream":true}"#);
        let mut status_line = [0u8; 12];
        pinned.read_exact(&mut status_line).unwrap();
        assert_eq!(&status_line, b"HTTP/1.1 200");
        // Open two connections while the queue is still empty…
        let mut queued = TcpStream::connect(addr).unwrap();
        let mut shed = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // …let the first one's request take the single queue slot…
        post(&mut queued, r#"{"question":"hi"}"#);
        std::thread::sleep(Duration::from_millis(50));
        // …so the second one's request is answered 503 by the loop itself.
        post(&mut shed, r#"{"question":"hi"}"#);
        let mut response = String::new();
        shed.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{response}"
        );
        assert!(response.contains("Retry-After: 1"), "{response}");
        // A fresh connection is shed at accept, before it sends a byte.
        let before = accept_sheds();
        let mut fresh = TcpStream::connect(addr).unwrap();
        let mut response = String::new();
        fresh.read_to_string(&mut response).unwrap();
        assert!(
            response.starts_with("HTTP/1.1 503 Service Unavailable"),
            "{response}"
        );
        assert!(response.contains("Retry-After: 1"), "{response}");
        assert!(accept_sheds() > before, "accept shed not counted");
        // Once the pinned stream ends, the queued request is served.
        let mut response = String::new();
        pinned.read_to_string(&mut response).unwrap();
        assert!(response.contains("event: result"), "{response}");
        let mut response = String::new();
        queued.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        server.shutdown();
    }

    #[test]
    fn metrics_and_stats_endpoints_serve() {
        let server = start();
        // Request counters are recorded once the response is written, so the
        // first scrape may not see itself yet — the second one must.
        let _ = client::request(server.addr(), "GET", "/metrics", None).unwrap();
        let r = client::request(server.addr(), "GET", "/metrics", None).unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.contains("http_requests_total"), "{}", r.body);
        assert!(r.body.contains("http_in_flight"), "{}", r.body);
        let r = client::request(server.addr(), "GET", "/stats", None).unwrap();
        assert_eq!(r.status, 200);
        let v = r.json().unwrap();
        assert!(v.get("models").is_some());
        assert!(v.get("requests").is_some());
        assert!(v.get("breakers").is_some());
        assert!(v.get("scoring").is_some());
        let parallel = v.get("parallel").expect("parallel block");
        assert!(parallel.get("round_parallel_speedup").is_some());
        assert!(parallel.get("embed_cache").is_some());
        let storage = v.get("storage").expect("storage block");
        assert!(storage.get("wal_appends").is_some());
        assert!(storage.get("recovery").is_some());
        let tracing = v.get("tracing").expect("tracing block");
        assert!(tracing.get("offered").is_some());
        assert!(tracing.get("retained").is_some());
        // Route aggregation is keyed on (route, status): the /metrics hits
        // above surface under their status, not as one overwritten scalar.
        let metrics_route = &v["requests"]["/metrics"];
        assert!(metrics_route["total"].as_u64().unwrap() >= 1, "{v}");
        assert!(
            metrics_route["by_status"]["200"].as_u64().unwrap() >= 1,
            "{v}"
        );
        server.shutdown();
    }

    #[test]
    fn stats_keep_error_statuses_separate_per_route() {
        let server = start();
        // One 200 and one 400 on the same route.
        let ok = client::request(
            server.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"hi"}"#),
        )
        .unwrap();
        assert_eq!(ok.status, 200);
        let bad = client::request(server.addr(), "POST", "/api/query", Some("{}")).unwrap();
        assert_eq!(bad.status, 400);
        let r = client::request(server.addr(), "GET", "/stats", None).unwrap();
        let v = r.json().unwrap();
        let route = &v["requests"]["/api/query"];
        assert!(route["by_status"]["200"].as_u64().unwrap() >= 1, "{v}");
        assert!(route["by_status"]["400"].as_u64().unwrap() >= 1, "{v}");
        assert!(
            route["total"].as_u64().unwrap()
                >= route["by_status"]["200"].as_u64().unwrap()
                    + route["by_status"]["400"].as_u64().unwrap(),
            "{v}"
        );
        server.shutdown();
    }

    #[test]
    fn debug_traces_join_caller_trace_and_serve_span_tree() {
        let server = start();
        // A 502 outcome makes the trace an error trace, which tail sampling
        // retains unconditionally — no dependence on the sample rate.
        let hex = "00000000deadbeef";
        let r = client::request_with_headers(
            server.addr(),
            "POST",
            "/api/query",
            &[("X-LLMMS-Trace-Id", hex)],
            Some(r#"{"question":"all-models-down"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 502);

        // The caller-provided id addresses the retained trace directly.
        let r =
            client::request(server.addr(), "GET", &format!("/debug/traces/{hex}"), None).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let v = r.json().unwrap();
        assert_eq!(v["trace_id"], hex);
        assert_eq!(v["route"], "/api/query");
        assert_eq!(v["status"], "error");
        assert_eq!(v["class"], "error");
        let root = &v["spans"][0];
        assert_eq!(root["name"], "request");
        assert_eq!(root["status"], "error");
        assert_eq!(root["attrs"]["route"], "/api/query");
        assert_eq!(root["attrs"]["status"], 502);

        // The index lists it too.
        let r = client::request(server.addr(), "GET", "/debug/traces", None).unwrap();
        assert_eq!(r.status, 200);
        let v = r.json().unwrap();
        let listed = v["traces"]
            .as_array()
            .unwrap()
            .iter()
            .any(|t| t["trace_id"] == hex);
        assert!(listed, "{v}");

        // Chrome trace-event export for the same id.
        let r = client::request(
            server.addr(),
            "GET",
            &format!("/debug/traces/{hex}?format=chrome"),
            None,
        )
        .unwrap();
        assert_eq!(r.status, 200);
        assert!(r.body.contains("traceEvents"), "{}", r.body);

        // Unknown and malformed ids answer 404 / 400.
        let r =
            client::request(server.addr(), "GET", "/debug/traces/0000000000000001", None).unwrap();
        assert_eq!(r.status, 404);
        let r = client::request(server.addr(), "GET", "/debug/traces/not-hex", None).unwrap();
        assert_eq!(r.status, 400);
        server.shutdown();
    }

    #[test]
    fn over_quota_tenant_gets_429_with_computed_retry_after() {
        let mut config = server::ServerConfig::default();
        // One burst token, no refill: the second query must be refused.
        config.admission.default_quota = TenantQuota {
            rate_per_sec: 0.0,
            burst: 1.0,
            max_concurrent: 8,
        };
        let server =
            Server::start_with(Arc::new(StubService::new()), "127.0.0.1:0", config).unwrap();
        let body = r#"{"question":"hi"}"#;
        let ok = client::request(server.addr(), "POST", "/api/query", Some(body)).unwrap();
        assert_eq!(ok.status, 200);
        let refused = client::request(server.addr(), "POST", "/api/query", Some(body)).unwrap();
        assert_eq!(refused.status, 429, "{}", refused.body);
        assert!(refused.body.contains("quota"), "{}", refused.body);
        // Zero refill rate clamps the hint to the 30s ceiling.
        assert_eq!(
            refused.header("Retry-After"),
            Some("30"),
            "{:?}",
            refused.headers
        );
        // Probes are not admission-controlled.
        let probe = client::request(server.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(probe.status, 200);
        server.shutdown();
    }

    #[test]
    fn tenant_header_selects_an_independent_bucket() {
        let mut config = server::ServerConfig::default();
        config.admission.default_quota = TenantQuota {
            rate_per_sec: 0.0,
            burst: 1.0,
            max_concurrent: 8,
        };
        let server =
            Server::start_with(Arc::new(StubService::new()), "127.0.0.1:0", config).unwrap();
        let body = r#"{"question":"hi"}"#;
        let spend = |tenant: &str| {
            client::request_with_headers(
                server.addr(),
                "POST",
                "/api/query",
                &[("X-LLMMS-Tenant", tenant)],
                Some(body),
            )
            .unwrap()
        };
        assert_eq!(spend("alpha").status, 200);
        assert_eq!(spend("alpha").status, 429, "alpha's burst is spent");
        // A different tenant — and the headerless default bucket — still get
        // through: one tenant's exhaustion never starves another.
        assert_eq!(spend("beta").status, 200);
        let default = client::request(server.addr(), "POST", "/api/query", Some(body)).unwrap();
        assert_eq!(default.status, 200);
        server.shutdown();
    }

    #[test]
    fn hopeless_deadline_is_rejected_fast_with_504() {
        let server = start();
        // Seed the service-time EWMA with a ~300ms query.
        let slow = client::request(
            server.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"sleep"}"#),
        )
        .unwrap();
        assert_eq!(slow.status, 200);
        // A 1ms budget is far below the ~300ms estimate: refused up front.
        let started = std::time::Instant::now();
        let r = client::request_with_headers(
            server.addr(),
            "POST",
            "/api/query",
            &[("X-LLMMS-Deadline-Ms", "1")],
            Some(r#"{"question":"hi"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 504, "{}", r.body);
        assert!(r.body.contains("estimated service time"), "{}", r.body);
        assert!(
            started.elapsed() < std::time::Duration::from_millis(250),
            "504-fast must not wait out the budget ({:?})",
            started.elapsed()
        );
        // A generous budget still goes through.
        let r = client::request_with_headers(
            server.addr(),
            "POST",
            "/api/query",
            &[("X-LLMMS-Deadline-Ms", "60000")],
            Some(r#"{"question":"hi"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        server.shutdown();
    }

    #[test]
    fn stats_expose_the_overload_block() {
        let mut config = server::ServerConfig::default();
        config.admission.default_quota = TenantQuota {
            rate_per_sec: 0.0,
            burst: 1.0,
            max_concurrent: 8,
        };
        let server =
            Server::start_with(Arc::new(StubService::new()), "127.0.0.1:0", config).unwrap();
        let body = r#"{"question":"hi"}"#;
        let _ = client::request(server.addr(), "POST", "/api/query", Some(body)).unwrap();
        let _ = client::request(server.addr(), "POST", "/api/query", Some(body)).unwrap();
        let r = client::request(server.addr(), "GET", "/stats", None).unwrap();
        let v = r.json().unwrap();
        let overload = v.get("overload").expect("overload block");
        assert!(overload["admitted"].as_u64().unwrap() >= 1, "{v}");
        assert!(overload["rejected"]["rate"].as_u64().unwrap() >= 1, "{v}");
        assert!(overload.get("brownout").is_some(), "{v}");
        server.shutdown();
    }

    #[test]
    fn streaming_query_announces_its_trace_id_first() {
        let server = start();
        let events = client::sse_request(
            server.addr(),
            "/api/query",
            r#"{"question":"hello","stream":true}"#,
        )
        .unwrap();
        let (name, data) = events.first().unwrap();
        assert_eq!(name, "trace");
        let v: serde_json::Value = serde_json::from_str(data).unwrap();
        let id = v["trace_id"].as_str().unwrap();
        assert_eq!(id.len(), 16, "{id}");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit()), "{id}");
        server.shutdown();
    }

    /// The shed boundary admits *exactly* `max_in_flight` concurrent
    /// requests: the post-increment occupancy from `InFlightGuard::enter`
    /// gives every overlapping request a distinct count, so with 6 overlapped
    /// queries against a limit of 2 the split is deterministically 2 / 4 —
    /// never an extra admission from a checked-then-entered race, never an
    /// all-shed stampede where every racer sees everyone else.
    #[test]
    fn shed_boundary_admits_exactly_max_in_flight() {
        let server = Server::start_with(
            Arc::new(StubService::new()),
            "127.0.0.1:0",
            server::ServerConfig {
                max_in_flight: 2,
                worker_threads: 6,
                ..server::ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                std::thread::spawn(move || {
                    client::request(addr, "POST", "/api/query", Some(r#"{"question":"sleep"}"#))
                        .unwrap()
                        .status
                })
            })
            .collect();
        let mut statuses: Vec<u16> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        statuses.sort_unstable();
        assert_eq!(statuses, [200, 200, 503, 503, 503, 503]);
        server.shutdown();
    }

    mod edge_transport {
        use super::*;
        use std::io::{Read, Write};
        use std::net::TcpStream;
        use std::time::Duration;

        fn start_edge(config: server::ServerConfig) -> Server {
            Server::start_with(Arc::new(StubService::new()), "127.0.0.1:0", config).unwrap()
        }

        #[test]
        fn keep_alive_serves_pipelined_requests_on_one_connection() {
            let server = start_edge(server::ServerConfig::default());
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            // Two requests in one write; the second opts out of keep-alive so
            // reading to EOF terminates.
            stream
                .write_all(
                    b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                      GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert_eq!(response.matches("HTTP/1.1 200 OK").count(), 2, "{response}");
            assert!(response.contains("Connection: keep-alive"), "{response}");
            assert!(response.contains("Connection: close"), "{response}");
            server.shutdown();
        }

        #[test]
        fn sequential_requests_reuse_the_connection() {
            let server = start_edge(server::ServerConfig::default());
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            for i in 0..3 {
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    .unwrap();
                let response = read_one_response(&mut stream);
                assert!(
                    response.starts_with("HTTP/1.1 200 OK"),
                    "req {i}: {response}"
                );
            }
            server.shutdown();
        }

        /// Read exactly one Content-Length-framed response off a keep-alive
        /// connection.
        fn read_one_response(stream: &mut TcpStream) -> String {
            let mut buf = Vec::new();
            let mut chunk = [0u8; 1024];
            loop {
                if let Some(head_end) = find_subslice(&buf, b"\r\n\r\n") {
                    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
                    let content_length: usize = head
                        .lines()
                        .find_map(|l| {
                            l.to_ascii_lowercase()
                                .strip_prefix("content-length:")
                                .map(|v| v.trim().parse().unwrap())
                        })
                        .unwrap_or(0);
                    let body_end = head_end + 4 + content_length;
                    if buf.len() >= body_end {
                        let text = String::from_utf8_lossy(&buf[..body_end]).into_owned();
                        buf.drain(..body_end);
                        assert!(buf.is_empty(), "unexpected trailing bytes");
                        return text;
                    }
                }
                let n = stream.read(&mut chunk).expect("read response");
                assert!(n > 0, "connection closed mid-response");
                buf.extend_from_slice(&chunk[..n]);
            }
        }

        fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
            haystack.windows(needle.len()).position(|w| w == needle)
        }

        #[test]
        fn connection_cap_sheds_fresh_accepts_with_503() {
            let server = start_edge(server::ServerConfig {
                edge: server::EdgeConfig {
                    max_conns: 1,
                    ..server::EdgeConfig::default()
                },
                ..server::ServerConfig::default()
            });
            // Occupy the only slot with an idle keep-alive connection…
            let _parked = TcpStream::connect(server.addr()).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            // …then the next accept is shed before any request is read.
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 503 Service Unavailable"),
                "{response}"
            );
            assert!(response.contains("Retry-After:"), "{response}");
            server.shutdown();
        }

        #[test]
        fn header_bomb_is_431_over_the_wire() {
            let server = start_edge(server::ServerConfig::default());
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nX-Bomb: ")
                .unwrap();
            let filler = vec![b'a'; crate::http::MAX_HEAD_BYTES + 64];
            stream.write_all(&filler).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 431 Request Header Fields Too Large"),
                "{response}"
            );
            server.shutdown();
        }

        #[test]
        fn malformed_content_length_is_400_over_the_wire() {
            let server = start_edge(server::ServerConfig::default());
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .write_all(b"POST /api/query HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n")
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 400 Bad Request"),
                "{response}"
            );
            assert!(response.contains("content-length"), "{response}");
            server.shutdown();
        }

        /// A request framed by both `Content-Length` and `Transfer-Encoding`
        /// is refused whole: its chunk data (here a complete `GET /healthz`)
        /// must never be parsed as a second request on the connection.
        #[test]
        fn transfer_encoding_is_501_and_smuggles_nothing() {
            let server = start_edge(server::ServerConfig::default());
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream
                .write_all(
                    b"POST /api/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\n\
                      Transfer-Encoding: chunked\r\n\r\n\
                      19\r\nGET /healthz HTTP/1.1\r\n\r\n\r\n0\r\n\r\n",
                )
                .unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 501 Not Implemented"),
                "{response}"
            );
            assert!(response.contains("Connection: close\r\n"), "{response}");
            assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
            server.shutdown();
        }

        /// A slow-but-alive SSE reader gets the whole stream: write-stall
        /// teardown must only fire on *zero* progress, not slow progress.
        #[test]
        fn slow_sse_client_receives_the_full_stream() {
            let server = start_edge(server::ServerConfig {
                edge: server::EdgeConfig {
                    write_stall_timeout: Duration::from_millis(500),
                    outbox_capacity: 2 * 1024,
                    ..server::EdgeConfig::default()
                },
                ..server::ServerConfig::default()
            });
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            // A fat question makes the result frame dwarf the outbox, forcing
            // the producer through many fill/drain cycles.
            let question = "q".repeat(16 * 1024);
            let body = format!(r#"{{"question":"{question}","stream":true}}"#);
            write!(
                stream,
                "POST /api/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
            let mut raw = Vec::new();
            let mut chunk = [0u8; 512];
            loop {
                match stream.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => {
                        raw.extend_from_slice(&chunk[..n]);
                        // Dawdle between reads, but never past the stall cap.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => panic!("read failed after {} bytes: {e}", raw.len()),
                }
            }
            let text = String::from_utf8_lossy(&raw);
            assert!(
                text.contains("event: result"),
                "no result frame in {} bytes",
                raw.len()
            );
            assert!(
                text.contains(&question),
                "result frame truncated at {} bytes",
                raw.len()
            );
            server.shutdown();
        }

        /// A stalled SSE client is abandoned at the write-stall deadline and
        /// the dispatch worker survives to serve the next request.
        #[test]
        fn stalled_sse_client_is_abandoned_and_the_worker_survives() {
            let server = start_edge(server::ServerConfig {
                worker_threads: 1,
                edge: server::EdgeConfig {
                    write_stall_timeout: Duration::from_millis(200),
                    outbox_capacity: 2 * 1024,
                    so_sndbuf: Some(4 * 1024),
                    ..server::EdgeConfig::default()
                },
                ..server::ServerConfig::default()
            });
            let addr = server.addr();
            let mut stalled = TcpStream::connect(addr).unwrap();
            let question = "q".repeat(256 * 1024);
            let body = format!(r#"{{"question":"{question}","stream":true}}"#);
            write!(
                stalled,
                "POST /api/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
            stalled.flush().unwrap();
            // Never read: outbox fills, socket buffer fills, stall timer
            // fires, the loop destroys the connection and fails the producer.
            // The single worker must come back for the next query.
            let r = client::request_with_timeouts(
                addr,
                "POST",
                "/api/query",
                &[],
                Some(r#"{"question":"hi"}"#),
                Some(Duration::from_secs(5)),
                Some(Duration::from_secs(10)),
            )
            .unwrap();
            assert_eq!(r.status, 200, "{}", r.body);
            drop(stalled);
            server.shutdown();
        }

        /// Live streams outnumber dispatch workers: 64 clients that stop
        /// reading after their first chunk leave 32 KiB streams parked in
        /// the edge's outboxes, and the two workers stay free to answer a
        /// fresh query. A transport that writes from the worker pins one
        /// worker per stalled stream instead.
        #[test]
        fn stalled_streams_do_not_pin_the_dispatch_workers() {
            let server = start_edge(server::ServerConfig {
                worker_threads: 2,
                edge: server::EdgeConfig {
                    so_sndbuf: Some(4096),
                    ..server::EdgeConfig::default()
                },
                ..server::ServerConfig::default()
            });
            let addr = server.addr();
            let body = r#"{"question":"hold","stream":true}"#;
            let held: Vec<(TcpStream, Vec<u8>)> = (0..64)
                .map(|_| {
                    let mut stream =
                        edge::poller::test_client::connect_with_rcvbuf(addr, 4096).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    write!(
                        stream,
                        "POST /api/query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                         Content-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                    let mut seen = Vec::new();
                    let mut buf = [0u8; 1024];
                    while find_subslice(&seen, b"event: chunk").is_none() {
                        let n = stream.read(&mut buf).expect("first chunk arrives");
                        assert!(n > 0, "stream closed before its first chunk");
                        seen.extend_from_slice(&buf[..n]);
                    }
                    (stream, seen)
                })
                .collect();
            let r = client::request_with_timeouts(
                addr,
                "POST",
                "/api/query",
                &[],
                Some(r#"{"question":"hi"}"#),
                Some(Duration::from_secs(5)),
                Some(Duration::from_secs(5)),
            )
            .expect("a fresh query is answered while 64 streams are held");
            assert_eq!(r.status, 200, "{}", r.body);
            for (i, (mut stream, mut seen)) in held.into_iter().enumerate() {
                stream.read_to_end(&mut seen).unwrap();
                assert!(
                    find_subslice(&seen, b"event: result").is_some(),
                    "held stream {i} ended without its result frame"
                );
            }
            server.shutdown();
        }

        /// A streaming query runs on the dispatch worker that owns its
        /// request: no thread is spawned per stream.
        #[test]
        fn streaming_query_runs_on_its_dispatch_worker() {
            let server = start_edge(server::ServerConfig::default());
            let events = client::sse_request(
                server.addr(),
                "/api/query",
                r#"{"question":"thread","stream":true}"#,
            )
            .unwrap();
            let (name, data) = events.last().unwrap();
            assert_eq!(name, "result", "{data}");
            let result: serde_json::Value = serde_json::from_str(data).unwrap();
            let thread = result["outcomes"][0]["response"].as_str().unwrap();
            assert!(thread.starts_with("llmms-edge-"), "query ran on {thread:?}");
            server.shutdown();
        }

        /// A panicking handler is answered 500 (a stream with its 500
        /// `error` frame), and the only dispatch worker survives to serve
        /// the next request.
        #[test]
        fn panicking_handlers_are_500_and_the_worker_survives() {
            let server = start_edge(server::ServerConfig {
                worker_threads: 1,
                ..server::ServerConfig::default()
            });
            let query = |question: &str| {
                let body = format!(r#"{{"question":"{question}"}}"#);
                client::request_with_timeouts(
                    server.addr(),
                    "POST",
                    "/api/query",
                    &[],
                    Some(&body),
                    Some(Duration::from_secs(5)),
                    Some(Duration::from_secs(10)),
                )
                .unwrap()
            };
            let r = query("panic");
            assert_eq!(r.status, 500, "{}", r.body);
            assert!(r.body.contains("request handler panicked"), "{}", r.body);
            assert_eq!(query("hi").status, 200);
            let body = r#"{"question":"panic","stream":true}"#;
            let events = client::sse_request(server.addr(), "/api/query", body).unwrap();
            let (name, data) = events.last().unwrap();
            assert_eq!(name, "error");
            assert_eq!(
                data,
                r#"{"error":"orchestration worker panicked","status":500}"#
            );
            assert_eq!(query("hi").status, 200);
            server.shutdown();
        }

        /// SSE stream outcomes land on the `sse_streams_total` counter with
        /// an honest label per terminal state.
        #[test]
        fn sse_stream_outcomes_are_counted() {
            let registry = llmms_obs::Registry::global();
            let server = start_edge(server::ServerConfig::default());
            let ok_before = registry
                .snapshot()
                .counter_value("sse_streams_total", &[("outcome", "ok")]);
            let err_before = registry
                .snapshot()
                .counter_value("sse_streams_total", &[("outcome", "error")]);
            let events = client::sse_request(
                server.addr(),
                "/api/query",
                r#"{"question":"hello","stream":true}"#,
            )
            .unwrap();
            assert_eq!(events.last().unwrap().0, "result");
            let events = client::sse_request(
                server.addr(),
                "/api/query",
                r#"{"question":"all-models-down","stream":true}"#,
            )
            .unwrap();
            assert_eq!(events.last().unwrap().0, "error");
            let snapshot = registry.snapshot();
            assert!(
                snapshot.counter_value("sse_streams_total", &[("outcome", "ok")]) > ok_before,
                "ok outcome not counted"
            );
            assert!(
                snapshot.counter_value("sse_streams_total", &[("outcome", "error")]) > err_before,
                "error outcome not counted"
            );
            server.shutdown();
        }
    }
}
