//! [`llmms_server::AppService`] implementation for [`Platform`] — the wiring
//! that puts the assembled platform behind the HTTP application layer.

use crate::platform::{AskOptions, Platform, PlatformError};
use llmms_core::{EventSink, OrchestrationResult, OrchestratorError, Strategy};
use llmms_models::{ModelInfo, UtilizationReport};
use llmms_server::{AppService, QueryContext, QueryRequest, ServiceError};
use serde_json::json;

/// Map a platform failure to the HTTP status it should surface as: a pool
/// where every model failed is a bad gateway (502), an expired query
/// deadline a gateway timeout (504), a missing session a 404, everything
/// else a client error (400).
fn service_error(e: PlatformError) -> ServiceError {
    match &e {
        PlatformError::Orchestrator(OrchestratorError::AllModelsFailed) => {
            ServiceError::bad_gateway(e.to_string())
        }
        PlatformError::Orchestrator(OrchestratorError::DeadlineExceeded) => {
            ServiceError::gateway_timeout(e.to_string())
        }
        PlatformError::Session(_) => ServiceError::not_found(e.to_string()),
        _ => ServiceError::bad_request(e.to_string()),
    }
}

impl AppService for Platform {
    fn query(
        &self,
        request: &QueryRequest,
        ctx: &QueryContext,
        sink: Option<Box<dyn EventSink>>,
    ) -> Result<OrchestrationResult, ServiceError> {
        let options = AskOptions {
            session_id: request.session_id.clone(),
            top_k: request.top_k,
            document_id: request.document_id.clone(),
            deadline_ms: ctx.deadline_ms,
            brownout_level: ctx.brownout_level,
            tenant: Some(ctx.tenant.clone()),
            priority: ctx.priority,
            ..Default::default()
        };
        let result = match sink {
            Some(sink) => self.ask_streaming(&request.question, &options, sink),
            None => self.ask_with(&request.question, &options),
        };
        result.map_err(service_error)
    }

    fn ingest(&self, document_id: &str, text: &str) -> Result<usize, String> {
        self.ingest_document(document_id, text)
            .map_err(|e| e.to_string())
    }

    fn list_models(&self) -> Vec<ModelInfo> {
        self.models().iter().map(|m| m.info()).collect()
    }

    fn hardware(&self) -> UtilizationReport {
        self.registry().hardware().report()
    }

    fn create_session(&self) -> String {
        self.sessions().create().read().id.clone()
    }

    fn list_sessions(&self) -> Vec<(String, String)> {
        self.sessions().list()
    }

    fn delete_session(&self, id: &str) -> Result<(), String> {
        self.sessions().delete(id).map_err(|e| e.to_string())
    }

    fn configure(&self, strategy: Option<&str>, token_budget: Option<usize>) -> Result<(), String> {
        let mut config = self.orchestrator_config();
        if let Some(name) = strategy {
            config.strategy = Strategy::from_name(name)
                .ok_or_else(|| format!("unknown strategy {name:?} (use oua|mab|hybrid|single)"))?;
        }
        if let Some(budget) = token_budget {
            if budget == 0 {
                return Err("token_budget must be positive".into());
            }
            config.token_budget = budget;
        }
        self.set_orchestrator_config(config);
        Ok(())
    }

    fn config_json(&self) -> serde_json::Value {
        let config = self.orchestrator_config();
        json!({
            "strategy": config.strategy.name(),
            "strategy_label": config.strategy.label(),
            "token_budget": config.token_budget,
            "temperature": config.temperature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmms_server::{client, Server};
    use std::sync::Arc;

    fn server() -> Server {
        Server::start(Arc::new(Platform::evaluation_default()), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn full_platform_query_over_http() {
        let s = server();
        let r = client::request(
            s.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"What is the capital of France?"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 200, "body: {}", r.body);
        let v = r.json().unwrap();
        assert_eq!(v["strategy"], "LLM-MS OUA");
        assert!(!v["outcomes"][0]["response"].as_str().unwrap().is_empty());
        s.shutdown();
    }

    #[test]
    fn full_platform_streaming_over_http() {
        let s = server();
        let events = client::sse_request(
            s.addr(),
            "/api/query",
            r#"{"question":"What is the capital of France?","stream":true}"#,
        )
        .unwrap();
        assert!(events.iter().any(|(e, _)| e == "chunk"));
        assert_eq!(events.last().unwrap().0, "result");
        s.shutdown();
    }

    #[test]
    fn strategy_switch_over_http() {
        let s = server();
        let r = client::request(
            s.addr(),
            "POST",
            "/api/config",
            Some(r#"{"strategy":"mab","token_budget":512}"#),
        )
        .unwrap();
        assert_eq!(r.status, 200);
        let v = r.json().unwrap();
        assert_eq!(v["strategy"], "mab");
        assert_eq!(v["token_budget"], 512);
        let r = client::request(
            s.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"What is the capital of France?"}"#),
        )
        .unwrap();
        assert_eq!(r.json().unwrap()["strategy"], "LLM-MS MAB");
        s.shutdown();
    }

    #[test]
    fn rag_ingest_then_query_over_http() {
        let s = server();
        let r = client::request(
            s.addr(),
            "POST",
            "/api/ingest",
            Some(
                r#"{"document_id":"zorblax","text":"The capital of the land of Zorblax is the crystal city of Vantar."}"#,
            ),
        )
        .unwrap();
        assert_eq!(r.status, 201);
        let r = client::request(
            s.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"What is the capital of Zorblax?","top_k":3}"#),
        )
        .unwrap();
        assert_eq!(r.status, 200);
        // A `top_k` far beyond the store is clamped, not allocated.
        let r = client::request(
            s.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"What is the capital of Zorblax?","top_k":1000000000000}"#),
        )
        .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let r = client::request(s.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(r.status, 200);
        s.shutdown();
    }

    #[test]
    fn missing_session_is_404_over_http() {
        let s = server();
        let r = client::request(
            s.addr(),
            "POST",
            "/api/query",
            Some(r#"{"question":"hi","session_id":"no-such-session"}"#),
        )
        .unwrap();
        assert_eq!(r.status, 404, "body: {}", r.body);
        s.shutdown();
    }

    #[test]
    fn hardware_report_over_http() {
        let s = server();
        let r = client::request(s.addr(), "GET", "/api/hardware", None).unwrap();
        let v = r.json().unwrap();
        assert_eq!(v["total_vram_gb"], 32.0);
        assert_eq!(v["gpu_residents"].as_array().unwrap().len(), 3);
        s.shutdown();
    }
}
