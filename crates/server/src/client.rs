//! A tiny blocking HTTP client used by tests and examples to talk to the
//! server (no external HTTP crate in the workspace).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed client-side response.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Response headers in wire order.
    pub headers: Vec<(String, String)>,
    /// Raw body (after the blank line).
    pub body: String,
}

impl ClientResponse {
    /// Parse the body as JSON.
    ///
    /// # Errors
    ///
    /// JSON decoding failures.
    pub fn json(&self) -> Result<serde_json::Value, serde_json::Error> {
        serde_json::from_str(&self.body)
    }

    /// First header value matching `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Issue one request and read the whole response. The client sends
/// `Connection: close` so that reading to EOF terminates even against the
/// keep-alive edge transport.
///
/// # Errors
///
/// Connection and I/O failures, or an unparsable status line.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    request_with_headers(addr, method, path, &[], body)
}

/// [`request`] with extra request headers (e.g. `X-LLMMS-Trace-Id` so a
/// federated sub-call joins the caller's trace).
///
/// # Errors
///
/// Connection and I/O failures, or an unparsable status line.
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    request_with_timeouts(addr, method, path, headers, body, None, None)
}

/// [`request_with_headers`] with explicit connect and read timeouts, so a
/// hung or black-holed peer surfaces as a prompt I/O error instead of
/// stalling the calling thread indefinitely. `None` keeps the OS default
/// (blocking without limit).
///
/// # Errors
///
/// Connection and I/O failures (including `TimedOut`/`WouldBlock` when a
/// timeout fires), or an unparsable status line.
pub fn request_with_timeouts(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
    connect_timeout: Option<Duration>,
    read_timeout: Option<Duration>,
) -> std::io::Result<ClientResponse> {
    let mut stream = match connect_timeout {
        Some(limit) => TcpStream::connect_timeout(&addr, limit)?,
        None => TcpStream::connect(addr)?,
    };
    stream.set_read_timeout(read_timeout)?;
    stream.set_write_timeout(read_timeout)?;
    // One write: a peer that answers after the head must not see the body
    // arrive after it closed (the client would then read a reset).
    stream.write_all(encode_request(method, path, headers, body.unwrap_or("")).as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    parse_response(&raw)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response"))
}

/// The request head and body as one buffer, in wire order.
fn encode_request(method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> String {
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: llmms\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        request.push_str(&format!("{name}: {value}\r\n"));
    }
    request.push_str("\r\n");
    request.push_str(body);
    request
}

fn parse_response(raw: &str) -> Option<ClientResponse> {
    let status: u16 = raw.split_whitespace().nth(1)?.parse().ok()?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .map_or((raw, String::new()), |(h, b)| (h, b.to_owned()));
    let headers = head
        .lines()
        .skip(1) // status line
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_owned(), value.trim().to_owned()))
        })
        .collect();
    Some(ClientResponse {
        status,
        headers,
        body,
    })
}

/// Issue a streaming query and collect the SSE frames as
/// `(event, data)` pairs until the connection closes.
///
/// # Errors
///
/// Connection and I/O failures.
pub fn sse_request(
    addr: SocketAddr,
    path: &str,
    body: &str,
) -> std::io::Result<Vec<(String, String)>> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: llmms\r\nAccept: text/event-stream\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let payload = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    Ok(parse_sse(payload))
}

fn parse_sse(payload: &str) -> Vec<(String, String)> {
    let mut events = Vec::new();
    for block in payload.split("\n\n") {
        let mut event = String::new();
        let mut data_lines: Vec<&str> = Vec::new();
        for line in block.lines() {
            if let Some(v) = line.strip_prefix("event: ") {
                event = v.to_owned();
            } else if let Some(v) = line.strip_prefix("data: ") {
                data_lines.push(v);
            }
        }
        if !event.is_empty() {
            events.push((event, data_lines.join("\n")));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_encoded_as_one_buffer() {
        let request = encode_request(
            "POST",
            "/api/generate",
            &[("X-LLMMS-Trace-Id", "00ff"), ("X-LLMMS-Deadline-Ms", "250")],
            r#"{"prompt":"hi"}"#,
        );
        assert_eq!(
            request,
            "POST /api/generate HTTP/1.1\r\n\
             Host: llmms\r\n\
             Connection: close\r\n\
             Content-Type: application/json\r\n\
             Content-Length: 15\r\n\
             X-LLMMS-Trace-Id: 00ff\r\n\
             X-LLMMS-Deadline-Ms: 250\r\n\
             \r\n\
             {\"prompt\":\"hi\"}"
        );
        assert_eq!(
            encode_request("GET", "/healthz", &[], ""),
            "GET /healthz HTTP/1.1\r\nHost: llmms\r\nConnection: close\r\n\
             Content-Type: application/json\r\nContent-Length: 0\r\n\r\n"
        );
    }

    #[test]
    fn parse_response_extracts_status_and_body() {
        let r = parse_response("HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(r.status, 201);
        assert_eq!(r.body, "{}");
        assert_eq!(r.header("content-length"), Some("2"), "case-insensitive");
        assert_eq!(r.header("Retry-After"), None);
        assert!(parse_response("garbage").is_none());
    }

    #[test]
    fn parse_sse_splits_frames() {
        let payload =
            "event: chunk\ndata: {\"a\":1}\n\nevent: result\ndata: line1\ndata: line2\n\n";
        let events = parse_sse(payload);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], ("chunk".into(), "{\"a\":1}".into()));
        assert_eq!(events[1], ("result".into(), "line1\nline2".into()));
    }
}
