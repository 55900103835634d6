//! A minimal HTTP/1.1 implementation over `std::net` — request parsing and
//! response writing, just enough to serve the platform's REST+SSE API
//! without an external web framework.
//!
//! The head parser ([`parse_head`]) is shared between the blocking
//! [`read_request`] used by the thread-pool transport and the incremental
//! buffer-at-a-time parser in the edge module, so both transports enforce
//! identical request limits and keep-alive semantics.

use std::collections::HashMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Maximum accepted request body, 8 MiB (file uploads are text documents).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Maximum accepted request head (request line + all header lines). A
/// client streaming an endless header section is answered 431 once it
/// crosses this, instead of inflating memory one `read_line` at a time.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;

/// Maximum number of request headers (431 beyond it).
pub const MAX_HEADERS: usize = 128;

/// HTTP method of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET
    Get,
    /// POST
    Post,
    /// DELETE
    Delete,
    /// Anything else (rejected with 405).
    Other,
}

impl Method {
    fn parse(s: &str) -> Method {
        match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "DELETE" => Method::Delete,
            _ => Method::Other,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Whether the request line declared HTTP/1.1 (governs keep-alive
    /// default: 1.1 keeps the connection unless `Connection: close`).
    pub http11: bool,
}

impl Request {
    /// Body as UTF-8 (lossy).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the client is willing to reuse the connection for another
    /// request: HTTP/1.1 without `Connection: close`. HTTP/1.0 (or a
    /// missing version token) defaults to close.
    pub fn wants_keep_alive(&self) -> bool {
        self.http11
            && self
                .headers
                .get("connection")
                .map_or(true, |v| !v.eq_ignore_ascii_case("close"))
    }
}

/// Errors while reading a request.
#[derive(Debug)]
pub enum HttpError {
    /// Connection-level I/O failure.
    Io(std::io::Error),
    /// The request line or headers were malformed.
    Malformed(String),
    /// Body exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// Request head exceeded [`MAX_HEAD_BYTES`] or [`MAX_HEADERS`]
    /// (mapped to 431).
    HeadersTooLarge,
    /// The client did not deliver a complete request within the socket read
    /// timeout (mapped to 408).
    Timeout,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::HeadersTooLarge => write!(f, "request header section too large"),
            HttpError::Timeout => write!(f, "timed out reading request"),
        }
    }
}

impl HttpError {
    /// The HTTP status this read failure is answered with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BodyTooLarge => 413,
            HttpError::HeadersTooLarge => 431,
            HttpError::Timeout => 408,
            _ => 400,
        }
    }
}

/// Classify an I/O failure: socket-timeout kinds become
/// [`HttpError::Timeout`], everything else stays [`HttpError::Io`].
fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

impl std::error::Error for HttpError {}

/// A parsed request head: everything before the body.
#[derive(Debug)]
pub struct Head {
    /// Request method.
    pub method: Method,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Whether the request line declared HTTP/1.1.
    pub http11: bool,
}

/// Parse a complete request head (request line plus header lines, without
/// the terminating blank line). Shared by the blocking reader and the
/// event-driven edge's incremental parser.
///
/// # Errors
///
/// Malformed request lines/headers, more than [`MAX_HEADERS`] headers.
pub fn parse_head(text: &str) -> Result<Head, HttpError> {
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = Method::parse(parts.next().unwrap_or(""));
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    // A missing version token (HTTP/0.9-style) defaults to close semantics.
    let http11 = parts.next().map_or(true, |v| v == "HTTP/1.1");
    let (path, query) = split_target(target);

    let mut headers = HashMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::HeadersTooLarge);
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_lowercase(), value.trim().to_owned());
        } else {
            return Err(HttpError::Malformed(format!("bad header {line:?}")));
        }
    }
    Ok(Head {
        method,
        path,
        query,
        headers,
        http11,
    })
}

/// The declared body length of a request with the given headers.
///
/// A missing `Content-Length` means no body. A *present but unparseable*
/// value (non-numeric, negative, overflowing) is a hard protocol error:
/// treating it as "no body" would silently desynchronize request framing,
/// with the unread body bytes waiting to be misread as the next request.
///
/// # Errors
///
/// [`HttpError::Malformed`] on an unparseable value,
/// [`HttpError::BodyTooLarge`] beyond [`MAX_BODY_BYTES`].
pub fn body_len(headers: &HashMap<String, String>) -> Result<usize, HttpError> {
    let Some(raw) = headers.get("content-length") else {
        return Ok(0);
    };
    let len: usize = raw
        .trim()
        .parse()
        .map_err(|_| HttpError::Malformed(format!("bad content-length {raw:?}")))?;
    if len > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }
    Ok(len)
}

/// Read and parse one request from `stream`.
///
/// # Errors
///
/// I/O failures, malformed request lines/headers, oversized heads or
/// bodies.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream.try_clone().map_err(HttpError::Io)?);
    // Accumulate the head line by line under a total-bytes cap; the cap
    // bounds the request line and each header line as a side effect.
    let mut head = Vec::new();
    loop {
        let start = head.len();
        let budget = (MAX_HEAD_BYTES + 2).saturating_sub(start) as u64;
        let n = reader
            .by_ref()
            .take(budget)
            .read_until(b'\n', &mut head)
            .map_err(io_error)?;
        if n == 0 {
            break; // EOF — parse whatever arrived
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
        let line = &head[start..];
        if line == b"\r\n" || line == b"\n" {
            head.truncate(start); // blank line terminates the head
            break;
        }
    }
    let text = String::from_utf8_lossy(&head).into_owned();
    let head = parse_head(&text)?;
    let content_length = body_len(&head.headers)?;
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(io_error)?;
    }

    Ok(Request {
        method: head.method,
        path: head.path,
        query: head.query,
        headers: head.headers,
        body,
        http11: head.http11,
    })
}

fn split_target(target: &str) -> (String, HashMap<String, String>) {
    match target.split_once('?') {
        None => (target.to_owned(), HashMap::new()),
        Some((path, qs)) => {
            let mut query = HashMap::new();
            for pair in qs.split('&') {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                query.insert(url_decode(k), url_decode(v));
            }
            (path.to_owned(), query)
        }
    }
}

/// Percent-decoding plus `+` → space.
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                if i + 2 < bytes.len() {
                    let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                    if let Ok(byte) = u8::from_str_radix(hex, 16) {
                        out.push(byte);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Where a response goes: a plain socket (thread-pool transport, always
/// `Connection: close`) or an edge connection outbox, which negotiated
/// keep-alive per request. Response writers consult [`keep_alive`] so the
/// `Connection` header always matches what the transport will actually do.
///
/// [`keep_alive`]: ResponseSink::keep_alive
pub trait ResponseSink: Write {
    /// Whether the transport intends to keep the connection open after
    /// this response.
    fn keep_alive(&self) -> bool {
        false
    }

    /// Called before an SSE header goes out: the response has no content
    /// length, so the connection must close when the stream ends. Sinks
    /// that negotiate keep-alive revoke it here; the default (always
    /// `Connection: close`) has nothing to revoke.
    fn mark_streaming(&mut self) {}
}

impl ResponseSink for TcpStream {}

/// Render a complete response head + body into bytes (and count it in
/// `http_responses_total`). The edge event loop uses this directly to
/// queue loop-side error responses without a writer.
pub fn render_response(
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    keep_alive: bool,
    body: &[u8],
) -> Vec<u8> {
    let registry = llmms_obs::Registry::global();
    if registry.enabled() {
        registry
            .counter_with("http_responses_total", &[("status", &status.to_string())])
            .metric
            .inc();
    }
    let reason = reason_phrase(status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut out = Vec::with_capacity(body.len() + 256);
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

/// Write a complete response with the given status, content type and body.
///
/// # Errors
///
/// I/O failures.
pub fn write_response<S: ResponseSink + ?Sized>(
    sink: &mut S,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_with(sink, status, content_type, &[], body)
}

/// Like [`write_response`] with additional response headers (e.g.
/// `Retry-After` on a 503).
///
/// # Errors
///
/// I/O failures.
pub fn write_response_with<S: ResponseSink + ?Sized>(
    sink: &mut S,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let keep_alive = sink.keep_alive();
    let bytes = render_response(status, content_type, extra_headers, keep_alive, body);
    sink.write_all(&bytes)?;
    sink.flush()
}

/// Write the header block of a streaming (SSE) response; the caller then
/// writes events directly. SSE streams always end by closing the
/// connection (the stream has no content length).
///
/// # Errors
///
/// I/O failures.
pub fn write_sse_header<S: ResponseSink + ?Sized>(sink: &mut S) -> std::io::Result<()> {
    write!(
        sink,
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n"
    )?;
    sink.flush()
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_decode_basics() {
        assert_eq!(url_decode("a+b"), "a b");
        assert_eq!(url_decode("caf%C3%A9"), "café");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(url_decode("bad%2"), "bad%2");
        assert_eq!(url_decode("%zz"), "%zz");
    }

    #[test]
    fn split_target_parses_query() {
        let (path, query) = split_target("/api/query?k=3&q=hello+world");
        assert_eq!(path, "/api/query");
        assert_eq!(query["k"], "3");
        assert_eq!(query["q"], "hello world");
        let (path, query) = split_target("/plain");
        assert_eq!(path, "/plain");
        assert!(query.is_empty());
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(reason_phrase(200), "OK");
        assert_eq!(reason_phrase(404), "Not Found");
        assert_eq!(reason_phrase(429), "Too Many Requests");
        assert_eq!(reason_phrase(431), "Request Header Fields Too Large");
        assert_eq!(reason_phrase(599), "Unknown");
    }

    /// Spawn a listener that reads one request and returns the parse result
    /// plus whatever `respond` wrote; send `raw` from a client.
    fn exchange(raw: &str) -> Result<Request, HttpError> {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream)
        });
        let mut client = TcpStream::connect(addr).unwrap();
        // Best-effort: a server that rejects mid-upload (header bomb) may
        // reset the connection while the client is still sending.
        let _ = client.write_all(raw.as_bytes());
        let _ = client.shutdown(std::net::Shutdown::Write);
        server.join().unwrap()
    }

    #[test]
    fn oversized_body_is_rejected() {
        let raw = format!(
            "POST /api/ingest HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match exchange(&raw) {
            Err(HttpError::BodyTooLarge) => {}
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
        // Exactly at the limit is still accepted (header-wise; body absent
        // here so the read fails as I/O, not as BodyTooLarge).
        let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        match exchange(&raw) {
            Err(HttpError::Io(_)) => {}
            other => panic!("expected truncated-body I/O error, got {other:?}"),
        }
    }

    #[test]
    fn header_bomb_is_rejected_431() {
        // One header line stretching past the head cap: rejected without
        // buffering the endless line.
        let raw = format!(
            "GET /x HTTP/1.1\r\nX-Bomb: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        match exchange(&raw) {
            Err(HttpError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }
        // Many small headers crossing the total-bytes cap.
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..4096 {
            raw.push_str(&format!("X-Filler-{i}: {}\r\n", "v".repeat(24)));
        }
        raw.push_str("\r\n");
        match exchange(&raw) {
            Err(HttpError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }
        // An endless request that never even sends a newline must also be
        // cut off at the cap instead of buffered forever.
        let raw = "G".repeat(MAX_HEAD_BYTES + 1024);
        match exchange(&raw) {
            Err(HttpError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn too_many_headers_is_rejected_431() {
        // Under the byte cap but over the header-count cap.
        let mut raw = String::from("GET /x HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        match exchange(&raw) {
            Err(HttpError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn malformed_content_length_is_rejected_not_defaulted() {
        for bad in ["banana", "-1", "1e9", "99999999999999999999999999", "0x10"] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nbody");
            match exchange(&raw) {
                Err(HttpError::Malformed(msg)) => {
                    assert!(msg.contains("content-length"), "{bad}: {msg}")
                }
                other => panic!("Content-Length {bad:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_request_line_is_rejected() {
        match exchange("GET\r\n\r\n") {
            Err(HttpError::Malformed(msg)) => assert!(msg.contains("request target"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
        match exchange("GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n") {
            Err(HttpError::Malformed(msg)) => assert!(msg.contains("bad header"), "{msg}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn unknown_method_parses_as_other() {
        let req = exchange("PATCH /api/config HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Other);
        assert_eq!(req.path, "/api/config");
    }

    #[test]
    fn keep_alive_negotiation() {
        let req = exchange("GET /x HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        assert!(req.http11);
        assert!(req.wants_keep_alive(), "1.1 defaults to keep-alive");
        let req = exchange("GET /x HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = exchange("GET /x HTTP/1.0\r\nHost: t\r\n\r\n").unwrap();
        assert!(!req.http11);
        assert!(!req.wants_keep_alive(), "1.0 defaults to close");
    }

    #[test]
    fn missing_content_length_on_post_reads_empty_body() {
        // Without Content-Length the body is treated as absent — handlers
        // then reject the empty JSON body with a 400 of their own.
        let req =
            exchange("POST /api/query HTTP/1.1\r\nHost: t\r\n\r\n{\"question\":\"q\"}").unwrap();
        assert_eq!(req.method, Method::Post);
        assert!(req.body.is_empty());
        assert_eq!(req.headers.get("content-length"), None);
    }

    #[test]
    fn render_response_connection_header_tracks_keep_alive() {
        let bytes = render_response(200, "application/json", &[], true, b"{}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        let bytes = render_response(200, "application/json", &[], false, b"{}");
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("Connection: close\r\n"), "{text}");
    }

    #[test]
    fn request_roundtrip_over_loopback() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, Method::Post);
            assert_eq!(req.path, "/api/echo");
            assert_eq!(req.body_str(), "{\"x\":1}");
            assert_eq!(req.headers["content-type"], "application/json");
            write_response(&mut stream, 200, "application/json", b"{\"ok\":true}").unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        write!(
            client,
            "POST /api/echo HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{{\"x\":1}}"
        )
        .unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"));
        assert!(response.ends_with("{\"ok\":true}"));
        server.join().unwrap();
    }
}
