//! A small HTTP/1.1 client: one keep-alive connection per load thread, an
//! incremental response parser that also understands the server's SSE
//! streams, and transparent reconnects.
//!
//! The server answers every SSE request with `Connection: close`, and closes
//! a keep-alive connection after its request cap; both look the same here —
//! the next request opens a new connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One SSE frame: the `event:` name and the joined `data:` lines.
#[derive(Debug, Clone, PartialEq)]
pub struct SseFrame {
    pub event: String,
    pub data: String,
}

/// Incremental parser for one HTTP response. Feed it whatever the socket
/// returned; it does not care where reads split the bytes.
#[derive(Debug, Default)]
pub struct Parser {
    buf: Vec<u8>,
    /// Offset of the first body byte once the head has been parsed.
    body_start: Option<usize>,
    /// Offset up to which the SSE body has been split into frames.
    sse_cursor: usize,
    pub status: u16,
    pub keep_alive: bool,
    content_length: Option<usize>,
    pub is_sse: bool,
    pub frames: Vec<SseFrame>,
    complete: bool,
}

#[derive(Debug, PartialEq)]
pub enum ParseError {
    BadHead(String),
    /// The peer closed before the response was complete.
    Truncated,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHead(why) => write!(f, "bad response head: {why}"),
            ParseError::Truncated => write!(f, "connection closed mid-response"),
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Parser {
    /// Whether the whole response has arrived. An SSE response is whole when
    /// its terminal `result` or `error` frame has.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    pub fn bytes(&self) -> usize {
        self.buf.len()
    }

    /// Number of `event: chunk` frames seen so far.
    pub fn chunk_frames(&self) -> usize {
        self.frames.iter().filter(|f| f.event == "chunk").count()
    }

    /// The body of a non-streaming response.
    pub fn body(&self) -> &[u8] {
        self.body_start.map_or(&[], |s| &self.buf[s..])
    }

    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), ParseError> {
        self.buf.extend_from_slice(bytes);
        if self.body_start.is_none() {
            let Some(end) = find(&self.buf, b"\r\n\r\n") else {
                return Ok(());
            };
            self.parse_head(end)?;
            self.body_start = Some(end + 4);
            self.sse_cursor = end + 4;
        }
        if self.is_sse {
            self.split_frames();
        } else {
            let have = self.buf.len() - self.body_start.unwrap_or(0);
            self.complete = have >= self.content_length.unwrap_or(0);
        }
        Ok(())
    }

    /// The peer closed the connection.
    pub fn feed_eof(&mut self) -> Result<(), ParseError> {
        if self.complete {
            Ok(())
        } else {
            Err(ParseError::Truncated)
        }
    }

    fn parse_head(&mut self, end: usize) -> Result<(), ParseError> {
        let head = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        self.status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ParseError::BadHead(format!("status line {status_line:?}")))?;
        self.keep_alive = true;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    self.content_length =
                        Some(value.parse().map_err(|_| {
                            ParseError::BadHead(format!("content-length {value:?}"))
                        })?);
                }
                "connection" => self.keep_alive = !value.eq_ignore_ascii_case("close"),
                "content-type" => self.is_sse = value.starts_with("text/event-stream"),
                _ => {}
            }
        }
        Ok(())
    }

    fn split_frames(&mut self) {
        while let Some(len) = find(&self.buf[self.sse_cursor..], b"\n\n") {
            let text = String::from_utf8_lossy(&self.buf[self.sse_cursor..self.sse_cursor + len]);
            let mut frame = SseFrame {
                event: String::new(),
                data: String::new(),
            };
            for line in text.lines() {
                if let Some(name) = line.strip_prefix("event: ") {
                    frame.event = name.to_owned();
                } else if let Some(data) = line.strip_prefix("data: ") {
                    if !frame.data.is_empty() {
                        frame.data.push('\n');
                    }
                    frame.data.push_str(data);
                }
            }
            self.sse_cursor += len + 2;
            if frame.event == "result" || frame.event == "error" {
                self.complete = true;
            }
            self.frames.push(frame);
        }
    }
}

/// Render one request. `headers` are extra `Name: value` pairs.
pub fn render_request(method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Vec<u8> {
    let mut out = format!("{method} {path} HTTP/1.1\r\nHost: llmms\r\n");
    for (name, value) in headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    if !body.is_empty() {
        out.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    out.push_str("\r\n");
    out.push_str(body);
    out.into_bytes()
}

/// A finished exchange.
pub struct Reply {
    pub parsed: Parser,
    /// When the read that delivered the first `chunk` frame returned.
    pub first_chunk_at: Option<Instant>,
    /// When the read that completed the response returned.
    pub done_at: Instant,
}

/// One client connection that reconnects when the server has closed it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Connections opened so far (1 when keep-alive never broke).
    pub connects: u64,
}

const IO_TIMEOUT: Duration = Duration::from_secs(20);

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            connects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        self.connects += 1;
        Ok(stream)
    }

    /// Send `request` and read the whole response.
    ///
    /// A reused connection may have been closed by the server since the last
    /// reply (request cap, idle timeout). That shows as a failed write or an
    /// end of stream before any response byte, and is retried once on a new
    /// connection; nothing the server started can be lost that way.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        if let Some(stream) = self.stream.take() {
            match self.exchange_on(stream, request) {
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => {}
                other => return other,
            }
        }
        let stream = self.connect()?;
        self.exchange_on(stream, request)
    }

    /// One exchange on `stream`, which is kept for the next one when the
    /// server allows. `ConnectionAborted` means the connection was already
    /// dead and the request never reached the server.
    fn exchange_on(&mut self, mut stream: TcpStream, request: &[u8]) -> io::Result<Reply> {
        let stale = |e: io::Error| io::Error::new(io::ErrorKind::ConnectionAborted, e);
        stream.write_all(request).map_err(stale)?;
        let mut parsed = Parser::default();
        let mut first_chunk_at = None;
        let mut chunk = [0u8; 16 * 1024];
        let done_at = loop {
            let n = match stream.read(&mut chunk) {
                Ok(n) => n,
                Err(e) if parsed.bytes() == 0 && e.kind() == io::ErrorKind::ConnectionReset => {
                    return Err(stale(e));
                }
                Err(e) => return Err(e),
            };
            let now = Instant::now();
            if n == 0 {
                if parsed.bytes() == 0 {
                    return Err(stale(io::ErrorKind::UnexpectedEof.into()));
                }
                parsed
                    .feed_eof()
                    .map_err(|e| io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()))?;
                break now;
            }
            parsed
                .feed(&chunk[..n])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if first_chunk_at.is_none() && parsed.chunk_frames() > 0 {
                first_chunk_at = Some(now);
            }
            if parsed.is_complete() {
                break now;
            }
        };
        if parsed.keep_alive {
            self.stream = Some(stream);
        }
        Ok(Reply {
            parsed,
            first_chunk_at,
            done_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const JSON: &[u8] = b"HTTP/1.1 201 Created\r\nContent-Type: application/json\r\nContent-Length: 18\r\nConnection: keep-alive\r\n\r\n{\"id\":\"session-1\"}";

    const SSE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n\
event: trace\ndata: {\"trace_id\":\"ab\"}\n\n\
event: chunk\ndata: {\"ModelChunk\":{\"text\":\"No,\"}}\n\n\
event: chunk\ndata: {\"ModelChunk\":{\"text\":\" bats\"}}\n\n\
event: finished\ndata: {\"Finished\":{\"total_tokens\":40,\"winner\":\"llama3-8b\"}}\n\n\
event: result\ndata: {\"best\":0}\n\n";

    fn feed_in_pieces(bytes: &[u8], piece: usize) -> Parser {
        let mut p = Parser::default();
        for part in bytes.chunks(piece) {
            assert!(!p.is_complete(), "complete before the last piece");
            p.feed(part).unwrap();
        }
        p
    }

    #[test]
    fn json_response_parses_across_any_split() {
        for piece in [1, 2, 3, 7, 19, 64, JSON.len()] {
            let p = feed_in_pieces(JSON, piece);
            assert!(p.is_complete(), "piece {piece}");
            assert_eq!(p.status, 201);
            assert!(p.keep_alive);
            assert!(!p.is_sse);
            assert_eq!(p.body(), b"{\"id\":\"session-1\"}");
        }
    }

    #[test]
    fn sse_response_parses_across_any_split() {
        for piece in [1, 2, 5, 13, 50, SSE.len()] {
            let p = feed_in_pieces(SSE, piece);
            assert!(p.is_complete(), "piece {piece}");
            assert_eq!(p.status, 200);
            assert!(!p.keep_alive);
            assert!(p.is_sse);
            let events: Vec<&str> = p.frames.iter().map(|f| f.event.as_str()).collect();
            assert_eq!(events, ["trace", "chunk", "chunk", "finished", "result"]);
            assert_eq!(p.chunk_frames(), 2);
            assert_eq!(p.frames[4].data, "{\"best\":0}");
        }
    }

    #[test]
    fn first_chunk_is_visible_before_the_stream_ends() {
        let cut = find(SSE, b"event: chunk").unwrap() + 50;
        let mut p = Parser::default();
        p.feed(&SSE[..cut]).unwrap();
        assert_eq!(p.chunk_frames(), 1);
        assert!(!p.is_complete());
        assert_eq!(p.feed_eof(), Err(ParseError::Truncated));
    }

    #[test]
    fn multi_line_data_and_bad_heads() {
        let mut p = Parser::default();
        p.feed(b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\nevent: error\ndata: a\ndata: b\n\n")
            .unwrap();
        assert!(p.is_complete());
        assert_eq!(p.frames[0].data, "a\nb");
        let mut bad = Parser::default();
        assert!(matches!(
            bad.feed(b"garbage\r\n\r\n"),
            Err(ParseError::BadHead(_))
        ));
    }

    #[test]
    fn request_rendering() {
        let r = render_request("POST", "/api/query", &[("X-LLMMS-Tenant", "t1")], "{}");
        assert_eq!(
            String::from_utf8(r).unwrap(),
            "POST /api/query HTTP/1.1\r\nHost: llmms\r\nX-LLMMS-Tenant: t1\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
        );
        let g = render_request("GET", "/healthz", &[], "");
        assert_eq!(g, b"GET /healthz HTTP/1.1\r\nHost: llmms\r\n\r\n");
    }
}
