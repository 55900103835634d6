//! Per-connection state for the event loop: the readiness-driven state
//! machine's data and the incremental request parser.
//!
//! The parser consumes from a growing input buffer, one read at a time,
//! and leaves the request limits and framing rules to
//! [`parse_head`]/[`body_len`].

use crate::edge::outbox::Outbox;
use crate::edge::poller::Interest;
use crate::http::{body_len, parse_head, HttpError, Request, MAX_HEAD_BYTES};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Accumulating request bytes (or idle between keep-alive requests).
    Reading,
    /// A parsed request is with the dispatch workers; response bytes and
    /// SSE frames arrive through the outbox.
    Dispatched,
    /// A loop-generated response (parse error, 408, queue shed) is
    /// flushing; `keep_alive_after` decides what happens when it lands.
    Draining {
        /// Reset for another request instead of closing.
        keep_alive_after: bool,
    },
}

/// One live connection owned by the event loop.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) state: ConnState,
    /// Unparsed request bytes (keeps pipelined requests across responses).
    pub(crate) inbuf: Vec<u8>,
    /// Bytes in flight to the socket; `outpos` marks write progress.
    pub(crate) outbuf: Vec<u8>,
    pub(crate) outpos: usize,
    /// The in-flight request's outbox while `Dispatched`.
    pub(crate) outbox: Option<Arc<Outbox>>,
    pub(crate) requests_served: u32,
    /// Generation for lazy timer cancellation: bumped on every re-arm, so
    /// stale wheel entries are ignored when they fire.
    pub(crate) timer_gen: u64,
    /// Interest currently registered with the poller.
    pub(crate) interest: Interest,
    /// Whether the write side wants EPOLLOUT (partial write pending).
    pub(crate) want_writable: bool,
    /// Peer shut down its write half: current work finishes, but no more
    /// requests follow and keep-alive is off.
    pub(crate) peer_half_closed: bool,
    /// When the current read (or the connection) started; labels the
    /// latency of loop-generated error responses.
    pub(crate) read_start: Instant,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, interest: Interest) -> Conn {
        Conn {
            stream,
            state: ConnState::Reading,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            outbox: None,
            requests_served: 0,
            timer_gen: 0,
            interest,
            want_writable: false,
            peer_half_closed: false,
            read_start: Instant::now(),
        }
    }
}

/// What the incremental parser found in the buffer.
#[derive(Debug)]
pub(crate) enum ParseOutcome {
    /// Not enough bytes yet for a complete request.
    Incomplete,
    /// A full request, consumed from the buffer (pipelined successors stay).
    Request(Request),
    /// Protocol violation — answer it and close.
    Error(HttpError),
}

/// Locate the head terminator: the first `\n` followed by `\n` or `\r\n`.
/// Returns `(head_len, body_start)`.
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    for i in 0..buf.len() {
        if buf[i] != b'\n' {
            continue;
        }
        if buf.len() > i + 1 && buf[i + 1] == b'\n' {
            return Some((i + 1, i + 2));
        }
        if buf.len() > i + 2 && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
            return Some((i + 1, i + 3));
        }
    }
    None
}

/// Try to cut one complete request off the front of `inbuf`.
pub(crate) fn try_parse(inbuf: &mut Vec<u8>) -> ParseOutcome {
    let Some((head_len, body_start)) = find_head_end(inbuf) else {
        // No terminator yet: an endless header section is rejected at the
        // cap instead of buffered forever (the `+3` covers a terminator
        // split across reads).
        if inbuf.len() > MAX_HEAD_BYTES + 3 {
            return ParseOutcome::Error(HttpError::HeadersTooLarge);
        }
        return ParseOutcome::Incomplete;
    };
    if head_len > MAX_HEAD_BYTES {
        return ParseOutcome::Error(HttpError::HeadersTooLarge);
    }
    let text = String::from_utf8_lossy(&inbuf[..head_len]).into_owned();
    let head = match parse_head(&text) {
        Ok(head) => head,
        Err(e) => return ParseOutcome::Error(e),
    };
    let content_length = match body_len(&head.headers) {
        Ok(n) => n,
        Err(e) => return ParseOutcome::Error(e),
    };
    if inbuf.len() < body_start + content_length {
        return ParseOutcome::Incomplete;
    }
    let body = inbuf[body_start..body_start + content_length].to_vec();
    inbuf.drain(..body_start + content_length);
    ParseOutcome::Request(Request {
        method: head.method,
        path: head.path,
        query: head.query,
        headers: head.headers,
        body,
        http11: head.http11,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Method;

    #[test]
    fn parses_incrementally_byte_by_byte() {
        let raw = b"POST /api/query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let mut inbuf = Vec::new();
        for (i, b) in raw.iter().enumerate() {
            inbuf.push(*b);
            match try_parse(&mut inbuf) {
                ParseOutcome::Incomplete => assert!(i + 1 < raw.len(), "never completed"),
                ParseOutcome::Request(req) => {
                    assert_eq!(i + 1, raw.len(), "completed early at byte {i}");
                    assert_eq!(req.method, Method::Post);
                    assert_eq!(req.path, "/api/query");
                    assert_eq!(req.body, b"body");
                    assert!(inbuf.is_empty());
                    return;
                }
                ParseOutcome::Error(e) => panic!("unexpected error at byte {i}: {e}"),
            }
        }
        panic!("request never parsed");
    }

    #[test]
    fn pipelined_requests_are_cut_one_at_a_time() {
        let mut inbuf =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\nConnection: close\r\n\r\n"
                .to_vec();
        let ParseOutcome::Request(first) = try_parse(&mut inbuf) else {
            panic!("first request should parse");
        };
        assert_eq!(first.path, "/healthz");
        assert!(first.wants_keep_alive());
        let ParseOutcome::Request(second) = try_parse(&mut inbuf) else {
            panic!("second request should parse");
        };
        assert_eq!(second.path, "/stats");
        assert!(!second.wants_keep_alive());
        assert!(inbuf.is_empty());
        assert!(matches!(try_parse(&mut inbuf), ParseOutcome::Incomplete));
    }

    #[test]
    fn bare_newline_terminators_are_accepted() {
        let mut inbuf = b"GET /healthz HTTP/1.1\nHost: x\n\n".to_vec();
        let ParseOutcome::Request(req) = try_parse(&mut inbuf) else {
            panic!("bare-\\n request should parse");
        };
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.headers["host"], "x");
    }

    #[test]
    fn header_bomb_is_cut_off_at_the_cap() {
        // An endless header line with no terminator in sight.
        let mut inbuf = vec![b'a'; MAX_HEAD_BYTES + 16];
        match try_parse(&mut inbuf) {
            ParseOutcome::Error(HttpError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }
        // A terminated head that is simply too large.
        let mut inbuf = format!(
            "GET /x HTTP/1.1\r\nX-Bomb: {}\r\n\r\n",
            "b".repeat(MAX_HEAD_BYTES)
        )
        .into_bytes();
        match try_parse(&mut inbuf) {
            ParseOutcome::Error(HttpError::HeadersTooLarge) => {}
            other => panic!("expected HeadersTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn malformed_content_length_is_a_parse_error() {
        let mut inbuf = b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec();
        match try_parse(&mut inbuf) {
            ParseOutcome::Error(HttpError::Malformed(msg)) => {
                assert!(msg.contains("content-length"), "{msg}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn oversized_declared_body_is_rejected() {
        let mut inbuf = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            crate::http::MAX_BODY_BYTES + 1
        )
        .into_bytes();
        match try_parse(&mut inbuf) {
            ParseOutcome::Error(HttpError::BodyTooLarge) => {}
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn waits_for_full_body() {
        let mut inbuf = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf".to_vec();
        assert!(matches!(try_parse(&mut inbuf), ParseOutcome::Incomplete));
        inbuf.extend_from_slice(b"-body!");
        let ParseOutcome::Request(req) = try_parse(&mut inbuf) else {
            panic!("completed body should parse");
        };
        assert_eq!(req.body, b"half-body!");
    }
}
