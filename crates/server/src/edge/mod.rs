//! The event-driven serving edge: a nonblocking epoll loop that owns
//! every connection, with request handling on a small dispatch pool.
//!
//! One loop thread multiplexes all sockets through [`poller::Poller`]
//! (level-triggered epoll). Per connection, a [`conn::Conn`] state machine
//! moves Reading → Dispatched → (Draining) → Reading/closed: the loop
//! parses requests incrementally, hands complete ones to
//! [`ServerConfig::worker_threads`] dispatch workers over a bounded
//! channel, and drains each response from a bounded [`outbox::Outbox`] to
//! the socket as writability allows. A slow or idle client therefore
//! costs one fd plus a few KiB of buffer — never a thread — which is what
//! lifts concurrent SSE streams from `worker_threads` to the fd limit.
//!
//! Deadlines (idle, slowloris read, client write-stall) live on a hashed
//! [`timer::TimerWheel`]; shedding happens at accept time (connection cap
//! and dispatch-queue depth, 503 + `Retry-After`) before any per-request
//! resources exist. Above the loop, a dispatch worker hands each request
//! and its [`OutboxWriter`] to [`process_parsed`], which routes it to
//! `service.rs`.

pub mod outbox;
pub mod poller;
pub mod timer;

pub(crate) mod conn;

use crate::http::{render_response, Request};
use crate::server::{
    process_parsed, record_request_tail, InFlightGuard, OverloadState, ServerConfig,
};
use crate::service::AppService;
use conn::{Conn, ConnState, ParseOutcome};
use crossbeam_channel::{Receiver, Sender, TrySendError};
use outbox::{Outbox, OutboxError};
use parking_lot::Mutex;
use poller::{Event, Interest, Poller, Waker};
use serde_json::json;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Bytes moved from an outbox into a connection's write buffer per refill.
const TAKE_CHUNK: usize = 64 * 1024;

/// Handles the transport hands back to [`crate::Server`].
pub(crate) struct EdgeParts {
    pub(crate) event_loop: JoinHandle<()>,
    pub(crate) workers: Vec<JoinHandle<()>>,
    pub(crate) waker: Arc<Waker>,
}

/// State shared between dispatch workers and the event loop: the waker
/// plus the list of connections with fresh outbox bytes to drain.
pub(crate) struct LoopShared {
    waker: Arc<Waker>,
    dirty: Mutex<Vec<u64>>,
}

impl LoopShared {
    fn notify(&self, token: u64) {
        self.dirty.lock().push(token);
        self.waker.wake();
    }
}

/// One parsed request on its way to a dispatch worker.
struct Job {
    token: u64,
    request: Request,
    outbox: Arc<Outbox>,
    keep_alive: bool,
    start: Instant,
}

/// Where dispatch workers write a response: bytes go to the connection's
/// outbox (blocking with a stall timeout when full — bounded
/// backpressure). The outbox's own notifier nudges the event loop as each
/// chunk lands, so even pushes larger than the buffer stream through.
/// Response writers consult [`OutboxWriter::keep_alive`], so the
/// `Connection` header always matches what the loop will do afterwards.
/// A clone writes into the same outbox.
#[derive(Clone)]
pub(crate) struct OutboxWriter {
    outbox: Arc<Outbox>,
    keep_alive: bool,
    stall: std::time::Duration,
    /// The response is an SSE stream (see [`OutboxWriter::mark_streaming`]).
    streaming: bool,
    /// Some response bytes were handed to the outbox.
    written: bool,
}

impl Write for OutboxWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.written |= !buf.is_empty();
        self.outbox.push(buf, self.stall).map_err(|e| match e {
            OutboxError::Closed => {
                io::Error::new(io::ErrorKind::BrokenPipe, "edge connection closed")
            }
            OutboxError::Stalled => {
                io::Error::new(io::ErrorKind::TimedOut, "client stalled, outbox full")
            }
        })?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(()) // push already notified the loop per chunk
    }
}

impl OutboxWriter {
    /// Whether the connection stays open for another request after this
    /// response.
    pub(crate) fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    /// Called before an SSE header goes out: the stream has no content
    /// length, so the connection must close when it ends.
    pub(crate) fn mark_streaming(&mut self) {
        self.keep_alive = false;
        self.streaming = true;
    }

    /// Whether [`OutboxWriter::mark_streaming`] was called.
    pub(crate) fn is_streaming(&self) -> bool {
        self.streaming
    }

    /// Whether any response bytes were written through this writer.
    pub(crate) fn has_written(&self) -> bool {
        self.written
    }

    /// Close the connection once this response drains, whatever the
    /// request asked for.
    pub(crate) fn close_after(&mut self) {
        self.keep_alive = false;
    }
}

/// Start the edge: spawn the event loop plus the dispatch worker pool.
///
/// # Errors
///
/// Poller/eventfd creation or initial registration failures.
pub(crate) fn start<S: AppService>(
    listener: TcpListener,
    service: Arc<S>,
    config: Arc<ServerConfig>,
    overload: Arc<OverloadState>,
    stop: Arc<AtomicBool>,
) -> io::Result<EdgeParts> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new()?);
    let shared = Arc::new(LoopShared {
        waker: Arc::clone(&waker),
        dirty: Mutex::new(Vec::new()),
    });
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::readable())?;
    poller.add(waker.fd(), TOKEN_WAKER, Interest::readable())?;

    let (tx, rx) = crossbeam_channel::bounded::<Job>(config.queue_depth.max(1));
    // The vendored Receiver is single-consumer; workers share it behind a
    // mutex. One idle worker parks inside recv holding the lock while its
    // peers queue on the mutex — either way exactly one waiter wakes per
    // job, and the lock is released before the job runs.
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(config.worker_threads.max(1));
    for i in 0..config.worker_threads.max(1) {
        let rx = Arc::clone(&rx);
        let service = Arc::clone(&service);
        let config = Arc::clone(&config);
        let overload = Arc::clone(&overload);
        let shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(format!("llmms-edge-{i}"))
            .spawn(move || dispatch_worker(&*service, &config, &overload, &shared, &rx))
            .expect("spawn edge dispatch worker");
        workers.push(worker);
    }

    let event_loop = {
        let state = EventLoop {
            poller,
            wheel: timer::TimerWheel::with_defaults(),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            listener,
            shared,
            tx,
            config,
            overload,
            stop,
        };
        std::thread::Builder::new()
            .name("llmms-edge-loop".into())
            .spawn(move || state.run())
            .expect("spawn edge event loop")
    };
    Ok(EdgeParts {
        event_loop,
        workers,
        waker,
    })
}

fn dispatch_worker<S: AppService>(
    service: &S,
    config: &ServerConfig,
    overload: &OverloadState,
    shared: &Arc<LoopShared>,
    rx: &Mutex<Receiver<Job>>,
) {
    loop {
        let next = rx.lock().recv();
        let Ok(job) = next else {
            break; // event loop gone and queue drained
        };
        overload.queued.fetch_sub(1, Ordering::SeqCst);
        let registry = llmms_obs::Registry::global();
        if registry.enabled() {
            registry.gauge("http_in_flight").metric.inc();
        }
        // The guard's own post-increment count is the occupancy the shed
        // decision in `process_parsed` uses.
        let (guard, occupancy) = InFlightGuard::enter(&overload.in_flight);
        let mut writer = OutboxWriter {
            outbox: Arc::clone(&job.outbox),
            keep_alive: job.keep_alive,
            stall: config.edge.write_stall_timeout,
            streaming: false,
            written: false,
        };
        process_parsed(
            service,
            overload,
            &mut writer,
            &job.request,
            occupancy,
            job.start,
        );
        drop(guard);
        // Seal the response with the final keep-alive verdict (SSE revokes
        // it via `mark_streaming`) and wake the loop for the last drain.
        job.outbox.finish(writer.keep_alive());
        shared.notify(job.token);
        if registry.enabled() {
            registry.gauge("http_in_flight").metric.dec();
        }
    }
}

/// What a pump pass decided about a connection.
enum PumpVerdict {
    /// Socket error or EOF on write — tear the connection down.
    Destroy,
    /// Partial write; wait for EPOLLOUT.
    NeedWritable,
    /// Nothing (left) to write right now.
    Idle,
    /// The in-flight response fully reached the socket.
    Complete { keep_alive: bool },
}

struct EventLoop {
    poller: Poller,
    wheel: timer::TimerWheel,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    listener: TcpListener,
    shared: Arc<LoopShared>,
    tx: Sender<Job>,
    config: Arc<ServerConfig>,
    overload: Arc<OverloadState>,
    stop: Arc<AtomicBool>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut expired: Vec<(u64, u64)> = Vec::new();
        loop {
            let timeout = self.wheel.next_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.shared.waker.drain(),
                    token => self.conn_event(token, *ev),
                }
            }
            self.drain_dirty();
            self.wheel.advance(Instant::now(), &mut expired);
            for (token, generation) in expired.drain(..) {
                self.timer_fired(token, generation);
            }
        }
        // Teardown: fail any in-flight producers so dispatch workers
        // unblock, then drop `tx` (by dropping self) so workers exit.
        let registry = llmms_obs::Registry::global();
        for (_, conn) in self.conns.drain() {
            if let Some(outbox) = &conn.outbox {
                outbox.close();
            }
            if registry.enabled() {
                registry.gauge("edge_open_connections").metric.dec();
            }
        }
    }

    fn accept_ready(&mut self) {
        let registry = llmms_obs::Registry::global();
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if registry.enabled() {
                registry.counter("edge_accepts_total").metric.inc();
            }
            // Admission at accept: the connection cap bounds fds, and a
            // full dispatch queue means more connections only add latency
            // — shed both with 503 before any per-connection state exists.
            let queue_full =
                self.overload.queued.load(Ordering::SeqCst) >= self.config.queue_depth.max(1);
            if self.conns.len() >= self.config.edge.max_conns || queue_full {
                let reason = if queue_full { "queue" } else { "conns" };
                shed_accept(stream, &self.overload, reason);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Answer-latency over throughput for small SSE frames.
            let _ = stream.set_nodelay(true);
            if let Some(bytes) = self.config.edge.so_sndbuf {
                let _ = poller::set_send_buffer(stream.as_raw_fd(), bytes);
            }
            let token = self.next_token;
            self.next_token += 1;
            let interest = Interest::readable();
            if self
                .poller
                .add(stream.as_raw_fd(), token, interest)
                .is_err()
            {
                continue;
            }
            self.conns.insert(token, Conn::new(stream, interest));
            self.arm_read_timer(token);
            if registry.enabled() {
                registry.gauge("edge_open_connections").metric.inc();
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        if !self.conns.contains_key(&token) {
            return; // stale readiness for an already-destroyed connection
        }
        if ev.error {
            self.destroy(token);
            return;
        }
        if ev.read_closed {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.peer_half_closed = true;
            }
        }
        if ev.readable || ev.read_closed {
            self.read_ready(token);
            if !self.conns.contains_key(&token) {
                return;
            }
        }
        if ev.writable {
            self.pump(token);
        } else if ev.read_closed {
            // Stop watching RDHUP now that it has been observed, or the
            // level-triggered poller re-reports it every wait.
            self.update_interest(token);
        }
    }

    fn read_ready(&mut self, token: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Reading {
                return; // mid-dispatch RDHUP delivery; nothing to read now
            }
            if conn.inbuf.is_empty() {
                conn.read_start = Instant::now();
            }
            let mut buf = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.peer_half_closed = true;
                        break;
                    }
                    Ok(n) => conn.inbuf.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.destroy(token);
            return;
        }
        self.advance_reading(token);
    }

    /// Try to cut a request out of the input buffer and move the state
    /// machine; called after reads and after a keep-alive reset (pipelined
    /// bytes may already be buffered).
    fn advance_reading(&mut self, token: u64) {
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Reading {
                return;
            }
            conn::try_parse(&mut conn.inbuf)
        };
        match outcome {
            ParseOutcome::Incomplete => {
                let half_closed = self.conns.get(&token).is_some_and(|c| c.peer_half_closed);
                if half_closed {
                    // No complete request is coming: quiet close (idle
                    // keep-alive peer) or abandoned partial request.
                    self.destroy(token);
                } else {
                    self.arm_read_timer(token);
                    self.update_interest(token);
                }
            }
            ParseOutcome::Error(e) => {
                let (status, message) = (e.status(), e.to_string());
                let read_start = self
                    .conns
                    .get(&token)
                    .map_or_else(Instant::now, |c| c.read_start);
                record_request_tail("bad_request", status, read_start, None);
                // Framing is broken; answer and close.
                self.queue_loop_response(token, status, &message, &[], false);
            }
            ParseOutcome::Request(request) => self.dispatch_request(token, request),
        }
    }

    fn dispatch_request(&mut self, token: u64, request: Request) {
        let registry = llmms_obs::Registry::global();
        let (outbox, job) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.requests_served += 1;
            let keep_alive = request.wants_keep_alive()
                && conn.requests_served < self.config.edge.max_keepalive_requests
                && !conn.peer_half_closed;
            let outbox = {
                let shared = Arc::clone(&self.shared);
                Arc::new(Outbox::with_notifier(
                    self.config.edge.outbox_capacity,
                    move || shared.notify(token),
                ))
            };
            let job = Job {
                token,
                request,
                outbox: Arc::clone(&outbox),
                keep_alive,
                start: Instant::now(),
            };
            (outbox, job)
        };
        self.overload.queued.fetch_add(1, Ordering::SeqCst);
        match self.tx.try_send(job) {
            Ok(()) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Dispatched;
                    conn.outbox = Some(outbox);
                    if conn.requests_served > 1 && registry.enabled() {
                        registry.counter("edge_keepalive_reuses_total").metric.inc();
                    }
                }
                self.arm_stall_timer(token);
                self.update_interest(token);
            }
            Err(TrySendError::Full(job)) => {
                // Queue-depth shed at the request boundary: answer 503
                // ourselves and close, as accept does for a fresh
                // connection while the queue is full.
                self.overload.queued.fetch_sub(1, Ordering::SeqCst);
                if registry.enabled() {
                    registry
                        .counter_with(
                            "http_shed_total",
                            &[("route", crate::server::route_label(&job.request.path))],
                        )
                        .metric
                        .inc();
                }
                let retry_after = self.overload.retry_after_secs().to_string();
                self.queue_loop_response(
                    token,
                    503,
                    "server overloaded, retry shortly",
                    &[("Retry-After", retry_after.as_str())],
                    false,
                );
            }
            Err(TrySendError::Disconnected(_)) => {
                self.overload.queued.fetch_sub(1, Ordering::SeqCst);
                self.destroy(token);
            }
        }
    }

    /// Queue a loop-generated response (parse error, 408, shed) and start
    /// draining it.
    fn queue_loop_response(
        &mut self,
        token: u64,
        status: u16,
        message: &str,
        extra_headers: &[(&str, &str)],
        keep_alive_after: bool,
    ) {
        let body = json!({ "error": message }).to_string();
        let bytes = render_response(
            status,
            "application/json",
            extra_headers,
            keep_alive_after,
            body.as_bytes(),
        );
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.outbuf = bytes;
            conn.outpos = 0;
            conn.state = ConnState::Draining { keep_alive_after };
        }
        self.arm_stall_timer(token);
        self.pump(token);
    }

    /// The write engine: flush the connection's write buffer, refilling it
    /// from the outbox until the socket stops taking bytes or nothing is
    /// left, then act on the verdict.
    fn pump(&mut self, token: u64) {
        let mut progressed = false;
        let verdict = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            'pump: loop {
                while conn.outpos < conn.outbuf.len() {
                    match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                        Ok(0) => break 'pump PumpVerdict::Destroy,
                        Ok(n) => {
                            conn.outpos += n;
                            progressed = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            break 'pump PumpVerdict::NeedWritable;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break 'pump PumpVerdict::Destroy,
                    }
                }
                conn.outbuf.clear();
                conn.outpos = 0;
                if let Some(outbox) = &conn.outbox {
                    let status = outbox.take(TAKE_CHUNK, &mut conn.outbuf);
                    if conn.outbuf.is_empty() {
                        if status.complete {
                            break PumpVerdict::Complete {
                                keep_alive: status.keep_alive,
                            };
                        }
                        break PumpVerdict::Idle; // waiting on the producer
                    }
                    // refilled: loop back to flush
                } else {
                    match conn.state {
                        ConnState::Draining { keep_alive_after } => {
                            break PumpVerdict::Complete {
                                keep_alive: keep_alive_after,
                            };
                        }
                        _ => break PumpVerdict::Idle,
                    }
                }
            }
        };
        if progressed
            && self
                .conns
                .get(&token)
                .is_some_and(|c| c.state != ConnState::Reading)
        {
            // Write progress resets the stall clock.
            self.arm_stall_timer(token);
        }
        match verdict {
            PumpVerdict::Destroy => self.destroy(token),
            PumpVerdict::NeedWritable => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.want_writable = true;
                }
                self.update_interest(token);
            }
            PumpVerdict::Idle => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.want_writable = false;
                }
                self.update_interest(token);
            }
            PumpVerdict::Complete { keep_alive } => self.request_complete(token, keep_alive),
        }
    }

    /// A response fully reached the socket: reset for the next keep-alive
    /// request or close.
    fn request_complete(&mut self, token: u64, keep_alive: bool) {
        let close = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.outbox = None;
            conn.want_writable = false;
            !keep_alive || conn.peer_half_closed
        };
        if close {
            self.destroy(token);
            return;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.state = ConnState::Reading;
            conn.read_start = Instant::now();
        }
        self.arm_read_timer(token);
        self.update_interest(token);
        // Pipelined requests may already be sitting in the input buffer.
        self.advance_reading(token);
    }

    /// Drain the dirty list: every token a dispatch worker pushed bytes
    /// for since the last pass.
    fn drain_dirty(&mut self) {
        loop {
            let tokens = {
                let mut dirty = self.shared.dirty.lock();
                if dirty.is_empty() {
                    break;
                }
                std::mem::take(&mut *dirty)
            };
            for token in tokens {
                if self.conns.contains_key(&token) {
                    self.pump(token);
                }
            }
        }
    }

    fn timer_fired(&mut self, token: u64, generation: u64) {
        enum Action {
            Ignore,
            IdleClose,
            ReadTimeout(Instant),
            StallCheck,
            Kill,
        }
        let action = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            if conn.timer_gen != generation {
                Action::Ignore // lazily cancelled by a re-arm
            } else {
                match conn.state {
                    ConnState::Reading if conn.inbuf.is_empty() => Action::IdleClose,
                    ConnState::Reading => Action::ReadTimeout(conn.read_start),
                    ConnState::Dispatched => Action::StallCheck,
                    ConnState::Draining { .. } => Action::Kill,
                }
            }
        };
        match action {
            Action::Ignore => {}
            // A keep-alive connection with nothing pending: quiet close.
            Action::IdleClose | Action::Kill => self.destroy(token),
            Action::ReadTimeout(read_start) => {
                // Slowloris: a partial request older than `read_timeout`.
                record_request_tail("bad_request", 408, read_start, None);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.inbuf.clear();
                }
                self.queue_loop_response(token, 408, "timed out reading request", &[], false);
            }
            Action::StallCheck => {
                // Only a stall if bytes are actually waiting on the client;
                // a quiet producer (slow orchestration between SSE frames)
                // is bounded by its own deadlines, not ours.
                let stalled = self.conns.get(&token).is_some_and(|c| {
                    c.outpos < c.outbuf.len() || c.outbox.as_ref().is_some_and(|o| !o.is_empty())
                });
                if stalled {
                    self.destroy(token);
                } else {
                    self.arm_stall_timer(token);
                }
            }
        }
    }

    /// Arm the Reading-state deadline: idle timeout on an empty buffer,
    /// the slowloris read timeout once a partial request exists.
    fn arm_read_timer(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.timer_gen += 1;
        let after = if conn.inbuf.is_empty() {
            self.config.edge.idle_timeout
        } else {
            self.config.read_timeout
        };
        self.wheel.schedule(token, conn.timer_gen, after);
    }

    fn arm_stall_timer(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.timer_gen += 1;
        self.wheel
            .schedule(token, conn.timer_gen, self.config.edge.write_stall_timeout);
    }

    /// Re-register the poller interest implied by the connection's state,
    /// if it changed: EPOLLIN only while Reading (parking it mid-dispatch
    /// is the read-side backpressure), EPOLLOUT only on a pending partial
    /// write, RDHUP until the half-close has been seen.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = Interest {
            readable: conn.state == ConnState::Reading && !conn.peer_half_closed,
            writable: conn.want_writable,
            rdhup: !conn.peer_half_closed,
        };
        if desired != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    fn destroy(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            if let Some(outbox) = &conn.outbox {
                // Fail the producer: its next push errors, surfacing as a
                // client-gone stream outcome.
                outbox.close();
            }
            let registry = llmms_obs::Registry::global();
            if registry.enabled() {
                registry.gauge("edge_open_connections").metric.dec();
            }
        }
    }
}

/// Over-capacity accept: count it, best-effort a 503 into the fresh
/// socket's empty send buffer, and drop the connection.
fn shed_accept(mut stream: TcpStream, overload: &OverloadState, reason: &'static str) {
    let registry = llmms_obs::Registry::global();
    if registry.enabled() {
        registry
            .counter_with(
                "http_shed_total",
                &[("route", "accept"), ("reason", reason)],
            )
            .metric
            .inc();
    }
    let retry_after = overload.retry_after_secs().to_string();
    let body = json!({ "error": "server overloaded, retry shortly" }).to_string();
    let bytes = render_response(
        503,
        "application/json",
        &[("Retry-After", retry_after.as_str())],
        false,
        body.as_bytes(),
    );
    let _ = stream.set_nonblocking(true);
    let _ = stream.write(&bytes);
}
