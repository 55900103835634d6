//! A minimal vendored epoll wrapper: just enough readiness polling for the
//! serving edge, bound directly against the C library (the workspace
//! vendors no `libc`/`mio`).
//!
//! Level-triggered epoll keeps the state machine simple: a connection with
//! unconsumed readiness is re-reported every wait, so a missed drain is a
//! wasted wakeup, never a stall. The [`Waker`] is an `eventfd` registered
//! like any other fd, letting dispatch workers (and `shutdown`) interrupt
//! a blocking `epoll_wait` from another thread.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// x86_64 declares epoll_event packed; other ABIs use natural layout.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
}

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// What a connection wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Readable readiness.
    pub readable: bool,
    /// Writable readiness.
    pub writable: bool,
    /// Peer half-close (`EPOLLRDHUP`). Watched even while EPOLLIN is
    /// parked mid-dispatch, but dropped once the half-close has been
    /// observed — level-triggered RDHUP would otherwise re-report forever.
    pub rdhup: bool,
}

impl Interest {
    /// Read-only interest with half-close watching on — the initial
    /// registration for every connection.
    pub fn readable() -> Interest {
        Interest {
            readable: true,
            writable: false,
            rdhup: true,
        }
    }

    fn bits(self) -> u32 {
        let mut bits = 0;
        if self.rdhup {
            bits |= EPOLLRDHUP;
        }
        if self.readable {
            bits |= EPOLLIN;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or a pending error, which a read will surface).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer closed its write half (`EPOLLRDHUP`): no more requests will
    /// arrive, but the peer may still be reading our response.
    pub read_closed: bool,
    /// Hard hangup or socket error: the connection is dead both ways.
    pub error: bool,
}

/// An owned epoll instance.
pub struct Poller {
    epfd: RawFd,
}

// The epoll fd is thread-safe at the syscall level.
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

impl Poller {
    /// Create an epoll instance.
    ///
    /// # Errors
    ///
    /// `epoll_create1` failures.
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = EpollEvent {
            events: interest.bits(),
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Register `fd` under `token`.
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failures.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change the interest set of a registered fd.
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failures.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregister a fd (safe to call on an already-closed fd; errors are
    /// ignored by callers on the teardown path).
    ///
    /// # Errors
    ///
    /// `epoll_ctl` failures.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut event = EpollEvent { events: 0, data: 0 };
        let rc = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut event) };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Block until readiness or `timeout`, appending reports to `events`
    /// (cleared first). A timeout of `None` blocks indefinitely.
    ///
    /// # Errors
    ///
    /// `epoll_wait` failures other than `EINTR` (which retries).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms = timeout.map_or(-1i32, |t| {
            i32::try_from(t.as_millis()).unwrap_or(i32::MAX).max(0)
        });
        let mut raw = [EpollEvent { events: 0, data: 0 }; 512];
        let n = loop {
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), raw.len() as i32, timeout_ms) };
            if n >= 0 {
                break n as usize;
            }
            let err = last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &raw[..n] {
            let bits = ev.events;
            events.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                read_closed: bits & EPOLLRDHUP != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

/// Cross-thread wakeup for a blocking [`Poller::wait`]: an `eventfd`
/// registered on the poller; [`Waker::wake`] makes it readable,
/// [`Waker::drain`] resets it.
pub struct Waker {
    fd: RawFd,
}

unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

impl Waker {
    /// Create the eventfd.
    ///
    /// # Errors
    ///
    /// `eventfd` failures.
    pub fn new() -> io::Result<Waker> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_os_error());
        }
        Ok(Waker { fd })
    }

    /// The fd to register on the poller.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Make the poller's next (or current) wait return. Coalesces: any
    /// number of wakes before a drain cost one wakeup.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            write(self.fd, (&raw const one).cast::<u8>(), 8);
        }
    }

    /// Consume pending wakes so the eventfd stops reporting readable.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        unsafe {
            read(self.fd, buf.as_mut_ptr(), 8);
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

fn set_buf_opt(fd: RawFd, opt: i32, bytes: usize) -> io::Result<()> {
    let val = i32::try_from(bytes).unwrap_or(i32::MAX);
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            opt,
            (&raw const val).cast::<u8>(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        return Err(last_os_error());
    }
    Ok(())
}

/// Clamp a socket's kernel send buffer (`SO_SNDBUF`). The kernel doubles
/// the value and enforces a floor, so tiny requests are advisory.
///
/// # Errors
///
/// `setsockopt` failures.
pub(crate) fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    set_buf_opt(fd, SO_SNDBUF, bytes)
}

/// A client socket with a clamped receive window, for transport tests.
#[cfg(test)]
pub(crate) mod test_client {
    use super::{last_os_error, set_buf_opt};
    use std::io;
    use std::net::SocketAddr;
    use std::os::fd::{AsRawFd, FromRawFd};

    // IPv4 socket address for the raw `connect`.
    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16, // network byte order
        sin_addr: u32, // network byte order
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    }

    const SO_RCVBUF: i32 = 8;
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;

    /// Connect to an IPv4 address with `SO_RCVBUF` clamped *before* the
    /// connect, so the small window is what the handshake advertises.
    /// Each client then swallows only a few KiB, and a stalled stream stays
    /// parked in its server-side outbox instead of default-sized kernel
    /// buffers.
    ///
    /// # Errors
    ///
    /// Socket/connect failures; IPv6 addresses are rejected.
    pub(crate) fn connect_with_rcvbuf(
        addr: SocketAddr,
        rcvbuf: usize,
    ) -> io::Result<std::net::TcpStream> {
        let SocketAddr::V4(v4) = addr else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "connect_with_rcvbuf is IPv4-only",
            ));
        };
        let fd = unsafe { socket(AF_INET, SOCK_STREAM, 0) };
        if fd < 0 {
            return Err(last_os_error());
        }
        // Own the fd immediately so error paths below close it.
        let stream = unsafe { std::net::TcpStream::from_raw_fd(fd) };
        set_buf_opt(fd, SO_RCVBUF, rcvbuf)?;
        let sa = SockAddrIn {
            sin_family: AF_INET as u16,
            sin_port: v4.port().to_be(),
            sin_addr: u32::from_ne_bytes(v4.ip().octets()),
            sin_zero: [0; 8],
        };
        let rc = unsafe {
            connect(
                stream.as_raw_fd(),
                &sa,
                std::mem::size_of::<SockAddrIn>() as u32,
            )
        };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(stream)
    }
}

#[cfg(test)]
mod tests {
    use super::test_client::connect_with_rcvbuf;
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn waker_interrupts_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), 1, Interest::readable()).unwrap();
        let mut events = Vec::new();
        // Nothing pending: the wait times out empty.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
        waker.wake();
        waker.wake(); // coalesces
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 1);
        assert!(events[0].readable);
        waker.drain();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "drain resets the eventfd");
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        let token = 7u64;
        poller
            .add(server.as_raw_fd(), token, Interest::readable())
            .unwrap();
        let mut events = Vec::new();
        client.write_all(b"ping").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == token && e.readable));

        // Switch to write interest: a fresh socket is immediately writable.
        poller
            .modify(
                server.as_raw_fd(),
                token,
                Interest {
                    readable: false,
                    writable: true,
                    rdhup: true,
                },
            )
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == token && e.writable));

        // Peer half-close surfaces as read_closed even with EPOLLIN off.
        client.shutdown(std::net::Shutdown::Write).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == token && e.read_closed));

        poller.delete(server.as_raw_fd()).unwrap();
        let mut buf = [0u8; 8];
        let n = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");
    }

    #[test]
    fn connect_with_small_rcvbuf_talks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let mut c = connect_with_rcvbuf(addr, 4096).unwrap();
        c.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        t.join().unwrap();
    }
}
