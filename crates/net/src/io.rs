//! Nonblocking TCP / Unix-domain streams and listeners as futures.
//!
//! Every socket is set nonblocking and registered with the
//! [`Reactor`]; reads and writes run the
//! classic try-then-park loop: attempt the syscall, and on
//! `WouldBlock` arm the matching interest and yield. TCP sockets get
//! `TCP_NODELAY`: frames are batched by the peers themselves (every
//! frame ready when a write starts shares it), never held back by
//! Nagle's algorithm.

use crate::reactor::{Interest, Reactor, Registration};
use megate_obs::{Counter, Lazy};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::task::Poll;

/// Where a service listens or a client connects: TCP or a Unix socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Localhost (or any) TCP address, e.g. `127.0.0.1:7070`.
    Tcp(SocketAddr),
    /// Unix-domain socket path.
    Unix(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(a) => write!(f, "tcp://{a}"),
            Endpoint::Unix(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

impl std::str::FromStr for Endpoint {
    type Err = String;

    /// Parses `tcp://HOST:PORT`, `unix://PATH`, or a bare socket
    /// address (treated as TCP).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(path) = s.strip_prefix("unix://") {
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        let addr = s.strip_prefix("tcp://").unwrap_or(s);
        addr.parse::<SocketAddr>()
            .map(Endpoint::Tcp)
            .map_err(|e| format!("bad endpoint {s:?}: {e}"))
    }
}

/// `read(2)` / `write(2)` calls issued on streams, by either side and
/// whether or not they moved bytes: next to `net.requests`, the
/// batching factor of the frame I/O.
static READ_SYSCALLS: Lazy<Counter> = Lazy::counter("net.read_syscalls");
static WRITE_SYSCALLS: Lazy<Counter> = Lazy::counter("net.write_syscalls");

enum StreamKind {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// An async byte stream over TCP or a Unix socket.
///
/// Field order is load-bearing: `reg` must drop (deregistering the fd
/// from the reactor) before `kind` closes the fd — otherwise a
/// concurrently-opened socket can reuse the fd number between the
/// close and the deregister, and the late `EPOLL_CTL_DEL` would tear
/// down the new socket's registration.
pub struct AsyncStream {
    reg: Registration,
    kind: StreamKind,
}

impl AsyncStream {
    fn new_tcp(s: TcpStream) -> io::Result<Self> {
        s.set_nonblocking(true)?;
        s.set_nodelay(true)?;
        let reg = Reactor::global().register(s.as_raw_fd())?;
        Ok(Self {
            kind: StreamKind::Tcp(s),
            reg,
        })
    }

    fn new_unix(s: UnixStream) -> io::Result<Self> {
        s.set_nonblocking(true)?;
        let reg = Reactor::global().register(s.as_raw_fd())?;
        Ok(Self {
            kind: StreamKind::Unix(s),
            reg,
        })
    }

    /// Connects to `ep`. (The TCP/UDS connect itself is performed
    /// blocking — instantaneous for the localhost/UDS targets this
    /// service runs on — then the socket flips nonblocking.)
    pub async fn connect(ep: &Endpoint) -> io::Result<Self> {
        match ep {
            Endpoint::Tcp(addr) => Self::new_tcp(TcpStream::connect(addr)?),
            Endpoint::Unix(path) => Self::new_unix(UnixStream::connect(path)?),
        }
    }

    fn try_read(&self, buf: &mut [u8]) -> io::Result<usize> {
        READ_SYSCALLS.inc();
        match &self.kind {
            StreamKind::Tcp(s) => (&*s).read(buf),
            StreamKind::Unix(s) => (&*s).read(buf),
        }
    }

    fn try_write(&self, buf: &[u8]) -> io::Result<usize> {
        WRITE_SYSCALLS.inc();
        match &self.kind {
            StreamKind::Tcp(s) => (&*s).write(buf),
            StreamKind::Unix(s) => (&*s).write(buf),
        }
    }

    /// Shuts down the write half (graceful close signal to the peer).
    pub fn shutdown_write(&self) {
        let _ = match &self.kind {
            StreamKind::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
            StreamKind::Unix(s) => s.shutdown(std::net::Shutdown::Write),
        };
    }

    /// Shuts down both halves: any task parked in a read on this
    /// stream sees EOF/error and can exit (used to reap reader tasks
    /// when a pooled connection is killed).
    pub fn shutdown_both(&self) {
        let _ = match &self.kind {
            StreamKind::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            StreamKind::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// Reads up to `buf.len()` bytes; 0 means EOF.
    pub async fn read(&self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.try_read(buf) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.ready(Interest::Read).await;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                r => return r,
            }
        }
    }

    /// Reads exactly `buf.len()` bytes; `UnexpectedEof` if the peer
    /// closes mid-way (with the partial count in the error payload's
    /// message for diagnostics).
    pub async fn read_exact(&self, buf: &mut [u8]) -> io::Result<()> {
        let mut at = 0;
        while at < buf.len() {
            let n = self.read(&mut buf[at..]).await?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("peer closed after {at} of {} bytes", buf.len()),
                ));
            }
            at += n;
        }
        Ok(())
    }

    /// Writes the whole buffer.
    pub async fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        let mut at = 0;
        while at < buf.len() {
            match self.try_write(&buf[at..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => at += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.ready(Interest::Write).await;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Parks until the reactor reports readiness for `interest`. May
    /// wake spuriously; callers re-try the syscall in a loop.
    async fn ready(&self, interest: Interest) {
        let mut armed = false;
        std::future::poll_fn(|cx| {
            if armed {
                Poll::Ready(())
            } else {
                self.reg.arm(interest, cx.waker());
                armed = true;
                Poll::Pending
            }
        })
        .await
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

/// An async accept loop over TCP or a Unix socket.
///
/// As with [`AsyncStream`], `reg` is declared first so it drops
/// (deregistering from the reactor) before the listener fd closes.
pub struct AsyncListener {
    reg: Registration,
    kind: ListenerKind,
    /// Bound endpoint (with the OS-assigned port resolved for TCP).
    local: Endpoint,
}

impl AsyncListener {
    /// Binds a TCP listener (use port 0 for an OS-assigned port; the
    /// resolved address is available via [`local`](Self::local)).
    pub fn bind_tcp(addr: SocketAddr) -> io::Result<Self> {
        let l = TcpListener::bind(addr)?;
        l.set_nonblocking(true)?;
        let local = Endpoint::Tcp(l.local_addr()?);
        let reg = Reactor::global().register(l.as_raw_fd())?;
        Ok(Self {
            kind: ListenerKind::Tcp(l),
            reg,
            local,
        })
    }

    /// Binds a Unix-domain listener, unlinking a stale socket file
    /// first.
    pub fn bind_unix(path: &Path) -> io::Result<Self> {
        let _ = std::fs::remove_file(path);
        let l = UnixListener::bind(path)?;
        l.set_nonblocking(true)?;
        let reg = Reactor::global().register(l.as_raw_fd())?;
        Ok(Self {
            kind: ListenerKind::Unix(l),
            reg,
            local: Endpoint::Unix(path.to_path_buf()),
        })
    }

    /// The bound endpoint.
    pub fn local(&self) -> &Endpoint {
        &self.local
    }

    /// Accepts the next connection.
    pub async fn accept(&self) -> io::Result<AsyncStream> {
        loop {
            let r = match &self.kind {
                ListenerKind::Tcp(l) => l.accept().map(|(s, _)| AsyncStream::new_tcp(s)),
                ListenerKind::Unix(l) => l.accept().map(|(s, _)| AsyncStream::new_unix(s)),
            };
            match r {
                Ok(stream) => return stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.ready(Interest::Read).await;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    async fn ready(&self, interest: Interest) {
        let mut armed = false;
        std::future::poll_fn(|cx| {
            if armed {
                Poll::Ready(())
            } else {
                self.reg.arm(interest, cx.waker());
                armed = true;
                Poll::Pending
            }
        })
        .await
    }
}

impl Drop for AsyncListener {
    fn drop(&mut self) {
        if let Endpoint::Unix(p) = &self.local {
            let _ = std::fs::remove_file(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use std::sync::Arc;

    #[test]
    fn tcp_echo_roundtrip() {
        let exec = Executor::new(2);
        let listener = AsyncListener::bind_tcp("127.0.0.1:0".parse().unwrap()).expect("bind");
        let ep = listener.local().clone();
        exec.spawn(async move {
            let conn = listener.accept().await.unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).await.unwrap();
            conn.write_all(&buf).await.unwrap();
        });
        let echoed = exec.block_on(async move {
            let conn = AsyncStream::connect(&ep).await.unwrap();
            conn.write_all(b"hello").await.unwrap();
            let mut buf = [0u8; 5];
            conn.read_exact(&mut buf).await.unwrap();
            buf
        });
        assert_eq!(&echoed, b"hello");
    }

    #[test]
    fn unix_echo_roundtrip() {
        let exec = Executor::new(2);
        let path =
            std::env::temp_dir().join(format!("megate-net-test-{}.sock", std::process::id()));
        let listener = AsyncListener::bind_unix(&path).expect("bind uds");
        let ep = listener.local().clone();
        exec.spawn(async move {
            let conn = listener.accept().await.unwrap();
            let mut buf = [0u8; 3];
            conn.read_exact(&mut buf).await.unwrap();
            conn.write_all(&buf).await.unwrap();
        });
        let echoed = exec.block_on(async move {
            let conn = AsyncStream::connect(&ep).await.unwrap();
            conn.write_all(b"uds").await.unwrap();
            let mut buf = [0u8; 3];
            conn.read_exact(&mut buf).await.unwrap();
            buf
        });
        assert_eq!(&echoed, b"uds");
    }

    #[test]
    fn read_reports_eof_after_peer_close() {
        let exec = Executor::new(2);
        let listener = AsyncListener::bind_tcp("127.0.0.1:0".parse().unwrap()).unwrap();
        let ep = listener.local().clone();
        let listener = Arc::new(listener);
        let l2 = listener.clone();
        exec.spawn(async move {
            let conn = l2.accept().await.unwrap();
            conn.write_all(b"xy").await.unwrap();
            // conn drops here: peer sees EOF after the 2 bytes.
        });
        let total = exec.block_on(async move {
            let conn = AsyncStream::connect(&ep).await.unwrap();
            let mut total = 0;
            loop {
                let mut buf = [0u8; 8];
                let n = conn.read(&mut buf).await.unwrap();
                if n == 0 {
                    break total; // peer close surfaced as EOF
                }
                total += n;
            }
        });
        assert_eq!(total, 2);
    }
}
