//! A multiplexing TE-DB client: a small pool of persistent
//! connections shared by many agents, demultiplexed by request id.
//!
//! The service targets hundreds of thousands of simulated agents on a
//! machine whose fd limit is four orders of magnitude smaller, so
//! one-socket-per-agent is off the table. The wire protocol carries a
//! `request_id` for exactly this reason: [`NetClient`] opens `K`
//! connections, round-robins requests across them, and routes each
//! response back to its waiting caller by id. Per connection there is
//! one writer task draining an outbox (so frames from concurrent
//! callers never interleave mid-frame, and everything queued between
//! two writes shares one) and one reader task parsing every response a
//! read brought in and completing the matching oneshots.
//!
//! Failure handling is per-request and per-connection:
//!
//! * a response whose body checksum fails completes just that request
//!   with [`FrameError::BadCrc`] — the stream stays frame-aligned, so
//!   the connection survives (this is how DB-injected corruption
//!   reaches the agent's retry ladder);
//! * a connection-level failure (reset, truncated frame, bad magic)
//!   fails every request in flight on that connection and marks it
//!   broken; the next request through that slot reconnects lazily.

use crate::exec::Executor;
use crate::frame::{
    self, encode_request_into, FrameError, FrameReader, Request, Response, DEFAULT_MAX_BODY,
};
use crate::io::{AsyncStream, Endpoint};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Poll, Waker};

// ---- oneshot: single-value handoff between reader task and caller ----

struct OneshotInner<T> {
    value: Option<T>,
    waker: Option<Waker>,
}

struct Oneshot<T>(Arc<Mutex<OneshotInner<T>>>);

impl<T> Oneshot<T> {
    fn new() -> (Oneshot<T>, Oneshot<T>) {
        let inner = Arc::new(Mutex::new(OneshotInner {
            value: None,
            waker: None,
        }));
        (Oneshot(inner.clone()), Oneshot(inner))
    }

    fn send(&self, v: T) {
        let mut g = self.0.lock();
        g.value = Some(v);
        if let Some(w) = g.waker.take() {
            w.wake();
        }
    }

    async fn recv(self) -> T {
        std::future::poll_fn(|cx| {
            let mut g = self.0.lock();
            match g.value.take() {
                Some(v) => Poll::Ready(v),
                None => {
                    g.waker = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        })
        .await
    }
}

// ---- outbox: multi-producer frame buffer drained by the writer task ----

/// Request frames encoded back to back, waiting for the writer task.
#[derive(Default)]
struct Outbox {
    queue: Mutex<OutboxQueue>,
}

#[derive(Default)]
struct OutboxQueue {
    frames: Vec<u8>,
    writer: Option<Waker>,
    closed: bool,
}

impl Outbox {
    fn push(&self, req: &Request, request_id: u64) {
        let mut g = self.queue.lock();
        encode_request_into(&mut g.frames, req, request_id);
        if let Some(w) = g.writer.take() {
            w.wake();
        }
    }

    fn close(&self) {
        let mut g = self.queue.lock();
        g.closed = true;
        if let Some(w) = g.writer.take() {
            w.wake();
        }
    }

    /// Swaps every queued frame into the (empty) `batch`, waiting for
    /// one when the outbox is empty; `false` once it is closed.
    async fn take(&self, batch: &mut Vec<u8>) -> bool {
        std::future::poll_fn(|cx| {
            let mut g = self.queue.lock();
            if !g.frames.is_empty() {
                std::mem::swap(&mut g.frames, batch);
                return Poll::Ready(true);
            }
            if g.closed {
                return Poll::Ready(false);
            }
            g.writer = Some(cx.waker().clone());
            Poll::Pending
        })
        .await
    }
}

/// Hashes a request id with one multiply. Ids are sequential, so the
/// product spreads them over the table; SipHash's keyed mixing buys
/// nothing: only this client inserts keys, and it picks them itself (an
/// id a response carries is only looked up).
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = (self.0 ^ id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Pending =
    Mutex<HashMap<u64, Oneshot<Result<Response, FrameError>>, BuildHasherDefault<IdHasher>>>;

/// One live connection: stream + in-flight table + outbox.
struct Conn {
    stream: Arc<AsyncStream>,
    outbox: Outbox,
    pending: Pending,
    broken: AtomicBool,
}

impl Conn {
    /// Fails every in-flight request and marks the connection dead.
    /// The socket is shut down both ways so the reader task parked on
    /// it unblocks and exits instead of leaking.
    fn kill(&self, err: FrameError) {
        self.broken.store(true, Ordering::Release);
        self.outbox.close();
        self.stream.shutdown_both();
        let pending = std::mem::take(&mut *self.pending.lock());
        for (_, tx) in pending {
            tx.send(Err(err.clone()));
        }
    }
}

/// A pool slot: at most one task (re)connects it at a time; everyone
/// else parks as a waiter. Without the single-flight gate, a cohort of
/// thousands of concurrent first requests would each dial its own
/// socket — a thundering herd that overflows the listener's accept
/// backlog and then throws all but one connection away.
struct Slot {
    conn: Option<Arc<Conn>>,
    connecting: bool,
    waiters: Vec<Waker>,
}

/// What [`NetClient::claim_slot`] resolved to.
enum Claim {
    /// A live connection to use.
    Ready(Arc<Conn>),
    /// This task won the connect race and must dial the slot.
    Connector,
}

/// Releases a slot's `connecting` claim on drop — on success, failure
/// or cancellation alike — and wakes the parked waiters so one of them
/// can use the installed connection or become the next connector.
struct ConnectRelease<'a> {
    client: &'a NetClient,
    slot: usize,
}

impl Drop for ConnectRelease<'_> {
    fn drop(&mut self) {
        let mut g = self.client.slots[self.slot].lock();
        g.connecting = false;
        for w in g.waiters.drain(..) {
            w.wake();
        }
    }
}

/// A pooled, multiplexing client for the TE-DB wire protocol.
pub struct NetClient {
    endpoint: Endpoint,
    exec: Executor,
    slots: Vec<Mutex<Slot>>,
    next_id: AtomicU64,
    next_slot: AtomicU64,
}

impl NetClient {
    /// Creates a client that will pool `conns` connections to
    /// `endpoint`, connecting lazily on first use.
    pub fn new(endpoint: Endpoint, conns: usize, exec: Executor) -> Arc<Self> {
        Arc::new(Self {
            endpoint,
            exec,
            slots: (0..conns.max(1))
                .map(|_| {
                    Mutex::new(Slot {
                        conn: None,
                        connecting: false,
                        waiters: Vec::new(),
                    })
                })
                .collect(),
            next_id: AtomicU64::new(1),
            next_slot: AtomicU64::new(0),
        })
    }

    /// Number of connection slots in the pool.
    pub fn pool_size(&self) -> usize {
        self.slots.len()
    }

    /// Issues one request and awaits its response. Connection-level
    /// failures surface as `Err`; the caller's retry policy decides
    /// what to do (a fresh attempt will lazily reconnect).
    pub async fn request(self: &Arc<Self>, req: &Request) -> Result<Response, FrameError> {
        let conn = self.conn_for_next_request().await?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = Oneshot::new();
        conn.pending.lock().insert(id, tx);
        // Re-check after registering: kill() may have swept the table
        // between our insert and the push.
        if conn.broken.load(Ordering::Acquire) {
            conn.pending.lock().remove(&id);
            return Err(FrameError::Io(std::io::ErrorKind::BrokenPipe));
        }
        conn.outbox.push(req, id);
        rx.recv().await
    }

    async fn conn_for_next_request(self: &Arc<Self>) -> Result<Arc<Conn>, FrameError> {
        let slot = (self.next_slot.fetch_add(1, Ordering::Relaxed) as usize) % self.slots.len();
        match self.claim_slot(slot).await {
            Claim::Ready(conn) => Ok(conn),
            Claim::Connector => {
                // The guard releases the `connecting` flag and wakes
                // the waiter queue however this future ends —
                // including being *dropped* by a caller's deadline
                // timeout mid-dial. Without it a cancelled connect
                // would wedge the slot forever.
                let guard = ConnectRelease { client: self, slot };
                let res = self.connect_one().await;
                if let Ok(conn) = &res {
                    self.slots[slot].lock().conn = Some(conn.clone());
                }
                drop(guard);
                res
            }
        }
    }

    /// Resolves the slot to a live connection or elects this task the
    /// slot's single connector; all other callers park until the dial
    /// settles.
    async fn claim_slot(&self, slot: usize) -> Claim {
        std::future::poll_fn(|cx| {
            let mut g = self.slots[slot].lock();
            if let Some(conn) = &g.conn {
                if !conn.broken.load(Ordering::Acquire) {
                    return Poll::Ready(Claim::Ready(conn.clone()));
                }
                g.conn = None;
            }
            if !g.connecting {
                g.connecting = true;
                return Poll::Ready(Claim::Connector);
            }
            g.waiters.push(cx.waker().clone());
            Poll::Pending
        })
        .await
    }

    async fn connect_one(&self) -> Result<Arc<Conn>, FrameError> {
        let stream = AsyncStream::connect(&self.endpoint)
            .await
            .map_err(|e| FrameError::Io(e.kind()))?;
        megate_obs::counter("net.client_connects").inc();
        let stream = Arc::new(stream);
        let conn = Arc::new(Conn {
            stream: stream.clone(),
            outbox: Outbox::default(),
            pending: Mutex::default(),
            broken: AtomicBool::new(false),
        });

        // Writer task: everything queued since the last write goes out
        // in one write (the two buffers trade places, so neither is
        // reallocated).
        let (c, s) = (conn.clone(), stream.clone());
        self.exec.spawn(async move {
            let mut batch = Vec::new();
            while c.outbox.take(&mut batch).await {
                if s.write_all(&batch).await.is_err() {
                    c.kill(FrameError::Io(std::io::ErrorKind::BrokenPipe));
                    return;
                }
                batch.clear();
            }
        });

        // Reader task: route responses to their oneshot by request id.
        let (c, s) = (conn.clone(), stream.clone());
        self.exec.spawn(async move {
            static CRC_FAILURES: megate_obs::Lazy<megate_obs::Counter> =
                megate_obs::Lazy::counter("net.client_crc_failures");
            let mut reader = FrameReader::new(DEFAULT_MAX_BODY);
            loop {
                let (id, result) = match reader.next(&s).await {
                    Ok((hdr, Some(body))) => (
                        hdr.request_id,
                        Response::decode(hdr.op, body).ok_or(FrameError::Malformed),
                    ),
                    Ok((hdr, None)) => {
                        // Corrupted body; the stream is still aligned.
                        CRC_FAILURES.inc();
                        (hdr.request_id, Err(FrameError::BadCrc))
                    }
                    Err(e) => {
                        c.kill(e);
                        return;
                    }
                };
                if let Some(tx) = c.pending.lock().remove(&id) {
                    tx.send(result);
                }
            }
        });

        // Negotiate before handing the connection out. The guard kills
        // the half-built connection unless negotiation succeeds — on
        // protocol errors, and also when this future is dropped by a
        // caller's deadline mid-handshake (reaping the just-spawned
        // reader/writer tasks and their socket).
        struct KillUnlessReady(Option<Arc<Conn>>);
        impl Drop for KillUnlessReady {
            fn drop(&mut self) {
                if let Some(c) = self.0.take() {
                    c.kill(FrameError::Io(std::io::ErrorKind::ConnectionAborted));
                }
            }
        }
        let mut guard = KillUnlessReady(Some(conn.clone()));

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = Oneshot::new();
        conn.pending.lock().insert(id, tx);
        conn.outbox.push(
            &Request::Hello {
                min_version: frame::PROTOCOL_VERSION,
                max_version: frame::PROTOCOL_VERSION,
            },
            id,
        );
        match rx.recv().await? {
            Response::HelloOk { .. } => {
                guard.0 = None;
                Ok(conn)
            }
            Response::Error { code, .. } => Err(match code {
                frame::ErrorCode::UnsupportedVersion => {
                    FrameError::BadVersion(frame::PROTOCOL_VERSION)
                }
                _ => FrameError::Io(std::io::ErrorKind::ConnectionRefused),
            }),
            _ => Err(FrameError::Malformed),
        }
    }

    /// Tears down every pooled connection (in-flight requests fail).
    pub fn close(&self) {
        for slot in &self.slots {
            if let Some(conn) = slot.lock().conn.take() {
                conn.kill(FrameError::Io(std::io::ErrorKind::ConnectionAborted));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerState};
    use megate_tedb::{TeDatabase, TeKey};

    #[test]
    fn pooled_requests_demux_by_id() {
        let exec = Executor::new(2);
        let db = TeDatabase::new(4);
        db.publish_version(3);
        db.put(&TeKey::Snapshot { endpoint: 9 }, vec![9, 9]);
        let state = ServerState::new(db);
        let server = Server::start(state, &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()), &exec)
            .expect("bind");
        let client = NetClient::new(server.local().clone(), 2, exec.clone());
        let (v, s) = exec.block_on(async move {
            let v = client
                .request(&Request::GetVersion { partition: 0 })
                .await
                .unwrap();
            let s = client
                .request(&Request::GetSnapshot { endpoint: 9 })
                .await
                .unwrap();
            (v, s)
        });
        assert_eq!(v, Response::VersionIs { version: Some(3) });
        assert_eq!(
            s,
            Response::Record {
                for_op: frame::op::GET_SNAPSHOT,
                value: Some(vec![9, 9]),
            }
        );
    }
}
