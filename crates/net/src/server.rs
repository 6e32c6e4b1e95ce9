//! The TE-DB socket server: accepts agent connections on TCP and/or
//! Unix sockets and serves the wire protocol against a shared
//! [`TeDatabase`].
//!
//! Each accepted connection becomes one async task running a
//! read-dispatch-write loop. The server is a thin shim: every data op
//! is one [`TeDatabase::fetch_outcome`] call per key it reads (`POLL`
//! reads two), so all of the store's semantics — replica failover,
//! injected latency, loss, corruption — flow through unchanged:
//!
//! * injected shard latency (`ReadOutcome::injected_ns`) becomes a
//!   real async sleep before the response is written, so clients
//!   measure it as wall-clock service time;
//! * a corrupted read is forwarded verbatim under a deliberately
//!   wrong `body_crc`, so the client's transport checksum catches it
//!   exactly like the in-process model;
//! * a [`ShardOutage`] becomes an [`ErrorCode::Unreachable`] error
//!   response (retryable).
//!
//! On top of the store faults, [`TransportFaults`] injects
//! transport-level failure: connection resets, truncated frames, and
//! slow-loris responses (chunked writes with delays), each rolled
//! per-response from a seeded counter so runs are reproducible.

use crate::frame::{
    self, encode_response_into, ErrorCode, FrameError, FrameReader, Request, Response,
    DEFAULT_MAX_BODY, PROTOCOL_VERSION,
};
use crate::io::{AsyncListener, AsyncStream, Endpoint};
use crate::reactor::Sleep;
use megate_obs::{Counter, Lazy, StripedU64};
use megate_tedb::{ReadOutcome, ShardOutage, TeDatabase, TeKey};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Transport-level fault injection, applied per response frame.
///
/// Rates are parts-per-million, rolled from a seeded splitmix64
/// counter so a given `(seed, response sequence)` always fails the
/// same way. Faults compose with the TE-DB's own shard faults: a
/// request can survive the store only to lose its response to a
/// reset.
#[derive(Debug, Clone)]
pub struct TransportFaults {
    /// Probability (ppm) of resetting the connection instead of
    /// responding — the agent sees a broken pipe / EOF mid-stream.
    pub reset_ppm: u32,
    /// Probability (ppm) of writing only a prefix of the response
    /// frame and then closing — the agent sees a truncated frame.
    pub truncate_ppm: u32,
    /// Probability (ppm) of a slow-loris response: the frame is
    /// dribbled out in small chunks with [`stall_chunk_delay`]
    /// between them.
    ///
    /// [`stall_chunk_delay`]: TransportFaults::stall_chunk_delay
    pub stall_ppm: u32,
    /// Delay between slow-loris chunks.
    pub stall_chunk_delay: Duration,
    /// Seed for the fault roll sequence.
    pub seed: u64,
}

impl Default for TransportFaults {
    fn default() -> Self {
        Self {
            reset_ppm: 0,
            truncate_ppm: 0,
            stall_ppm: 0,
            stall_chunk_delay: Duration::from_millis(5),
            seed: 0x6d67_7465_5f6e_6574,
        }
    }
}

impl TransportFaults {
    /// Whether any fault has a nonzero rate.
    fn injects(&self) -> bool {
        self.reset_ppm != 0 || self.truncate_ppm != 0 || self.stall_ppm != 0
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

enum FaultRoll {
    None,
    Reset,
    Truncate,
    Stall,
}

/// Shared server state: database handle, fault knobs, metrics.
pub struct ServerState {
    db: TeDatabase,
    faults: parking_lot::RwLock<TransportFaults>,
    /// Whether `faults` injects anything: a response reads this flag,
    /// not the lock, while transport faults are off.
    faults_on: AtomicBool,
    fault_seq: AtomicU64,
    shutdown: AtomicBool,
    accepted: AtomicU64,
    active: AtomicU64,
    // Every request writes these, from every worker: striped per thread.
    bytes_out: StripedU64,
    bytes_in: StripedU64,
    requests: StripedU64,
}

impl ServerState {
    /// Wraps a database for serving.
    pub fn new(db: TeDatabase) -> Arc<Self> {
        Arc::new(Self {
            db,
            faults: parking_lot::RwLock::new(TransportFaults::default()),
            faults_on: AtomicBool::new(false),
            fault_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            active: AtomicU64::new(0),
            bytes_out: StripedU64::new(),
            bytes_in: StripedU64::new(),
            requests: StripedU64::new(),
        })
    }

    /// The served database (for fault injection and publishing from
    /// tests and benches).
    pub fn db(&self) -> &TeDatabase {
        &self.db
    }

    /// Replaces the transport fault configuration.
    pub fn set_transport_faults(&self, f: TransportFaults) {
        let mut faults = self.faults.write();
        *faults = f;
        self.faults_on.store(faults.injects(), Ordering::Release);
    }

    /// Asks accept loops and connection tasks to wind down.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Connections accepted over the server's lifetime.
    pub fn accepted_conns(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn active_conns(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }

    /// Total response bytes written (controller-side fan-out bytes).
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.get()
    }

    /// Total request bytes read.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.get()
    }

    /// Requests this server decoded and dispatched. Unlike the
    /// process-wide `net.requests` counter it counts this instance
    /// only, so servers sharing a process do not see each other's.
    pub fn requests(&self) -> u64 {
        self.requests.get()
    }

    /// The transport fault for the next response. The roll sequence
    /// advances only while faults are configured.
    fn roll_fault(&self) -> FaultRoll {
        if !self.faults_on.load(Ordering::Acquire) {
            return FaultRoll::None;
        }
        let f = self.faults.read();
        if !f.injects() {
            return FaultRoll::None;
        }
        let seq = self.fault_seq.fetch_add(1, Ordering::Relaxed);
        let roll = splitmix64(f.seed.wrapping_add(seq)) % 1_000_000;
        if roll < f.reset_ppm as u64 {
            FaultRoll::Reset
        } else if roll < (f.reset_ppm + f.truncate_ppm) as u64 {
            FaultRoll::Truncate
        } else if roll < (f.reset_ppm + f.truncate_ppm + f.stall_ppm) as u64 {
            FaultRoll::Stall
        } else {
            FaultRoll::None
        }
    }
}

/// A running accept loop bound to one endpoint.
pub struct Server {
    state: Arc<ServerState>,
    local: Endpoint,
}

impl Server {
    /// Binds `ep` and spawns the accept loop plus one task per
    /// connection onto `exec`. Returns immediately; the resolved
    /// endpoint (OS-assigned TCP port included) is in
    /// [`local`](Self::local).
    pub fn start(
        state: Arc<ServerState>,
        ep: &Endpoint,
        exec: &crate::exec::Executor,
    ) -> std::io::Result<Server> {
        let listener = match ep {
            Endpoint::Tcp(addr) => AsyncListener::bind_tcp(*addr)?,
            Endpoint::Unix(path) => AsyncListener::bind_unix(path)?,
        };
        let local = listener.local().clone();
        let st = state.clone();
        let ex = exec.clone();
        exec.spawn(async move {
            loop {
                if st.is_shutdown() {
                    return;
                }
                match listener.accept().await {
                    Ok(conn) => {
                        st.accepted.fetch_add(1, Ordering::Relaxed);
                        megate_obs::counter("net.accepted_conns").inc();
                        let st2 = st.clone();
                        ex.spawn(async move {
                            st2.active.fetch_add(1, Ordering::Relaxed);
                            megate_obs::gauge("net.active_conns").add(1);
                            serve_conn(&st2, conn).await;
                            st2.active.fetch_sub(1, Ordering::Relaxed);
                            megate_obs::gauge("net.active_conns").sub(1);
                        });
                    }
                    Err(_) => {
                        if st.is_shutdown() {
                            return;
                        }
                        Sleep::after(Duration::from_millis(10)).await;
                    }
                }
            }
        });
        Ok(Server { state, local })
    }

    /// The bound endpoint (TCP port resolved).
    pub fn local(&self) -> &Endpoint {
        &self.local
    }

    /// The shared server state.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }
}

/// Evaluates one request against the database. Returns the response,
/// whether the read came back corrupted (the response is then sent
/// under a broken checksum), and the injected shard latency the read
/// accumulated (the serving task sleeps it before responding).
pub fn dispatch(db: &TeDatabase, req: &Request) -> (Response, bool, u64) {
    let key = match req {
        Request::Hello {
            min_version,
            max_version,
        } => {
            let resp = if *min_version <= PROTOCOL_VERSION && PROTOCOL_VERSION <= *max_version {
                Response::HelloOk {
                    version: PROTOCOL_VERSION,
                }
            } else {
                Response::Error {
                    code: ErrorCode::UnsupportedVersion,
                    detail: format!(
                        "server speaks only v{PROTOCOL_VERSION}, client offered \
                         {min_version}..={max_version}"
                    ),
                }
            };
            return (resp, false, 0);
        }
        Request::Ping => return (Response::Pong, false, 0),
        &Request::Poll {
            partition,
            endpoint,
        } => return poll(db, partition, endpoint),
        _ => req.te_key().expect("read ops address one TeKey"),
    };
    match db.fetch_outcome(&key) {
        Err(o) => (outage_response(o), false, 0),
        Ok(out) => {
            let resp = match req {
                Request::GetVersion { .. } => Response::VersionIs {
                    version: version_of(&out),
                },
                _ => Response::Record {
                    for_op: req.op(),
                    value: out.value,
                },
            };
            (resp, out.corrupted, out.injected_ns)
        }
    }
}

/// `POLL`: the partition's version record, then the endpoint's
/// changelog. In that order, every changelog entry up to the returned
/// version is in the reply, because §3.2 writes a version's entries
/// before its version record. Either read unreachable fails the whole
/// request; either read corrupted breaks the whole reply's checksum;
/// the injected latency is both reads'.
fn poll(db: &TeDatabase, partition: u32, endpoint: u64) -> (Response, bool, u64) {
    let reads = db
        .fetch_outcome(&TeKey::Version { partition })
        .and_then(|version| Ok((version, db.fetch_outcome(&TeKey::Changelog { endpoint })?)));
    match reads {
        Err(o) => (outage_response(o), false, 0),
        Ok((version, changelog)) => (
            Response::Polled {
                version: version_of(&version),
                changelog: changelog.value,
            },
            version.corrupted || changelog.corrupted,
            version.injected_ns + changelog.injected_ns,
        ),
    }
}

/// A version record's value; anything but 8 bytes reads as absent.
fn version_of(out: &ReadOutcome) -> Option<u64> {
    let bytes = out.value.as_deref()?.try_into().ok()?;
    Some(u64::from_be_bytes(bytes))
}

fn outage_response(o: ShardOutage) -> Response {
    Response::Error {
        code: ErrorCode::Unreachable,
        detail: o.to_string(),
    }
}

/// Batched responses are written out once they reach this size even
/// if more requests are already buffered.
const FLUSH_CAP: usize = 64 * 1024;

static REQUESTS: Lazy<Counter> = Lazy::counter("net.requests");
static FANOUT_BYTES: Lazy<Counter> = Lazy::counter("net.fanout_bytes");
static BAD_FRAMES: Lazy<Counter> = Lazy::counter("net.bad_frames");

/// The read-dispatch-write loop of one connection.
///
/// Requests are answered in arrival order. Responses collect in one
/// buffer and go out in one write when no further complete request is
/// buffered — so a lone request is answered at once, and a pipelined
/// batch costs one read and one write — or at [`FLUSH_CAP`]. The buffer
/// is also written out before anything else the task waits on (injected
/// shard latency, a transport fault), so those delay or destroy only
/// the response they belong to.
async fn serve_conn(state: &Arc<ServerState>, conn: AsyncStream) {
    let mut reader = FrameReader::new(DEFAULT_MAX_BODY);
    let mut out = Outbound {
        state,
        conn: &conn,
        batch: Vec::new(),
    };
    loop {
        if state.is_shutdown() {
            return;
        }
        if !reader.has_frame() && out.flush().await.is_err() {
            return;
        }
        let (hdr, body) = match reader.next(&conn).await {
            Ok((hdr, Some(body))) => (hdr, body),
            Ok((hdr, None)) => {
                // Body checksum failed; the stream is still aligned, so
                // fail just this request and keep serving.
                BAD_FRAMES.inc();
                let resp = Response::Error {
                    code: ErrorCode::BadCrc,
                    detail: "request body checksum failed".into(),
                };
                if out.respond(&resp, hdr.request_id, false).await.is_err() {
                    return;
                }
                continue;
            }
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => return,
            Err(e) => {
                BAD_FRAMES.inc();
                let resp = match e {
                    FrameError::BadVersion(v) => Response::Error {
                        code: ErrorCode::UnsupportedVersion,
                        detail: format!("frame version {v} unsupported"),
                    },
                    FrameError::Oversized(n) => Response::Error {
                        code: ErrorCode::Oversized,
                        detail: format!("body of {n} bytes exceeds cap"),
                    },
                    // Bad magic: not our protocol. Answer what came
                    // before it and hang up.
                    _ => {
                        let _ = out.flush().await;
                        return;
                    }
                };
                // The stream is desynchronized; say why and hang up.
                if out.respond(&resp, 0, false).await.is_ok() {
                    let _ = out.flush().await;
                }
                return;
            }
        };
        state.bytes_in.add((frame::HEADER_LEN + body.len()) as u64);
        let (resp, corrupt) = match Request::decode(hdr.op, body) {
            Some(req) => {
                REQUESTS.inc();
                state.requests.add(1);
                let (resp, corrupt, injected_ns) = dispatch(&state.db, &req);
                if injected_ns > 0 {
                    // Injected shard latency becomes real service time
                    // of this request, not of the ones answered before.
                    if out.flush().await.is_err() {
                        return;
                    }
                    Sleep::after(Duration::from_nanos(injected_ns)).await;
                }
                (resp, corrupt)
            }
            None => (
                Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: format!("op {:#04x} body did not decode", hdr.op),
                },
                false,
            ),
        };
        if out.respond(&resp, hdr.request_id, corrupt).await.is_err() {
            return;
        }
    }
}

/// One connection's response path: the batch of encoded responses not
/// yet written.
struct Outbound<'a> {
    state: &'a ServerState,
    conn: &'a AsyncStream,
    batch: Vec<u8>,
}

impl Outbound<'_> {
    /// Writes the batch out. `Err(())` means the connection is done.
    async fn flush(&mut self) -> Result<(), ()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        let written = self.conn.write_all(&self.batch).await;
        self.batch.clear();
        self.batch.shrink_to(FLUSH_CAP);
        written.map_err(|_| ())
    }

    /// Adds a response frame to the batch, or applies the transport
    /// fault rolled for this response — after writing the batch out, so
    /// the responses before it arrive as if each had been written on
    /// its own. `Err(())` means the connection is done.
    async fn respond(&mut self, resp: &Response, request_id: u64, corrupt: bool) -> Result<(), ()> {
        let fault = self.state.roll_fault();
        if !matches!(fault, FaultRoll::None) {
            self.flush().await?;
        }
        let at = self.batch.len();
        encode_response_into(&mut self.batch, resp, request_id, corrupt);
        let len = (self.batch.len() - at) as u64;
        match fault {
            FaultRoll::None => {
                self.state.bytes_out.add(len);
                FANOUT_BYTES.add(len);
                if self.batch.len() >= FLUSH_CAP {
                    self.flush().await?;
                }
                Ok(())
            }
            FaultRoll::Reset => {
                megate_obs::counter("net.faults.reset").inc();
                // Drop without responding; closing the stream resets the
                // agent's pending read.
                Err(())
            }
            FaultRoll::Truncate => {
                megate_obs::counter("net.faults.truncate").inc();
                let frame = &self.batch[at..];
                let _ = self.conn.write_all(&frame[..frame.len() / 2]).await;
                self.conn.shutdown_write();
                Err(())
            }
            FaultRoll::Stall => {
                megate_obs::counter("net.faults.stall").inc();
                let delay = self.state.faults.read().stall_chunk_delay;
                for chunk in self.batch[at..].chunks(7) {
                    self.conn.write_all(chunk).await.map_err(|_| ())?;
                    Sleep::after(delay).await;
                }
                self.batch.truncate(at);
                self.state.bytes_out.add(len);
                FANOUT_BYTES.add(len);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Executor;

    fn test_db() -> TeDatabase {
        let db = TeDatabase::new(4);
        db.publish_version(7);
        db.put(&TeKey::Snapshot { endpoint: 1 }, vec![1, 2, 3]);
        db
    }

    #[test]
    fn poll_reads_the_version_then_the_changelog() {
        let db = test_db();
        db.put(&TeKey::Changelog { endpoint: 1 }, vec![9, 9]);
        let poll = |partition, endpoint| Request::Poll {
            partition,
            endpoint,
        };
        assert_eq!(
            dispatch(&db, &poll(0, 1)),
            (
                Response::Polled {
                    version: Some(7),
                    changelog: Some(vec![9, 9]),
                },
                false,
                0
            )
        );
        assert_eq!(
            dispatch(&db, &poll(0, 2)).0,
            Response::Polled {
                version: Some(7),
                changelog: None,
            }
        );
        assert_eq!(
            dispatch(&db, &poll(5, 2)).0,
            Response::Polled {
                version: None,
                changelog: None,
            }
        );
        // A poll is unreachable exactly when one of its two reads is.
        let unreachable = |r: &Request| matches!(dispatch(&db, r).0, Response::Error { .. });
        for shard in 0..4 {
            db.set_shard_down(shard, true);
            let either = unreachable(&Request::GetVersion { partition: 0 })
                || unreachable(&Request::GetChangelog { endpoint: 1 });
            assert_eq!(unreachable(&poll(0, 1)), either, "shard {shard} down");
            db.set_shard_down(shard, false);
        }
        // Both reads' injected latency, and one corrupted read breaks
        // the whole reply.
        for shard in 0..4 {
            db.set_shard_slow(shard, 1_000);
        }
        assert_eq!(dispatch(&db, &poll(0, 1)).2, 2_000);
        for shard in 0..4 {
            db.set_shard_corrupt(shard, 1_000_000);
        }
        assert!(dispatch(&db, &poll(0, 1)).1);
    }

    #[test]
    fn serves_version_and_snapshot_over_tcp() {
        let exec = Executor::new(2);
        let state = ServerState::new(test_db());
        let server = Server::start(state, &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()), &exec)
            .expect("bind");
        let ep = server.local().clone();
        let (ver, snap) = exec.block_on(async move {
            let conn = AsyncStream::connect(&ep).await.unwrap();
            let hello = frame::encode_request(
                &Request::Hello {
                    min_version: PROTOCOL_VERSION,
                    max_version: PROTOCOL_VERSION,
                },
                1,
            );
            conn.write_all(&hello).await.unwrap();
            let (_, body) = frame::read_frame(&conn, DEFAULT_MAX_BODY).await.unwrap();
            assert_eq!(
                Response::decode(frame::op::HELLO | frame::op::RESPONSE_BIT, &body),
                Some(Response::HelloOk {
                    version: PROTOCOL_VERSION
                })
            );
            let req = frame::encode_request(&Request::GetVersion { partition: 0 }, 2);
            conn.write_all(&req).await.unwrap();
            let (h, body) = frame::read_frame(&conn, DEFAULT_MAX_BODY).await.unwrap();
            let ver = Response::decode(h.op, &body).unwrap();
            let req = frame::encode_request(&Request::GetSnapshot { endpoint: 1 }, 3);
            conn.write_all(&req).await.unwrap();
            let (h, body) = frame::read_frame(&conn, DEFAULT_MAX_BODY).await.unwrap();
            let snap = Response::decode(h.op, &body).unwrap();
            (ver, snap)
        });
        assert_eq!(ver, Response::VersionIs { version: Some(7) });
        assert_eq!(
            snap,
            Response::Record {
                for_op: frame::op::GET_SNAPSHOT,
                value: Some(vec![1, 2, 3]),
            }
        );
    }
}
