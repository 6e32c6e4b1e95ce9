//! The TE-DB wire protocol: length-prefixed, versioned, checksummed
//! binary frames.
//!
//! Every message — request or response — is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       2     magic        0x4D54  ("MT", big-endian)
//! 2       1     version      protocol version (currently 2)
//! 3       1     op           opcode (see below)
//! 4       8     request_id   u64, echoed verbatim in the response
//! 12      4     body_len     u32, bytes of body following the header
//! 16      4     body_crc     FNV-1a/32 of the body bytes
//! 20      n     body         op-specific payload
//! ```
//!
//! All integers are big-endian. The 20-byte header layout and the
//! opcode values are **frozen**: PROTOCOL.md documents them byte by
//! byte and `tests/protocol.rs` pins a fingerprint over canonical
//! encodings, so any silent change breaks the build, not deployed
//! agents. New needs get new opcodes or a bumped `version` negotiated
//! via [`Request::Hello`].
//!
//! The read ops map 1:1 onto the [`TeKey`] keyspace of the
//! delta-versioned control loop: `GetVersion` ↔ `TeKey::Version`,
//! `GetChangelog` ↔ `TeKey::Changelog`, `GetDelta` ↔ `TeKey::Delta`,
//! `GetSnapshot` ↔ `TeKey::Snapshot`. [`Request::Poll`] reads two keys
//! in one request — `TeKey::Version`, then `TeKey::Changelog` — so an
//! agent with nothing new spends one request per sync period.
//!
//! The body checksum is the transport integrity check of the fault
//! model: a TE-DB read flagged corrupted is forwarded by the server
//! under a deliberately wrong `body_crc`, and a truncated or damaged
//! frame fails the same check — the client treats both as one
//! retryable [`FrameError::BadCrc`] failure, exactly like the
//! in-process `ReadOutcome::corrupted` path.

use megate_tedb::TeKey;

/// Frame magic: "MT" big-endian.
pub const MAGIC: u16 = 0x4D54;
/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Default cap on `body_len` a peer will accept (1 MiB). A frame
/// declaring more is rejected with [`ErrorCode::Oversized`] before any
/// body byte is read.
pub const DEFAULT_MAX_BODY: u32 = 1 << 20;

/// Request opcodes (`0x01..=0x7F`).
pub mod op {
    /// Version negotiation; must be the first frame on a connection.
    pub const HELLO: u8 = 0x01;
    /// Read a partition's config version record.
    pub const GET_VERSION: u8 = 0x02;
    /// Read an endpoint's changelog.
    pub const GET_CHANGELOG: u8 = 0x03;
    /// Read one `(endpoint, version)` delta record.
    pub const GET_DELTA: u8 = 0x04;
    /// Read an endpoint's latest snapshot record.
    pub const GET_SNAPSHOT: u8 = 0x05;
    /// Liveness probe; echoes an empty body.
    pub const PING: u8 = 0x06;
    /// Read a partition's version record, then an endpoint's changelog.
    pub const POLL: u8 = 0x07;

    /// Response opcodes are the request op with the top bit set
    /// (`0x81..=0x87`), except errors.
    pub const RESPONSE_BIT: u8 = 0x80;
    /// Error response to any request.
    pub const ERROR: u8 = 0xFF;
}

/// Error codes carried by `op::ERROR` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// Every replica of the addressed shard was unreachable.
    Unreachable = 1,
    /// The request body did not decode.
    BadRequest = 2,
    /// The peer's protocol version is not supported.
    UnsupportedVersion = 3,
    /// Declared body length exceeds the receiver's cap.
    Oversized = 4,
    /// The request frame's body checksum failed.
    BadCrc = 5,
}

impl ErrorCode {
    /// Decodes a wire error code.
    pub fn from_u16(v: u16) -> Option<Self> {
        Some(match v {
            1 => ErrorCode::Unreachable,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::UnsupportedVersion,
            4 => ErrorCode::Oversized,
            5 => ErrorCode::BadCrc,
            _ => return None,
        })
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Version negotiation: the inclusive range of protocol versions
    /// the client speaks. Body: `u8 min | u8 max`.
    Hello {
        /// Lowest protocol version the client accepts.
        min_version: u8,
        /// Highest protocol version the client accepts.
        max_version: u8,
    },
    /// `TeKey::Version { partition }` read. Body: `u32 partition`.
    GetVersion {
        /// Controller partition whose clock to read.
        partition: u32,
    },
    /// `TeKey::Changelog { endpoint }` read. Body: `u64 endpoint`.
    GetChangelog {
        /// Source endpoint id.
        endpoint: u64,
    },
    /// `TeKey::Delta { endpoint, version }` read. Body:
    /// `u64 endpoint | u64 version`.
    GetDelta {
        /// Source endpoint id.
        endpoint: u64,
        /// The delta's target config version.
        version: u64,
    },
    /// `TeKey::Snapshot { endpoint }` read. Body: `u64 endpoint`.
    GetSnapshot {
        /// Source endpoint id.
        endpoint: u64,
    },
    /// Liveness probe. Empty body.
    Ping,
    /// `TeKey::Version { partition }` then `TeKey::Changelog { endpoint }`,
    /// answered by one [`Response::Polled`]. Body:
    /// `u32 partition | u64 endpoint`.
    Poll {
        /// Controller partition whose clock to read.
        partition: u32,
        /// Source endpoint id whose changelog to read.
        endpoint: u64,
    },
}

/// The read request addressing a TE-DB key — the inverse of
/// [`Request::te_key`].
impl From<TeKey> for Request {
    fn from(key: TeKey) -> Self {
        match key {
            TeKey::Version { partition } => Request::GetVersion { partition },
            TeKey::Changelog { endpoint } => Request::GetChangelog { endpoint },
            TeKey::Delta { endpoint, version } => Request::GetDelta { endpoint, version },
            TeKey::Snapshot { endpoint } => Request::GetSnapshot { endpoint },
        }
    }
}

impl Request {
    /// The one `TeKey` a read request addresses; `None` for `Hello`,
    /// `Ping` and `Poll`, which reads two keys.
    pub fn te_key(&self) -> Option<TeKey> {
        Some(match *self {
            Request::GetVersion { partition } => TeKey::Version { partition },
            Request::GetChangelog { endpoint } => TeKey::Changelog { endpoint },
            Request::GetDelta { endpoint, version } => TeKey::Delta { endpoint, version },
            Request::GetSnapshot { endpoint } => TeKey::Snapshot { endpoint },
            Request::Hello { .. } | Request::Ping | Request::Poll { .. } => return None,
        })
    }

    /// This request's opcode.
    pub fn op(&self) -> u8 {
        match self {
            Request::Hello { .. } => op::HELLO,
            Request::GetVersion { .. } => op::GET_VERSION,
            Request::GetChangelog { .. } => op::GET_CHANGELOG,
            Request::GetDelta { .. } => op::GET_DELTA,
            Request::GetSnapshot { .. } => op::GET_SNAPSHOT,
            Request::Ping => op::PING,
            Request::Poll { .. } => op::POLL,
        }
    }

    /// Encodes the op-specific body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.encode_body_into(&mut b);
        b
    }

    /// Appends the op-specific body to `out`.
    pub fn encode_body_into(&self, out: &mut Vec<u8>) {
        match *self {
            Request::Hello {
                min_version,
                max_version,
            } => out.extend_from_slice(&[min_version, max_version]),
            Request::GetVersion { partition } => out.extend_from_slice(&partition.to_be_bytes()),
            Request::GetChangelog { endpoint } | Request::GetSnapshot { endpoint } => {
                out.extend_from_slice(&endpoint.to_be_bytes())
            }
            Request::GetDelta { endpoint, version } => {
                out.extend_from_slice(&endpoint.to_be_bytes());
                out.extend_from_slice(&version.to_be_bytes());
            }
            Request::Ping => {}
            Request::Poll {
                partition,
                endpoint,
            } => {
                out.extend_from_slice(&partition.to_be_bytes());
                out.extend_from_slice(&endpoint.to_be_bytes());
            }
        }
    }

    /// Decodes a request from `(op, body)`; `None` on unknown op or
    /// malformed body (wrong length — every request body is fixed
    /// size).
    pub fn decode(op_byte: u8, body: &[u8]) -> Option<Request> {
        Some(match op_byte {
            op::HELLO => Request::Hello {
                min_version: *body.first()?,
                max_version: *body.get(1).filter(|_| body.len() == 2)?,
            },
            op::GET_VERSION => Request::GetVersion {
                partition: u32::from_be_bytes(body.get(0..4)?.try_into().ok()?),
            }
            .reject_trailing(body, 4)?,
            op::GET_CHANGELOG => Request::GetChangelog {
                endpoint: u64::from_be_bytes(body.get(0..8)?.try_into().ok()?),
            }
            .reject_trailing(body, 8)?,
            op::GET_DELTA => Request::GetDelta {
                endpoint: u64::from_be_bytes(body.get(0..8)?.try_into().ok()?),
                version: u64::from_be_bytes(body.get(8..16)?.try_into().ok()?),
            }
            .reject_trailing(body, 16)?,
            op::GET_SNAPSHOT => Request::GetSnapshot {
                endpoint: u64::from_be_bytes(body.get(0..8)?.try_into().ok()?),
            }
            .reject_trailing(body, 8)?,
            op::PING if body.is_empty() => Request::Ping,
            op::POLL => Request::Poll {
                partition: u32::from_be_bytes(body.get(0..4)?.try_into().ok()?),
                endpoint: u64::from_be_bytes(body.get(4..12)?.try_into().ok()?),
            }
            .reject_trailing(body, 12)?,
            _ => return None,
        })
    }

    fn reject_trailing(self, body: &[u8], want: usize) -> Option<Self> {
        (body.len() == want).then_some(self)
    }
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Version negotiation result: the version the server chose.
    /// Body: `u8 version`.
    HelloOk {
        /// The protocol version the connection will speak.
        version: u8,
    },
    /// A partition's version record. Body: `u8 present [| u64 value]`.
    VersionIs {
        /// The published version, `None` when nothing was published.
        version: Option<u64>,
    },
    /// A record read (changelog / delta / snapshot — the opcode echoes
    /// the request). Body: `u8 present [| raw record bytes]`.
    Record {
        /// Which request op this answers (`GET_CHANGELOG`, `GET_DELTA`
        /// or `GET_SNAPSHOT`).
        for_op: u8,
        /// The raw stored value; `None` when the key does not exist.
        value: Option<Vec<u8>>,
    },
    /// Liveness reply. Empty body.
    Pong,
    /// The answer to [`Request::Poll`]. Body:
    /// `u8 flags | [u64 version] | [changelog record bytes]`; flag bit 0
    /// says the version is present, bit 1 the changelog, and no other
    /// bit may be set.
    Polled {
        /// The partition's published version, `None` when nothing was
        /// published.
        version: Option<u64>,
        /// The endpoint's raw changelog record, read after the version,
        /// `None` when the endpoint has none.
        changelog: Option<Vec<u8>>,
    },
    /// Request failed. Body: `u16 code | u16 detail_len | detail`
    /// (UTF-8 diagnostic, not machine-parsed).
    Error {
        /// The failure class.
        code: ErrorCode,
        /// Human-readable diagnostic.
        detail: String,
    },
}

impl Response {
    /// This response's opcode.
    pub fn op(&self) -> u8 {
        match self {
            Response::HelloOk { .. } => op::HELLO | op::RESPONSE_BIT,
            Response::VersionIs { .. } => op::GET_VERSION | op::RESPONSE_BIT,
            Response::Record { for_op, .. } => for_op | op::RESPONSE_BIT,
            Response::Pong => op::PING | op::RESPONSE_BIT,
            Response::Polled { .. } => op::POLL | op::RESPONSE_BIT,
            Response::Error { .. } => op::ERROR,
        }
    }

    /// Encodes the op-specific body.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.encode_body_into(&mut b);
        b
    }

    /// Appends the op-specific body to `out`.
    pub fn encode_body_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::HelloOk { version } => out.push(*version),
            Response::VersionIs { version } => match version {
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_be_bytes());
                }
                None => out.push(0),
            },
            Response::Record { value, .. } => match value {
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(v);
                }
                None => out.push(0),
            },
            Response::Pong => {}
            Response::Polled { version, changelog } => {
                out.push(
                    (u8::from(version.is_some()) * POLLED_VERSION)
                        | (u8::from(changelog.is_some()) * POLLED_CHANGELOG),
                );
                if let Some(v) = version {
                    out.extend_from_slice(&v.to_be_bytes());
                }
                if let Some(log) = changelog {
                    out.extend_from_slice(log);
                }
            }
            Response::Error { code, detail } => {
                let d = detail.as_bytes();
                let d = &d[..d.len().min(u16::MAX as usize)];
                out.extend_from_slice(&(*code as u16).to_be_bytes());
                out.extend_from_slice(&(d.len() as u16).to_be_bytes());
                out.extend_from_slice(d);
            }
        }
    }

    /// Decodes a response from `(op, body)`; `None` on unknown op or
    /// malformed body.
    pub fn decode(op_byte: u8, body: &[u8]) -> Option<Response> {
        Some(match op_byte {
            b if b == op::HELLO | op::RESPONSE_BIT => Response::HelloOk {
                version: *body.first().filter(|_| body.len() == 1)?,
            },
            b if b == op::GET_VERSION | op::RESPONSE_BIT => match body.first()? {
                0 if body.len() == 1 => Response::VersionIs { version: None },
                1 if body.len() == 9 => Response::VersionIs {
                    version: Some(u64::from_be_bytes(body.get(1..9)?.try_into().ok()?)),
                },
                _ => return None,
            },
            b if (b == op::GET_CHANGELOG | op::RESPONSE_BIT)
                || (b == op::GET_DELTA | op::RESPONSE_BIT)
                || (b == op::GET_SNAPSHOT | op::RESPONSE_BIT) =>
            {
                let for_op = b & !op::RESPONSE_BIT;
                match body.first()? {
                    0 if body.len() == 1 => Response::Record {
                        for_op,
                        value: None,
                    },
                    1 => Response::Record {
                        for_op,
                        value: Some(body[1..].to_vec()),
                    },
                    _ => return None,
                }
            }
            b if b == op::PING | op::RESPONSE_BIT && body.is_empty() => Response::Pong,
            b if b == op::POLL | op::RESPONSE_BIT => {
                let (&flags, rest) = body.split_first()?;
                if flags & !(POLLED_VERSION | POLLED_CHANGELOG) != 0 {
                    return None;
                }
                let (version, rest) = if flags & POLLED_VERSION != 0 {
                    let (v, rest) = rest.split_first_chunk::<8>()?;
                    (Some(u64::from_be_bytes(*v)), rest)
                } else {
                    (None, rest)
                };
                let changelog = if flags & POLLED_CHANGELOG != 0 {
                    Some(rest.to_vec())
                } else if rest.is_empty() {
                    None
                } else {
                    return None;
                };
                Response::Polled { version, changelog }
            }
            op::ERROR => {
                let code =
                    ErrorCode::from_u16(u16::from_be_bytes(body.get(0..2)?.try_into().ok()?))?;
                let dlen = u16::from_be_bytes(body.get(2..4)?.try_into().ok()?) as usize;
                if body.len() != 4 + dlen {
                    return None;
                }
                // Strict UTF-8, so every decoded error re-encodes to the
                // bytes it came from.
                Response::Error {
                    code,
                    detail: String::from_utf8(body[4..].to_vec()).ok()?,
                }
            }
            _ => return None,
        })
    }
}

/// [`Response::Polled`] flag bit: the version follows.
const POLLED_VERSION: u8 = 1;
/// [`Response::Polled`] flag bit: the changelog record follows.
const POLLED_CHANGELOG: u8 = 1 << 1;

/// FNV-1a/32 — the frame body checksum.
pub fn crc32_fnv(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c9dc5;
    for &b in data {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    h
}

/// Assembles a full frame: header + body. `corrupt_crc` deliberately
/// breaks the checksum (the server's forwarding of a corrupted DB
/// read).
pub fn encode_frame(op_byte: u8, request_id: u64, body: &[u8], corrupt_crc: bool) -> Vec<u8> {
    let mut f = Vec::with_capacity(HEADER_LEN + body.len());
    encode_frame_into(&mut f, op_byte, request_id, corrupt_crc, |f| {
        f.extend_from_slice(body)
    });
    f
}

/// Appends a full frame to `out`: the header, then whatever `body`
/// appends, with the length and checksum fields filled in afterwards —
/// so a batch of frames is built in one buffer with no per-frame
/// allocation.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    op_byte: u8,
    request_id: u64,
    corrupt_crc: bool,
    body: impl FnOnce(&mut Vec<u8>),
) {
    let at = out.len();
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(PROTOCOL_VERSION);
    out.push(op_byte);
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&[0; 8]); // body_len, body_crc
    body(out);
    let body_at = at + HEADER_LEN;
    let len = (out.len() - body_at) as u32;
    let crc = crc32_fnv(&out[body_at..]) ^ if corrupt_crc { 0xFFFF_FFFF } else { 0 };
    out[at + 12..at + 16].copy_from_slice(&len.to_be_bytes());
    out[at + 16..body_at].copy_from_slice(&crc.to_be_bytes());
}

/// Encodes a request frame.
pub fn encode_request(req: &Request, request_id: u64) -> Vec<u8> {
    let mut f = Vec::new();
    encode_request_into(&mut f, req, request_id);
    f
}

/// Appends a request frame to `out`.
pub fn encode_request_into(out: &mut Vec<u8>, req: &Request, request_id: u64) {
    encode_frame_into(out, req.op(), request_id, false, |b| {
        req.encode_body_into(b)
    });
}

/// Encodes a response frame. `corrupt_crc` models a corrupted DB read
/// forwarded under a failing transport checksum.
pub fn encode_response(resp: &Response, request_id: u64, corrupt_crc: bool) -> Vec<u8> {
    let mut f = Vec::new();
    encode_response_into(&mut f, resp, request_id, corrupt_crc);
    f
}

/// Appends a response frame to `out`.
pub fn encode_response_into(
    out: &mut Vec<u8>,
    resp: &Response,
    request_id: u64,
    corrupt_crc: bool,
) {
    encode_frame_into(out, resp.op(), request_id, corrupt_crc, |b| {
        resp.encode_body_into(b)
    });
}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Protocol version byte.
    pub version: u8,
    /// Opcode byte.
    pub op: u8,
    /// Correlation id, echoed in responses.
    pub request_id: u64,
    /// Body length in bytes.
    pub body_len: u32,
    /// Body checksum (FNV-1a/32).
    pub body_crc: u32,
}

/// Why a frame could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The first two bytes were not [`MAGIC`] — the peer is not
    /// speaking this protocol; drop the connection.
    BadMagic,
    /// Unsupported protocol version (the offending byte).
    BadVersion(u8),
    /// Declared body length exceeds the receiver's cap.
    Oversized(u32),
    /// The body checksum failed — transport corruption; retryable.
    BadCrc,
    /// The body did not decode as the op's layout.
    Malformed,
    /// The peer closed mid-frame (header or body truncated).
    Truncated,
    /// Connection-level I/O failure.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Oversized(n) => write!(f, "declared body of {n} bytes exceeds cap"),
            FrameError::BadCrc => write!(f, "frame body checksum failed"),
            FrameError::Malformed => write!(f, "frame body did not decode"),
            FrameError::Truncated => write!(f, "peer closed mid-frame"),
            FrameError::Io(k) => write!(f, "i/o error: {k:?}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Parses the fixed 20-byte header. Fails fast on magic/version so a
/// garbage or incompatible peer costs one header read, not a body
/// allocation.
pub fn decode_header(bytes: &[u8; HEADER_LEN], max_body: u32) -> Result<Header, FrameError> {
    let magic = u16::from_be_bytes([bytes[0], bytes[1]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = bytes[2];
    let op_byte = bytes[3];
    let request_id = u64::from_be_bytes(bytes[4..12].try_into().unwrap());
    let body_len = u32::from_be_bytes(bytes[12..16].try_into().unwrap());
    let body_crc = u32::from_be_bytes(bytes[16..20].try_into().unwrap());
    if body_len > max_body {
        return Err(FrameError::Oversized(body_len));
    }
    Ok(Header {
        version,
        op: op_byte,
        request_id,
        body_len,
        body_crc,
    })
}

/// [`decode_header`] plus the version check every reader applies: a
/// frame of another protocol version is refused before its body.
fn accept_header(bytes: &[u8; HEADER_LEN], max_body: u32) -> Result<Header, FrameError> {
    let h = decode_header(bytes, max_body)?;
    if h.version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(h.version));
    }
    Ok(h)
}

/// Reads one frame (header + body) off a stream without enforcing the
/// body checksum: the body is `None` when the checksum failed. Because
/// the full declared body is consumed either way, the stream stays
/// frame-aligned after a checksum failure — callers can keep the
/// connection and fail only the one request (the `request_id` is in
/// the returned header).
///
/// Two reads per frame and a fresh body allocation: the simple reader
/// that [`FrameReader`] is tested against. The client and the server
/// read through [`FrameReader`].
pub async fn read_frame_unchecked(
    stream: &crate::io::AsyncStream,
    max_body: u32,
) -> Result<(Header, Option<Vec<u8>>), FrameError> {
    let mut hdr = [0u8; HEADER_LEN];
    read_exact_frame(stream, &mut hdr).await?;
    let h = accept_header(&hdr, max_body)?;
    let mut body = vec![0u8; h.body_len as usize];
    read_exact_frame(stream, &mut body).await?;
    if crc32_fnv(&body) != h.body_crc {
        return Ok((h, None));
    }
    Ok((h, Some(body)))
}

/// Bytes a [`FrameReader`] asks the socket for at a time.
const READ_BUF: usize = 64 * 1024;

/// A buffered frame reader: one `read` into a reused buffer yields
/// every complete frame it brought in, so a peer that pipelines
/// requests (or a server that answers a batch) costs one syscall per
/// batch rather than two per frame. Frame for frame it returns what
/// [`read_frame_unchecked`] would, errors included.
///
/// The buffer is 64 KiB; it grows only while a single body
/// larger than that (still capped by `max_body`) is in flight, and
/// shrinks back afterwards.
pub struct FrameReader {
    buf: Vec<u8>,
    /// Unparsed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    max_body: u32,
}

impl FrameReader {
    /// A reader refusing bodies over `max_body` bytes.
    pub fn new(max_body: u32) -> Self {
        Self {
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
            max_body,
        }
    }

    /// The header at the parse position, once all of it is buffered.
    fn peek_header(&self) -> Option<Result<Header, FrameError>> {
        let bytes = self.buf[self.start..self.end].first_chunk::<HEADER_LEN>()?;
        Some(accept_header(bytes, self.max_body))
    }

    /// Whether [`next`](Self::next) would return without reading the
    /// socket: a complete frame, or a header it refuses, is buffered.
    pub fn has_frame(&self) -> bool {
        match self.peek_header() {
            None => false,
            Some(Err(_)) => true,
            Some(Ok(h)) => self.end - self.start >= HEADER_LEN + h.body_len as usize,
        }
    }

    /// The next frame: its header and its body, `None` when the body
    /// checksum failed (the frame is consumed either way, so the
    /// stream stays aligned). Reads the socket only when no complete
    /// frame is buffered.
    pub async fn next(
        &mut self,
        stream: &crate::io::AsyncStream,
    ) -> Result<(Header, Option<&[u8]>), FrameError> {
        let header = loop {
            let want = match self.peek_header() {
                None => HEADER_LEN,
                Some(h) => {
                    let h = h?;
                    let frame_len = HEADER_LEN + h.body_len as usize;
                    if self.end - self.start >= frame_len {
                        break h;
                    }
                    frame_len
                }
            };
            self.make_room(want);
            match stream.read(&mut self.buf[self.end..]).await {
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.end += n,
                Err(e) => return Err(FrameError::Io(e.kind())),
            }
        };
        let body_at = self.start + HEADER_LEN;
        self.start = body_at + header.body_len as usize;
        let body = &self.buf[body_at..self.start];
        Ok((header, (crc32_fnv(body) == header.body_crc).then_some(body)))
    }

    /// Moves the partial frame to the front and sizes the buffer for a
    /// frame of `frame_len` bytes.
    fn make_room(&mut self, frame_len: usize) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        // The partial frame is shorter than `frame_len`, so it fits.
        let size = frame_len.max(READ_BUF);
        if self.buf.len() != size {
            self.buf.resize(size, 0);
            self.buf.shrink_to(size);
        }
    }
}

/// Reads one frame (header + body) off a stream. Returns the header
/// and the **verified** body; a checksum failure is [`FrameError::BadCrc`].
pub async fn read_frame(
    stream: &crate::io::AsyncStream,
    max_body: u32,
) -> Result<(Header, Vec<u8>), FrameError> {
    let (h, body) = read_frame_unchecked(stream, max_body).await?;
    body.map(|b| (h, b)).ok_or(FrameError::BadCrc)
}

async fn read_exact_frame(
    stream: &crate::io::AsyncStream,
    buf: &mut [u8],
) -> Result<(), FrameError> {
    match stream.read_exact(buf).await {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(FrameError::Truncated),
        Err(e) => Err(FrameError::Io(e.kind())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_layout_is_twenty_bytes() {
        let f = encode_request(&Request::Ping, 7);
        assert_eq!(f.len(), HEADER_LEN);
        assert_eq!(&f[0..2], &[0x4D, 0x54]);
        assert_eq!(f[2], PROTOCOL_VERSION);
        assert_eq!(f[3], op::PING);
        assert_eq!(&f[4..12], &7u64.to_be_bytes());
        assert_eq!(&f[12..16], &0u32.to_be_bytes());
    }

    #[test]
    fn request_bodies_roundtrip() {
        for req in [
            Request::Hello {
                min_version: 1,
                max_version: 3,
            },
            Request::GetVersion { partition: 9 },
            Request::GetChangelog { endpoint: 42 },
            Request::GetDelta {
                endpoint: 42,
                version: 17,
            },
            Request::GetSnapshot { endpoint: 1 << 40 },
            Request::Ping,
            Request::Poll {
                partition: 3,
                endpoint: 42,
            },
        ] {
            let body = req.encode_body();
            assert_eq!(Request::decode(req.op(), &body), Some(req.clone()));
        }
    }

    #[test]
    fn response_bodies_roundtrip() {
        for resp in [
            Response::HelloOk { version: 1 },
            Response::VersionIs { version: None },
            Response::VersionIs { version: Some(123) },
            Response::Record {
                for_op: op::GET_DELTA,
                value: None,
            },
            Response::Record {
                for_op: op::GET_SNAPSHOT,
                value: Some(vec![1, 2, 3]),
            },
            Response::Pong,
            Response::Polled {
                version: Some(9),
                changelog: Some(vec![4, 5]),
            },
            Response::Polled {
                version: None,
                changelog: None,
            },
            Response::Error {
                code: ErrorCode::Unreachable,
                detail: "shard 3 unreachable".into(),
            },
        ] {
            let body = resp.encode_body();
            assert_eq!(Response::decode(resp.op(), &body), Some(resp.clone()));
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::GetVersion { partition: 1 }.encode_body();
        body.push(0);
        assert_eq!(Request::decode(op::GET_VERSION, &body), None);
    }

    #[test]
    fn corrupt_crc_flag_breaks_the_checksum() {
        let resp = Response::Pong;
        let good = encode_response(&resp, 1, false);
        let bad = encode_response(&resp, 1, true);
        let good_crc = u32::from_be_bytes(good[16..20].try_into().unwrap());
        let bad_crc = u32::from_be_bytes(bad[16..20].try_into().unwrap());
        assert_ne!(good_crc, bad_crc);
        assert_eq!(crc32_fnv(&[]), good_crc);
    }

    #[test]
    fn requests_map_onto_the_te_keyspace() {
        assert_eq!(
            Request::GetVersion { partition: 2 }.te_key(),
            Some(TeKey::Version { partition: 2 })
        );
        assert_eq!(
            Request::GetDelta {
                endpoint: 5,
                version: 9
            }
            .te_key(),
            Some(TeKey::Delta {
                endpoint: 5,
                version: 9
            })
        );
        assert_eq!(Request::Ping.te_key(), None);
        for key in [
            TeKey::Version { partition: 2 },
            TeKey::Changelog { endpoint: 5 },
            TeKey::Delta {
                endpoint: 5,
                version: 9,
            },
            TeKey::Snapshot { endpoint: 5 },
        ] {
            assert_eq!(Request::from(key).te_key(), Some(key), "1:1 both ways");
        }
    }
}
