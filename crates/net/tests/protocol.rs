//! Wire-protocol edge cases: every way a frame can be wrong, plus the
//! codec round-trip and the layout fingerprint that pins PROTOCOL.md
//! to the code.

use megate_net::frame::{
    self, crc32_fnv, decode_header, encode_frame, encode_request, encode_response, op, ErrorCode,
    FrameError, Request, Response, DEFAULT_MAX_BODY, HEADER_LEN, MAGIC, PROTOCOL_VERSION,
};
use megate_net::io::{AsyncStream, Endpoint};
use megate_net::server::{Server, ServerState};
use megate_net::Executor;
use megate_tedb::TeDatabase;
use proptest::prelude::*;
use std::sync::Arc;

fn start_server(exec: &Executor) -> (Arc<ServerState>, Endpoint) {
    let db = TeDatabase::new(4);
    db.publish_version(5);
    let state = ServerState::new(db);
    let server = Server::start(
        state.clone(),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        exec,
    )
    .expect("bind");
    (state, server.local().clone())
}

async fn read_response(conn: &AsyncStream) -> Result<(u64, Response), FrameError> {
    let (hdr, body) = frame::read_frame(conn, DEFAULT_MAX_BODY).await?;
    let resp = Response::decode(hdr.op, &body).ok_or(FrameError::Malformed)?;
    Ok((hdr.request_id, resp))
}

#[test]
fn garbage_frames_hang_up_without_a_response() {
    let exec = Executor::new(2);
    let (_state, ep) = start_server(&exec);
    exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        // Exactly HEADER_LEN bytes so the server's header read
        // completes and the close is a clean FIN (no unread bytes).
        conn.write_all(b"GET / HTTP/1.1\r\nZZ\r\n").await.unwrap();
        // Bad magic: the server drops the connection without writing.
        let mut buf = [0u8; 64];
        match conn.read(&mut buf).await {
            Ok(n) => assert_eq!(n, 0, "server must hang up on garbage, got {n} bytes"),
            // A racing RST (server closed before draining) is also a hang-up.
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset),
        }
    });
}

#[test]
fn version_mismatch_is_rejected_with_unsupported_version() {
    let exec = Executor::new(2);
    let (_state, ep) = start_server(&exec);
    exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        // A well-formed frame with a future protocol version.
        let mut f = encode_request(&Request::Ping, 9);
        f[2] = PROTOCOL_VERSION + 1;
        conn.write_all(&f).await.unwrap();
        let (_, resp) = read_response(&conn).await.expect("server responds");
        match resp {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
            other => panic!("expected UnsupportedVersion error, got {other:?}"),
        }
        // ... and then hangs up: the peer speaks a version we can't parse.
        let mut buf = [0u8; 16];
        assert_eq!(conn.read(&mut buf).await.unwrap(), 0);
    });
}

#[test]
fn oversized_frames_are_rejected_before_the_body_is_read() {
    let exec = Executor::new(2);
    let (_state, ep) = start_server(&exec);
    exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        // Header declaring a 256 MiB body; no body follows.
        let mut f = Vec::new();
        f.extend_from_slice(&MAGIC.to_be_bytes());
        f.push(PROTOCOL_VERSION);
        f.push(op::PING);
        f.extend_from_slice(&7u64.to_be_bytes());
        f.extend_from_slice(&(256u32 << 20).to_be_bytes());
        f.extend_from_slice(&0u32.to_be_bytes());
        conn.write_all(&f).await.unwrap();
        let (_, resp) = read_response(&conn).await.expect("server responds");
        match resp {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
            other => panic!("expected Oversized error, got {other:?}"),
        }
        let mut buf = [0u8; 16];
        assert_eq!(
            conn.read(&mut buf).await.unwrap(),
            0,
            "stream is desynced; must close"
        );
    });
}

#[test]
fn corrupt_request_body_fails_only_that_request() {
    let exec = Executor::new(2);
    let (_state, ep) = start_server(&exec);
    exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        // A frame whose body checksum is deliberately wrong...
        let bad = encode_frame(
            op::GET_VERSION,
            11,
            &Request::GetVersion { partition: 0 }.encode_body(),
            true,
        );
        conn.write_all(&bad).await.unwrap();
        let (id, resp) = read_response(&conn).await.expect("server responds");
        assert_eq!(id, 11, "error must echo the corrupt frame's request id");
        match resp {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadCrc),
            other => panic!("expected BadCrc error, got {other:?}"),
        }
        // ...does not cost the connection: the next request succeeds.
        conn.write_all(&encode_request(&Request::GetVersion { partition: 0 }, 12))
            .await
            .unwrap();
        let (id, resp) = read_response(&conn).await.expect("conn survives");
        assert_eq!(id, 12);
        assert_eq!(resp, Response::VersionIs { version: Some(5) });
    });
}

#[test]
fn undecodable_body_yields_bad_request() {
    let exec = Executor::new(2);
    let (_state, ep) = start_server(&exec);
    exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        // Valid checksum, wrong body length for the op.
        let f = encode_frame(op::GET_VERSION, 3, &[1, 2], false);
        conn.write_all(&f).await.unwrap();
        let (id, resp) = read_response(&conn).await.expect("server responds");
        assert_eq!(id, 3);
        match resp {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("expected BadRequest error, got {other:?}"),
        }
    });
}

#[test]
fn mid_frame_disconnect_is_truncation_for_the_reader() {
    let exec = Executor::new(2);
    let (_state, ep) = start_server(&exec);
    // Client sends half a header and disconnects: the server just
    // drops the conn. Symmetrically, test the client-side reader: a
    // peer that closes mid-frame produces FrameError::Truncated.
    exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        let f = encode_request(&Request::GetVersion { partition: 0 }, 1);
        conn.write_all(&f[..HEADER_LEN / 2]).await.unwrap();
        conn.shutdown_write();
        let mut buf = [0u8; 16];
        assert_eq!(
            conn.read(&mut buf).await.unwrap(),
            0,
            "server drops half-frames"
        );
    });
    // Client side: a server look-alike that truncates.
    let listener =
        megate_net::AsyncListener::bind_tcp("127.0.0.1:0".parse().unwrap()).expect("bind");
    let ep = listener.local().clone();
    exec.spawn(async move {
        let conn = listener.accept().await.unwrap();
        let full = encode_response(&Response::Pong, 1, false);
        conn.write_all(&full[..HEADER_LEN - 3]).await.unwrap();
        conn.shutdown_write();
        // Hold the socket open until the peer finishes reading.
        let mut b = [0u8; 1];
        let _ = conn.read(&mut b).await;
    });
    exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        let err = frame::read_frame(&conn, DEFAULT_MAX_BODY)
            .await
            .unwrap_err();
        assert_eq!(err, FrameError::Truncated);
    });
}

#[test]
fn header_decode_rejects_bad_magic_and_oversize() {
    let good = encode_request(&Request::Ping, 1);
    let mut hdr = [0u8; HEADER_LEN];
    hdr.copy_from_slice(&good[..HEADER_LEN]);
    assert!(decode_header(&hdr, DEFAULT_MAX_BODY).is_ok());

    let mut bad = hdr;
    bad[0] = 0x00;
    assert_eq!(
        decode_header(&bad, DEFAULT_MAX_BODY).unwrap_err(),
        FrameError::BadMagic
    );

    let mut big = hdr;
    big[12..16].copy_from_slice(&(DEFAULT_MAX_BODY + 1).to_be_bytes());
    assert!(matches!(
        decode_header(&big, DEFAULT_MAX_BODY).unwrap_err(),
        FrameError::Oversized(_)
    ));
}

/// Regression: the kernel reuses fd numbers the instant a socket
/// closes, so a reactor rearm still in flight for a dropped
/// registration must never touch the reused fd (it would clobber the
/// successor's armed mask and strand its waker — a 50% hang before
/// the `dead`-flag fix). Rapid connect/request/close churn is the
/// amplifier: every iteration hands the next connection the same fd.
#[test]
fn rapid_connection_churn_never_strands_a_waker() {
    let exec = Executor::new(2);
    let (_state, ep) = start_server(&exec);
    for round in 0..60u64 {
        exec.block_on({
            let ep = ep.clone();
            async move {
                let conn = AsyncStream::connect(&ep).await.unwrap();
                conn.write_all(&encode_request(&Request::Ping, round))
                    .await
                    .unwrap();
                let (id, resp) = read_response(&conn).await.expect("pong");
                assert_eq!(id, round);
                assert_eq!(resp, Response::Pong);
            }
        });
    }
}

// ---- codec round-trips over the whole variant space ----

fn build_request(which: u8, a: u64, b: u64) -> Request {
    match which {
        0 => Request::Hello {
            min_version: a as u8,
            max_version: b as u8,
        },
        1 => Request::GetVersion {
            partition: a as u32,
        },
        2 => Request::GetChangelog { endpoint: a },
        3 => Request::GetDelta {
            endpoint: a,
            version: b,
        },
        4 => Request::GetSnapshot { endpoint: a },
        5 => Request::Poll {
            partition: a as u32,
            endpoint: b,
        },
        _ => Request::Ping,
    }
}

fn build_response(which: u8, v: u64, bytes: Vec<u8>) -> Response {
    match which {
        0 => Response::HelloOk { version: v as u8 },
        1 => Response::VersionIs {
            version: v.is_multiple_of(2).then_some(v),
        },
        2 => Response::Record {
            for_op: [op::GET_CHANGELOG, op::GET_DELTA, op::GET_SNAPSHOT][(v % 3) as usize],
            value: (!v.is_multiple_of(3)).then_some(bytes),
        },
        3 => Response::Pong,
        // Every flag combination; `bytes` may be empty, so an empty
        // changelog is covered as well as an absent one.
        4 => Response::Polled {
            version: (v & 1 != 0).then_some(v),
            changelog: (v & 2 != 0).then_some(bytes),
        },
        _ => Response::Error {
            code: ErrorCode::from_u16(1 + (v % 5) as u16).unwrap(),
            detail: String::from_utf8_lossy(&bytes).into_owned(),
        },
    }
}

proptest! {
    /// Every request variant survives encode → frame → decode.
    #[test]
    fn request_frames_roundtrip(
        which in 0u8..7,
        a in any::<u64>(),
        b in any::<u64>(),
        id in any::<u64>(),
    ) {
        let req = build_request(which, a, b);
        let f = encode_request(&req, id);
        let mut hdr = [0u8; HEADER_LEN];
        hdr.copy_from_slice(&f[..HEADER_LEN]);
        let h = decode_header(&hdr, DEFAULT_MAX_BODY).expect("header decodes");
        prop_assert_eq!(h.request_id, id);
        prop_assert_eq!(h.body_len as usize, f.len() - HEADER_LEN);
        prop_assert_eq!(crc32_fnv(&f[HEADER_LEN..]), h.body_crc);
        prop_assert_eq!(Request::decode(h.op, &f[HEADER_LEN..]), Some(req));
    }

    /// Every response variant survives encode → frame → decode.
    #[test]
    fn response_frames_roundtrip(
        which in 0u8..6,
        v in any::<u64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        id in any::<u64>(),
    ) {
        let resp = build_response(which, v, bytes);
        let f = encode_response(&resp, id, false);
        let mut hdr = [0u8; HEADER_LEN];
        hdr.copy_from_slice(&f[..HEADER_LEN]);
        let h = decode_header(&hdr, DEFAULT_MAX_BODY).expect("header decodes");
        prop_assert_eq!(h.request_id, id);
        prop_assert_eq!(crc32_fnv(&f[HEADER_LEN..]), h.body_crc);
        prop_assert_eq!(Response::decode(h.op, &f[HEADER_LEN..]), Some(resp));
    }

    /// Arbitrary header bytes must never panic the decoder.
    #[test]
    fn header_decode_never_panics(bytes in any::<[u8; HEADER_LEN]>()) {
        let _ = decode_header(&bytes, DEFAULT_MAX_BODY);
    }

    /// Every op byte with an arbitrary 0–64-byte body: neither decoder
    /// panics, and whatever decodes re-encodes under the same op to the
    /// very body it came from — one canonical encoding per message.
    /// `head` sometimes overwrites the body's front with a small flag
    /// byte or a consistent error header, so the structured layouts are
    /// reached and not only their rejections.
    #[test]
    fn arbitrary_bodies_decode_canonically(
        body in proptest::collection::vec(any::<u8>(), 0..65),
        head in 0u8..3,
        small in 0u8..8,
    ) {
        let mut body = body;
        match head {
            1 if !body.is_empty() => body[0] = small % 4,
            2 if body.len() >= 4 => {
                let detail = (body.len() - 4) as u16;
                body[0..2].copy_from_slice(&u16::from(small).to_be_bytes());
                body[2..4].copy_from_slice(&detail.to_be_bytes());
            }
            _ => {}
        }
        for op_byte in 0..=u8::MAX {
            if let Some(req) = Request::decode(op_byte, &body) {
                prop_assert_eq!(req.op(), op_byte);
                prop_assert_eq!(req.encode_body(), body.clone(), "{:?}", req);
            }
            if let Some(resp) = Response::decode(op_byte, &body) {
                prop_assert_eq!(resp.op(), op_byte);
                prop_assert_eq!(resp.encode_body(), body.clone(), "{:?}", resp);
            }
        }
    }
}

// ---- layout fingerprint pinning PROTOCOL.md ----

/// Canonical encodings of every op with fixed field values. Any change
/// to the header layout, opcode numbering, endianness, checksum or
/// body layout changes this fingerprint — and PROTOCOL.md (which
/// documents those bytes) must be re-verified and updated to match.
fn codec_fingerprint() -> u64 {
    let requests = [
        Request::Hello {
            min_version: 1,
            max_version: 1,
        },
        Request::GetVersion { partition: 2 },
        Request::GetChangelog { endpoint: 3 },
        Request::GetDelta {
            endpoint: 4,
            version: 5,
        },
        Request::GetSnapshot { endpoint: 6 },
        Request::Ping,
        Request::Poll {
            partition: 2,
            endpoint: 3,
        },
    ];
    let responses = [
        Response::HelloOk { version: 1 },
        Response::VersionIs { version: Some(7) },
        Response::VersionIs { version: None },
        Response::Record {
            for_op: op::GET_CHANGELOG,
            value: Some(vec![0xAB, 0xCD]),
        },
        Response::Record {
            for_op: op::GET_DELTA,
            value: None,
        },
        Response::Record {
            for_op: op::GET_SNAPSHOT,
            value: Some(vec![]),
        },
        Response::Pong,
        Response::Error {
            code: ErrorCode::Unreachable,
            detail: "x".into(),
        },
        Response::Polled {
            version: Some(7),
            changelog: Some(vec![0xAB, 0xCD]),
        },
        Response::Polled {
            version: None,
            changelog: None,
        },
    ];
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: Vec<u8>| {
        for b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (i, r) in requests.iter().enumerate() {
        eat(encode_request(r, 0x1000 + i as u64));
    }
    for (i, r) in responses.iter().enumerate() {
        eat(encode_response(r, 0x2000 + i as u64, false));
    }
    h
}

#[test]
fn protocol_md_pins_the_codec_fingerprint() {
    let fp = format!("{:#018x}", codec_fingerprint());
    let doc = include_str!("../../../PROTOCOL.md");
    assert!(
        doc.contains(&fp),
        "PROTOCOL.md is out of date: the codec fingerprint is now {fp}. \
         Re-verify the documented byte layouts against crates/net/src/frame.rs \
         and update the fingerprint line."
    );
}
