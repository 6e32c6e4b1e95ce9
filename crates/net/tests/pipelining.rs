//! The server under pipelined requests: answers stay in request order
//! and byte-exact, transport faults hit the same responses whether the
//! requests arrive one at a time or all at once, and a response that is
//! ready is on the wire before the server waits on anything else.

use megate_net::frame::{
    decode_header, encode_frame, encode_request, op, ErrorCode, FrameReader, Request, Response,
    DEFAULT_MAX_BODY, HEADER_LEN,
};
use megate_net::io::{AsyncStream, Endpoint};
use megate_net::server::{Server, ServerState, TransportFaults};
use megate_net::Executor;
use megate_tedb::{TeDatabase, TeKey};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_server(exec: &Executor, db: TeDatabase) -> (Arc<ServerState>, Endpoint) {
    let state = ServerState::new(db);
    let server = Server::start(
        state.clone(),
        &Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        exec,
    )
    .expect("bind");
    (state, server.local().clone())
}

/// 500 requests of every kind — data reads that hit and miss, pings,
/// an undecodable body, a failed checksum — sent in one write come
/// back as 500 responses in request order, and the server's byte
/// counters match the wire exactly.
#[test]
fn five_hundred_mixed_requests_in_one_write_are_answered_in_order() {
    const N: u64 = 500;
    let exec = Executor::new(2);
    let db = TeDatabase::new(4);
    db.publish_version(5);
    for e in 0..8u64 {
        db.put(
            &TeKey::Snapshot { endpoint: e },
            vec![e as u8; 40 + e as usize],
        );
    }
    let (state, ep) = start_server(&exec, db);

    let mut wire = Vec::new();
    let mut want = Vec::new();
    let mut want_bytes_in = 0u64;
    for id in 1..=N {
        let e = id % 8;
        let (frame, resp) = match id % 7 {
            0 => (encode_request(&Request::Ping, id), Response::Pong),
            1 => (
                encode_request(&Request::GetVersion { partition: 0 }, id),
                Response::VersionIs { version: Some(5) },
            ),
            2 => (
                encode_request(&Request::GetSnapshot { endpoint: e }, id),
                Response::Record {
                    for_op: op::GET_SNAPSHOT,
                    value: Some(vec![e as u8; 40 + e as usize]),
                },
            ),
            3 => (
                encode_request(&Request::GetChangelog { endpoint: e }, id),
                Response::Record {
                    for_op: op::GET_CHANGELOG,
                    value: None,
                },
            ),
            4 => (
                encode_request(
                    &Request::GetDelta {
                        endpoint: e,
                        version: 3,
                    },
                    id,
                ),
                Response::Record {
                    for_op: op::GET_DELTA,
                    value: None,
                },
            ),
            5 => (
                encode_frame(op::GET_VERSION, id, &[1, 2, 3], false),
                Response::Error {
                    code: ErrorCode::BadRequest,
                    detail: String::new(),
                },
            ),
            _ => (
                encode_frame(op::PING, id, &[], true),
                Response::Error {
                    code: ErrorCode::BadCrc,
                    detail: String::new(),
                },
            ),
        };
        if id % 7 != 6 {
            want_bytes_in += frame.len() as u64; // a failed checksum is not counted
        }
        wire.extend(frame);
        want.push((id, resp));
    }

    let (got, got_bytes) = exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        conn.write_all(&wire).await.unwrap();
        let mut reader = FrameReader::new(DEFAULT_MAX_BODY);
        let mut got = Vec::new();
        let mut bytes = 0u64;
        // Anything short of a decodable response ends the list early;
        // the comparison below then names the first one missing.
        while let Ok((hdr, Some(body))) = reader.next(&conn).await {
            bytes += (HEADER_LEN + body.len()) as u64;
            let resp = match Response::decode(hdr.op, body) {
                // The diagnostic text is not part of the contract.
                Some(Response::Error { code, .. }) => Response::Error {
                    code,
                    detail: String::new(),
                },
                Some(other) => other,
                None => break,
            };
            got.push((hdr.request_id, resp));
            if got.len() as u64 == N {
                break;
            }
        }
        (got, bytes)
    });
    assert_eq!(got, want);
    assert_eq!(state.bytes_out(), got_bytes);
    assert_eq!(state.bytes_in(), want_bytes_in);
}

// ---- fault determinism ----

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// The whole response frame arrived (written at once or dribbled).
    Answered,
    /// The connection closed with no byte of the response.
    Reset,
    /// The connection closed part-way through the response.
    Truncated,
}

/// Reads until the peer closes (or `want` complete frames are in):
/// the ids answered in full, and whether a partial frame was left.
async fn read_until_close(conn: &AsyncStream, want: usize) -> (Vec<u64>, bool) {
    let mut bytes = Vec::new();
    let mut ids = Vec::new();
    let mut at = 0;
    loop {
        while let Some(hdr) = bytes[at..].first_chunk::<HEADER_LEN>() {
            let hdr = decode_header(hdr, DEFAULT_MAX_BODY).expect("server frames are well-formed");
            let end = at + HEADER_LEN + hdr.body_len as usize;
            if bytes.len() < end {
                break;
            }
            ids.push(hdr.request_id);
            at = end;
        }
        if ids.len() == want {
            return (ids, false);
        }
        let mut buf = [0u8; 4096];
        match conn.read(&mut buf).await {
            Ok(0) | Err(_) => return (ids, bytes.len() > at),
            Ok(n) => bytes.extend_from_slice(&buf[..n]),
        }
    }
}

/// Sends pings `1..=n`, `batch` at a time per connection, reconnecting
/// after every connection the server kills; returns each id's fate and
/// the server's count of response bytes.
fn fates(exec: &Executor, faults: TransportFaults, n: u64, batch: u64) -> (Vec<Fate>, u64) {
    let (state, ep) = start_server(exec, TeDatabase::new(2));
    state.set_transport_faults(faults);
    // (A failed assertion inside a task would take its worker down and
    // hang `block_on`, so the task reports and the test asserts.)
    let (fates, in_order) = exec.block_on(async move {
        let mut fates = Vec::new();
        let mut in_order = true;
        let mut next = 1u64;
        while next <= n {
            let conn = AsyncStream::connect(&ep).await.unwrap();
            // One connection serves batches until a fault closes it.
            loop {
                let last = (next + batch - 1).min(n);
                let mut wire = Vec::new();
                for id in next..=last {
                    wire.extend(encode_request(&Request::Ping, id));
                }
                conn.write_all(&wire).await.unwrap();
                let (ids, partial) = read_until_close(&conn, (last - next + 1) as usize).await;
                let answered = ids.len() as u64;
                in_order &= ids == (next..next + answered).collect::<Vec<_>>();
                fates.extend((0..answered).map(|_| Fate::Answered));
                next += answered;
                if next > last {
                    if next > n {
                        break;
                    }
                    continue; // the connection survived the batch
                }
                fates.push(if partial {
                    Fate::Truncated
                } else {
                    Fate::Reset
                });
                next += 1;
                break;
            }
        }
        (fates, in_order)
    });
    assert!(in_order, "answers come in request order");
    let out = (fates, state.bytes_out());
    state.shutdown();
    out
}

/// Which responses a seeded fault plan destroys does not depend on how
/// the requests were batched: the answers computed before a fault are
/// delivered, the faulted request is the one that pays, and the roll
/// sequence advances once per response either way.
#[test]
fn transport_faults_hit_the_same_responses_batched_or_not() {
    const N: u64 = 240;
    let exec = Executor::new(2);
    let faults = TransportFaults {
        reset_ppm: 60_000,
        truncate_ppm: 60_000,
        stall_ppm: 40_000,
        stall_chunk_delay: Duration::from_millis(1),
        seed: 0xfa_17,
    };
    let (one_by_one, bytes_single) = fates(&exec, faults.clone(), N, 1);
    let (batched, bytes_batched) = fates(&exec, faults.clone(), N, N);
    let (in_eights, _) = fates(&exec, faults, N, 8);
    assert_eq!(one_by_one.len(), N as usize);
    for fate in [Fate::Answered, Fate::Reset, Fate::Truncated] {
        assert!(
            one_by_one.contains(&fate),
            "the plan exercises {fate:?}: {one_by_one:?}"
        );
    }
    assert_eq!(batched, one_by_one);
    assert_eq!(in_eights, one_by_one);
    assert_eq!(bytes_batched, bytes_single, "complete responses only");
}

/// A response that is ready goes out before the server sleeps off the
/// next request's injected shard latency.
#[test]
fn a_ready_response_is_not_held_behind_a_slow_shard() {
    const SLOW: Duration = Duration::from_millis(400);
    let exec = Executor::new(2);
    let db = TeDatabase::new(4);
    let slow_key = TeKey::Snapshot { endpoint: 1 };
    let slow_shard = db.shard_of(&slow_key);
    let fast_endpoint = (2..64u64)
        .find(|&e| db.shard_of(&TeKey::Snapshot { endpoint: e }) != slow_shard)
        .expect("some endpoint lives on another shard");
    db.put(&slow_key, vec![1; 32]);
    db.put(
        &TeKey::Snapshot {
            endpoint: fast_endpoint,
        },
        vec![2; 32],
    );
    db.set_shard_slow(slow_shard, SLOW.as_nanos() as u64);
    let (_state, ep) = start_server(&exec, db);

    let (fast, slow, ids) = exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        let mut wire = encode_request(
            &Request::GetSnapshot {
                endpoint: fast_endpoint,
            },
            1,
        );
        wire.extend(encode_request(&Request::GetSnapshot { endpoint: 1 }, 2));
        let t = Instant::now();
        conn.write_all(&wire).await.unwrap();
        let mut reader = FrameReader::new(DEFAULT_MAX_BODY);
        let first = reader.next(&conn).await.map(|(hdr, _)| hdr.request_id);
        let fast = t.elapsed();
        let second = reader.next(&conn).await.map(|(hdr, _)| hdr.request_id);
        (fast, t.elapsed(), [first, second])
    });
    assert_eq!(ids, [Ok(1), Ok(2)]);
    assert!(slow >= SLOW, "the slow read was slow: {slow:?}");
    assert!(
        fast < SLOW / 4,
        "the fast response waited {fast:?} behind a {SLOW:?} shard"
    );
}
