//! `FrameReader` against the unbuffered `read_frame_unchecked`: the
//! same bytes, cut into the same chunks, must come out as the same
//! sequence of frames and end in the same error.

use megate_net::frame::{
    encode_frame, read_frame_unchecked, FrameError, FrameReader, Header, DEFAULT_MAX_BODY,
    HEADER_LEN, PROTOCOL_VERSION,
};
use megate_net::io::{AsyncListener, AsyncStream};
use megate_net::reactor::Sleep;
use megate_net::Executor;
use std::sync::atomic::{AtomicU32, Ordering};
use std::task::Poll;
use std::time::Duration;

type Frames = Vec<Result<(Header, Option<Vec<u8>>), FrameError>>;

/// splitmix64: the seeded stream every choice below is drawn from.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A connected Unix-socket pair.
async fn uds_pair() -> (AsyncStream, AsyncStream) {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let path = std::env::temp_dir().join(format!(
        "megate-frame-reader-{}-{}.sock",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let listener = AsyncListener::bind_unix(&path).expect("bind uds");
    let near = AsyncStream::connect(listener.local())
        .await
        .expect("connect");
    let far = listener.accept().await.expect("accept");
    (near, far)
}

/// Lets the other task run: pending once, woken at once.
async fn yield_now() {
    let mut yielded = false;
    std::future::poll_fn(|cx| {
        if yielded {
            return Poll::Ready(());
        }
        yielded = true;
        cx.waker().wake_by_ref();
        Poll::Pending
    })
    .await
}

/// How a generated stream ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ending {
    CleanEof,
    EofMidFrame,
    BadMagic,
    BadVersion,
    Oversized,
}

/// A seeded stream: `good` well-formed frames (some with a failing
/// checksum, bodies from empty to larger than the reader's buffer),
/// then the ending.
fn stream_bytes(rng: &mut Rng, good: usize, ending: Ending) -> Vec<u8> {
    let mut bytes = Vec::new();
    for _ in 0..good {
        let len = match rng.below(40) {
            0 => 70_000 + rng.below(60_000) as usize, // over the 64 KiB buffer
            1..=9 => 0,
            _ => rng.below(300) as usize,
        };
        let body: Vec<u8> = (0..len).map(|i| (i as u64 ^ rng.0) as u8).collect();
        let corrupt = rng.below(6) == 0;
        bytes.extend(encode_frame(rng.next() as u8, rng.next(), &body, corrupt));
    }
    let mut last = encode_frame(0x02, 99, &[7; 48], false);
    match ending {
        Ending::CleanEof => last.clear(),
        Ending::EofMidFrame => last.truncate(1 + rng.below(last.len() as u64 - 1) as usize),
        Ending::BadMagic => last[0] ^= 0xFF,
        Ending::BadVersion => last[2] = PROTOCOL_VERSION + 1,
        Ending::Oversized => last[12..16].copy_from_slice(&(DEFAULT_MAX_BODY + 1).to_be_bytes()),
    }
    bytes.extend(last);
    bytes
}

/// Seeded cut points: from one byte at a time to many frames at once.
fn chunk_sizes(rng: &mut Rng, total: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut left = total;
    while left > 0 {
        let n = match rng.below(4) {
            0 => 1 + rng.below(4),
            1 => 1 + rng.below(HEADER_LEN as u64 * 2),
            2 => 1 + rng.below(700),
            _ => 1 + rng.below(200_000),
        } as usize;
        let n = n.min(left);
        sizes.push(n);
        left -= n;
    }
    sizes
}

/// Writes `bytes` in the given chunks, giving the reader a chance to
/// see each one on its own, then closes.
async fn write_chunked(conn: AsyncStream, bytes: Vec<u8>, sizes: Vec<usize>) {
    let mut at = 0;
    for (i, n) in sizes.into_iter().enumerate() {
        if conn.write_all(&bytes[at..at + n]).await.is_err() {
            return; // the reader hung up on an error: expected
        }
        at += n;
        if i % 16 == 15 {
            Sleep::after(Duration::from_millis(1)).await;
        } else {
            yield_now().await;
        }
    }
}

async fn read_buffered(conn: AsyncStream) -> Frames {
    let mut reader = FrameReader::new(DEFAULT_MAX_BODY);
    let mut out = Frames::new();
    loop {
        let frame = reader
            .next(&conn)
            .await
            .map(|(h, body)| (h, body.map(<[u8]>::to_vec)));
        let done = frame.is_err();
        out.push(frame);
        if done {
            return out;
        }
    }
}

async fn read_unbuffered(conn: AsyncStream) -> Frames {
    let mut out = Frames::new();
    loop {
        let frame = read_frame_unchecked(&conn, DEFAULT_MAX_BODY).await;
        let done = frame.is_err();
        out.push(frame);
        if done {
            return out;
        }
    }
}

#[test]
fn frame_reader_matches_the_unbuffered_reader() {
    let exec = Executor::new(2);
    let endings = [
        Ending::CleanEof,
        Ending::EofMidFrame,
        Ending::BadMagic,
        Ending::BadVersion,
        Ending::Oversized,
    ];
    for seed in 0..30u64 {
        let mut rng = Rng(seed.wrapping_mul(0xA24B_AED4_963E_E407));
        let ending = endings[(seed % 5) as usize];
        let good = rng.below(60) as usize;
        let bytes = stream_bytes(&mut rng, good, ending);
        let sizes = chunk_sizes(&mut rng, bytes.len());

        let (b, s, ex) = (bytes.clone(), sizes.clone(), exec.clone());
        let buffered = exec.block_on(async move {
            let (near, far) = uds_pair().await;
            ex.spawn(write_chunked(near, b, s));
            read_buffered(far).await
        });
        let ex = exec.clone();
        let unbuffered = exec.block_on(async move {
            let (near, far) = uds_pair().await;
            ex.spawn(write_chunked(near, bytes, sizes));
            read_unbuffered(far).await
        });

        assert_eq!(
            buffered.len(),
            good + 1,
            "seed {seed}: {good} good frames, then the {ending:?} error"
        );
        let want = match ending {
            Ending::CleanEof | Ending::EofMidFrame => FrameError::Truncated,
            Ending::BadMagic => FrameError::BadMagic,
            Ending::BadVersion => FrameError::BadVersion(PROTOCOL_VERSION + 1),
            Ending::Oversized => FrameError::Oversized(DEFAULT_MAX_BODY + 1),
        };
        assert_eq!(buffered.last(), Some(&Err(want)), "seed {seed}");
        assert_eq!(buffered, unbuffered, "seed {seed} ({ending:?})");
    }
}

/// A frame whose checksum fails in the middle of one buffered batch is
/// reported without its body, and the frames behind it still parse.
#[test]
fn crc_failure_mid_batch_keeps_the_stream_aligned() {
    let exec = Executor::new(2);
    let frames = exec.block_on(async {
        let (near, far) = uds_pair().await;
        let mut bytes = encode_frame(0x86, 1, b"first", false);
        bytes.extend(encode_frame(0x86, 2, b"damaged", true));
        bytes.extend(encode_frame(0x86, 3, b"third", false));
        near.write_all(&bytes).await.expect("one write");
        drop(near);
        read_buffered(far).await
    });
    let seen: Vec<_> = frames
        .iter()
        .map(|f| f.as_ref().map(|(h, body)| (h.request_id, body.as_deref())))
        .collect();
    assert_eq!(
        seen,
        [
            Ok((1, Some(&b"first"[..]))),
            Ok((2, None)),
            Ok((3, Some(&b"third"[..]))),
            Err(&FrameError::Truncated),
        ]
    );
}
