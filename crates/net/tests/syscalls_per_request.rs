//! The batching factor, by count: 256 requests in flight on one pooled
//! connection cost a handful of socket calls, not six apiece. Alone in
//! its file (and so in its process): it reads process-wide counters.

use megate_net::frame::{Request, Response};
use megate_net::http::MetricsServer;
use megate_net::io::AsyncStream;
use megate_net::server::{Server, ServerState};
use megate_net::{Endpoint, Executor, NetClient};
use megate_tedb::TeDatabase;
use std::future::Future;
use std::pin::Pin;
use std::task::Poll;

const REQUESTS: u64 = 256;

fn socket_calls() -> u64 {
    megate_obs::counter("net.read_syscalls").get() + megate_obs::counter("net.write_syscalls").get()
}

#[test]
fn pipelined_requests_share_reads_and_writes() {
    // One worker, so the count does not depend on how two of them
    // interleave: the writer task cannot run until the task issuing the
    // requests has queued them all.
    let exec = Executor::new(1);
    let loopback = Endpoint::Tcp("127.0.0.1:0".parse().unwrap());
    let db = TeDatabase::new(4);
    db.publish_version(9);
    let server = Server::start(ServerState::new(db), &loopback, &exec).expect("bind");
    let client = NetClient::new(server.local().clone(), 1, exec.clone());

    // Connect and negotiate before counting.
    let c = client.clone();
    let warm = exec.block_on(async move { c.request(&Request::Ping).await });
    assert_eq!(warm, Ok(Response::Pong));

    let requests_before = megate_obs::counter("net.requests").get();
    let calls_before = socket_calls();
    // All 256 issued by one task in one poll.
    let c = client.clone();
    let replies = exec.block_on(async move {
        let mut in_flight: Vec<Pin<Box<dyn Future<Output = _> + Send>>> = (0..REQUESTS)
            .map(|_| {
                let c = c.clone();
                Box::pin(async move { c.request(&Request::GetVersion { partition: 0 }).await }) as _
            })
            .collect();
        let mut replies = Vec::new();
        std::future::poll_fn(|cx| {
            in_flight.retain_mut(|request| match request.as_mut().poll(cx) {
                Poll::Ready(reply) => {
                    replies.push(reply);
                    false
                }
                Poll::Pending => true,
            });
            if in_flight.is_empty() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await;
        replies
    });
    let calls = socket_calls() - calls_before;

    assert_eq!(replies.len() as u64, REQUESTS);
    assert!(replies
        .iter()
        .all(|r| *r == Ok(Response::VersionIs { version: Some(9) })));
    assert_eq!(
        megate_obs::counter("net.requests").get() - requests_before,
        REQUESTS
    );
    assert!(calls > 0, "net.read_syscalls / net.write_syscalls are live");
    assert!(
        calls * 4 <= REQUESTS,
        "{calls} reads+writes (client and server) for {REQUESTS} pipelined requests"
    );

    // And the exporter shows them.
    let metrics = MetricsServer::start(&loopback, &exec).expect("bind exporter");
    let ep = metrics.local().clone();
    let page = exec.block_on(async move {
        let conn = AsyncStream::connect(&ep).await.unwrap();
        conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .await
            .unwrap();
        let mut page = Vec::new();
        let mut buf = [0u8; 4096];
        while let Ok(n @ 1..) = conn.read(&mut buf).await {
            page.extend_from_slice(&buf[..n]);
        }
        String::from_utf8_lossy(&page).into_owned()
    });
    for name in ["read_syscalls", "write_syscalls"] {
        assert!(page.contains(name), "{name} missing from /metrics");
    }
    client.close();
}
