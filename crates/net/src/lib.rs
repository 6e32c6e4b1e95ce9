//! The TE-DB as a real network service.
//!
//! Everything upstream of this crate treats the TE-DB as an in-process
//! library: controllers write through a `TeDatabase` handle, agents
//! read through the same handle, and the transport between them is a
//! function call. This crate puts the actual wire in: the database is
//! served over localhost TCP and Unix-domain sockets with a
//! length-prefixed, versioned, checksummed binary protocol
//! ([`frame`], documented byte-by-byte in `PROTOCOL.md`), and agents
//! become async tasks that drive the existing retry-and-degrade
//! ladder through real I/O.
//!
//! The stack is built from scratch on `std` — the build environment
//! is offline, so there is no tokio/mio underneath:
//!
//! * [`reactor`] — an epoll reactor (via `extern "C"` bindings to the
//!   libc that `std` already links) with one-shot interest arming,
//!   timers, [`reactor::Sleep`] and [`reactor::timeout`];
//! * [`exec`] — a small multi-worker executor with hand-rolled
//!   wakers;
//! * [`io`] — nonblocking TCP/UDS streams and listeners as futures;
//! * [`frame`] — the wire protocol: 20-byte header, request-id
//!   multiplexing, FNV-1a body checksums, ops mapping 1:1 onto the
//!   `TeKey` keyspace;
//! * [`server`] — the accept/dispatch loop over a shared
//!   `TeDatabase`, forwarding every store-level fault (outage,
//!   latency, corruption) onto the wire and adding transport-level
//!   ones (resets, truncation, slow-loris) on top;
//! * [`client`] — a pooled multiplexing client, many agents per
//!   connection, so a million agents fit under a 20k fd limit;
//! * [`agent`] — the async endpoint agent: one `POLL` for the version
//!   and changelog, delta catch-up, snapshot fallback, backoff/deadline/degrade bookkeeping — and
//!   [`pull_round`], which pulls a whole fleet through a sync period
//!   with its queries spread over the period;
//! * [`http`] — a `GET /metrics` exporter for the megate-obs
//!   registry.

#![warn(missing_docs)]

pub mod agent;
pub mod client;
pub mod exec;
pub mod frame;
pub mod http;
pub mod io;
pub mod reactor;
pub mod server;

pub use agent::{pull_round, Agent, FleetPull, PullReport};
pub use client::NetClient;
pub use exec::Executor;
pub use io::{AsyncListener, AsyncStream, Endpoint};
pub use server::{Server, ServerState, TransportFaults};
