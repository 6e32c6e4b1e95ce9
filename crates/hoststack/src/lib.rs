//! Simulated eBPF-based host networking stack (§5.1, Figure 6).
//!
//! The paper attaches eBPF programs to three kernel hooks on every end
//! host:
//!
//! * `tracepoint:syscalls/sys_enter_execve` — records `(pid, ins_id)` in
//!   `env_map` when a virtual instance starts a process;
//! * `kprobe:ctnetlink_conntrack_event` — records `(5tuple, pid)` in
//!   `contk_map` when a process opens a connection, and joins the two
//!   maps into `inf_map: 5tuple → ins_id`;
//! * the TC (traffic control) egress hook — per packet: flow accounting
//!   into `traffic_map` (with `frag_map` resolving non-first IP
//!   fragments), and SR insertion from `path_map` (§5.2).
//!
//! Running true eBPF requires root and a recent kernel; this crate
//! executes the *identical map-manipulation and header-rewriting logic*
//! on a simulated kernel ([`SimKernel`]) that fires the same hooks with
//! the same event payloads, over real packet bytes (`megate-packet`).
//! Map types mirror eBPF semantics: bounded capacity, explicit
//! lookup/update/delete, shared between "kernel" programs and the
//! user-space [`agent::EndpointAgent`].
//!
//! Two execution models share that logic: the frame-at-a-time TC chain
//! ([`SimKernel::tc_egress`]) and the multi-core batched fast path
//! ([`SimKernel::tc_egress_batch`] + [`batch::CpuShard`]), which
//! accumulates accounting in per-CPU shards merged on a sync tick and
//! produces bitwise-identical `traffic_map` totals (DESIGN.md §5d).

#![warn(missing_docs)]

pub mod agent;
pub mod batch;
pub mod kernel;
pub mod maps;
pub mod programs;
pub mod ringbuf;

pub use agent::{EndpointAgent, FlowRecord, PathInstall, PathMapEntry};
pub use batch::{BatchSummary, CpuShard};
pub use kernel::{InstanceId, KernelEvent, Pid, SimKernel, TcStats, TcVerdict};
pub use maps::{EbpfMap, MapError, MapKind, PathKey, PathMap, PathMapWrites};
pub use programs::HostMaps;
pub use ringbuf::{RingBuffer, TelemetryEvent};
