//! `megate-obs` — workspace-wide observability (DESIGN.md §5b).
//!
//! Three pieces, all self-contained (no external dependencies):
//!
//! * **Metrics** — sharded atomic [`Counter`]s, [`Gauge`]s, and
//!   log2-bucketed [`Histogram`]s with lock-free record paths and
//!   mergeable [`Snapshot`]s, plus the always-on per-thread
//!   [`StripedU64`] that other crates embed for counts they read back.
//! * **Spans** — `let _s = obs::span("lp.solve");` phase timers that
//!   produce hierarchical per-phase runtime breakdowns ([`span`]).
//! * **Exposition** — a named [`Registry`] rendering Prometheus text
//!   and JSON snapshots; bench binaries persist the JSON as
//!   `results/BENCH_<name>.json` via [`write_bench_snapshot`].
//! * **Tracing** — the [`mod@trace`] flight recorder: fixed-size
//!   config-propagation events in lock-free per-thread rings, with a
//!   Chrome-trace (Perfetto) exporter covering events and spans
//!   (DESIGN.md §5g).
//!
//! Plus a minimal RUST_LOG-style leveled [`logger`] (`info!`,
//! `error!`, ...) so binaries do not hand-roll `eprintln!`.
//!
//! ## Cost model
//!
//! Every record path first checks [`enabled`] — one relaxed load and a
//! predictable branch. `set_enabled(false)` therefore turns the whole
//! substrate into near-nothing at runtime; building this crate with
//! the `disabled` feature makes `enabled()` a constant `false` so the
//! compiler deletes the instrumentation outright. Metric names use
//! dot-separated `<crate>.<subsystem>.<metric>` (see DESIGN.md §5b for
//! the full naming scheme and the exported-metric inventory).
//!
//! ## Relation to the paper
//!
//! The MegaTE paper (SIGCOMM 2024) evaluates its system with
//! per-component runtime breakdowns (§7: solver time, sync traffic,
//! host-stack overheads). This crate is the substrate those numbers
//! flow through in the reproduction: every layer records into it and
//! every `fig_*` bench binary snapshots it to `results/BENCH_*.json`.

#![warn(missing_docs)]

pub mod logger;
pub mod trace;

mod expose;
mod metrics;
mod registry;
mod span;

pub use expose::{sanitize_name, write_bench_snapshot};
pub use metrics::{
    bucket_of, Counter, Gauge, Histogram, HistogramSnapshot, Snapshot, StripedU64, HIST_BUCKETS,
};
pub use registry::{global, Lazy, Registry};
pub use span::{span, Span};

#[cfg(not(feature = "disabled"))]
static ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Whether record paths are live. With the `disabled` cargo feature
/// this is a constant `false` and instrumentation compiles away.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "disabled")]
    {
        false
    }
    #[cfg(not(feature = "disabled"))]
    {
        ENABLED.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Runtime kill switch. A no-op when compiled with `disabled`.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "disabled")]
    let _ = on;
    #[cfg(not(feature = "disabled"))]
    ENABLED.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Counter handle from the [`global`] registry. Look handles up once
/// outside hot loops; `inc`/`add` through the handle never lock.
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// Gauge handle from the [`global`] registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// Histogram handle from the [`global`] registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Start a manual timing: `Some(Instant)` when metrics are live, else
/// `None` (skipping the clock read). Pair with
/// [`Histogram::record_elapsed`].
#[inline]
pub fn start() -> Option<std::time::Instant> {
    if enabled() {
        Some(std::time::Instant::now())
    } else {
        None
    }
}

/// Nanoseconds of CPU time consumed by the **calling thread**
/// (`CLOCK_THREAD_CPUTIME_ID` on Linux). Busy times measured on this
/// clock exclude scheduler preemption, so per-stage speedups computed
/// from them reflect the architecture rather than how many hardware
/// threads the host happens to have — the measurement-honesty rule the
/// `fig_dataplane` and `fig_solver_scale` benches are built on.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // Safety: Timespec matches the libc layout on 64-bit Linux and the
    // pointer is valid for the duration of the call.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Fallback for hosts without a per-thread CPU clock: monotonic time
/// (busy figures then include preemption, like plain wall-clock spans).
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Unit tests that flip [`set_enabled`] or assert on the global
/// registry serialize through this lock so the parallel test harness
/// cannot interleave them.
#[cfg(all(test, not(feature = "disabled")))]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
