//! Config-propagation tracing: an always-on flight recorder
//! (DESIGN.md §5g).
//!
//! Every stage a TE configuration version travels through — controller
//! solve/encode/publish, TE-DB shard writes, agent changelog/delta/
//! snapshot/fallback pulls, host-stack map installs — records a
//! fixed-size [`TraceEvent`] into a lock-free **per-thread ring
//! buffer**. The rings are bounded (the recorder overwrites its oldest
//! events instead of growing), so tracing can stay on in production:
//! when an invariant trips, [`events_for`]/[`dump_entity`] reconstruct
//! the last moments of the offending endpoint's causal path, and
//! [`to_chrome_trace`] exports everything — including the `obs::span`
//! tree, which records [`Stage::SpanEnter`]/[`Stage::SpanExit`] events
//! through the same rings — as Chrome-trace-event JSON loadable in
//! Perfetto (`ui.perfetto.dev`).
//!
//! ## Cost model
//!
//! [`record`] is one `enabled()` branch, four relaxed stores into a
//! thread-local slot and one relaxed head bump — no locks, no
//! allocation after a thread's first event. Building `megate-obs` with
//! the `disabled` feature compiles the entire event path out: `record`
//! becomes an empty inline function and the rings are never allocated.
//!
//! ## Consistency
//!
//! A ring is written only by its owning thread; [`snapshot`] reads the
//! rings of *other* threads racily (per-field atomics, no tearing
//! within a field). An event being overwritten during a concurrent
//! snapshot can surface with mixed fields — acceptable for a flight
//! recorder, and impossible at the quiesced points where snapshots are
//! actually taken (assertion failures, end of bench runs).
//!
//! ## The version clock
//!
//! Solve-to-install latency needs the moment a version's solve began.
//! [`stamp_version`] records it in a fixed-size lock-free table;
//! [`version_age_ns`] reads it back at install time. The table holds
//! the most recent [`VERSION_CLOCK_SLOTS`] versions — far more than any
//! retention window — and returns `None` for evicted stamps, so late
//! installs of ancient versions are skipped rather than misreported.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Stages of the config-propagation path, in causal order. Every
/// [`TraceEvent`] carries one; the `entity`/`arg` meaning per stage is
/// documented on each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Controller began solving the interval that will publish
    /// `version`. `entity` = demand count, `arg` = 0.
    SolveStart = 0,
    /// The solve finished (before encode/publish). `arg` = solve
    /// wall-clock ns.
    SolveEnd = 1,
    /// Per-endpoint deltas and snapshots were encoded. `entity` =
    /// changed endpoints, `arg` = encoded records.
    Encode = 2,
    /// The interval's writes were committed and the version record
    /// bumped. `entity` = changed endpoints, `arg` = published bytes.
    Publish = 3,
    /// The controller re-published the last-good allocation instead of
    /// a fresh solve. `arg` = 0.
    FallbackPublish = 4,
    /// One TE-DB write landed on a shard. `entity` = shard id,
    /// `arg` = value bytes. `version` is the config version stamped on
    /// the key (deltas), the value prefix (snapshots), or 0 when the
    /// record carries no version (changelogs).
    ShardWrite = 5,
    /// The version record itself was advanced. `entity` = shard id.
    VersionBump = 6,
    /// An agent read its changelog while pulling toward `version`.
    /// `entity` = endpoint, `arg` = retained change-versions listed.
    ChangelogPull = 7,
    /// An agent fetched the delta producing `version`. `entity` =
    /// endpoint, `arg` = delta bytes.
    DeltaPull = 8,
    /// An agent fell back to the full snapshot stamped `version`.
    /// `entity` = endpoint, `arg` = snapshot bytes.
    SnapshotPull = 9,
    /// The host stack installed paths into `path_map` at `version`.
    /// `entity` = instance/endpoint, `arg` = entries written.
    Install = 10,
    /// An agent finished a successful pull at `version`. `entity` =
    /// endpoint, `arg` = solve-to-install latency ns (0 when the
    /// version stamp was already evicted).
    PullDone = 11,
    /// An agent degraded to site-level/ECMP forwarding. `entity` =
    /// endpoint, `arg` = periods it had been behind.
    Degrade = 12,
    /// An `obs::span` opened. `entity` = interned span-path id (see
    /// [`resolve_name`]), `version` = 0.
    SpanEnter = 13,
    /// An `obs::span` closed. `entity` = interned span-path id,
    /// `arg` = elapsed ns.
    SpanExit = 14,
    /// A partition's controller crashed (stops publishing). `entity` =
    /// partition id, `version` = its last published version.
    CtlCrash = 15,
    /// A partition's controller restarted. `entity` = partition id,
    /// `arg` = 1 when it rebuilt warm state from the TE-DB, 0 when it
    /// came back cold.
    CtlRestart = 16,
    /// A cross-partition reconciliation pass ran. `entity` = partition
    /// id, `arg` = number of border links whose quota was adjusted.
    Reconcile = 17,
}

impl Stage {
    /// Every stage, in causal order.
    pub const ALL: [Stage; 18] = [
        Stage::SolveStart,
        Stage::SolveEnd,
        Stage::Encode,
        Stage::Publish,
        Stage::FallbackPublish,
        Stage::ShardWrite,
        Stage::VersionBump,
        Stage::ChangelogPull,
        Stage::DeltaPull,
        Stage::SnapshotPull,
        Stage::Install,
        Stage::PullDone,
        Stage::Degrade,
        Stage::SpanEnter,
        Stage::SpanExit,
        Stage::CtlCrash,
        Stage::CtlRestart,
        Stage::Reconcile,
    ];

    /// Dot-separated stable name (`trace.<stage>` in dumps/exports).
    pub fn name(self) -> &'static str {
        match self {
            Stage::SolveStart => "solve.start",
            Stage::SolveEnd => "solve.end",
            Stage::Encode => "encode",
            Stage::Publish => "publish",
            Stage::FallbackPublish => "publish.fallback",
            Stage::ShardWrite => "shard.write",
            Stage::VersionBump => "version.bump",
            Stage::ChangelogPull => "pull.changelog",
            Stage::DeltaPull => "pull.delta",
            Stage::SnapshotPull => "pull.snapshot",
            Stage::Install => "install",
            Stage::PullDone => "pull.done",
            Stage::Degrade => "degrade",
            Stage::SpanEnter => "span.enter",
            Stage::SpanExit => "span.exit",
            Stage::CtlCrash => "ctl.crash",
            Stage::CtlRestart => "ctl.restart",
            Stage::Reconcile => "reconcile",
        }
    }

    fn from_u8(v: u8) -> Option<Stage> {
        Stage::ALL.get(v as usize).copied()
    }
}

/// One fixed-size flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch ([`now_ns`]).
    pub ts_ns: u64,
    /// The config version the event is about (0 when not applicable).
    pub version: u64,
    /// Stage-dependent subject: endpoint id, shard id, or interned
    /// span-path id.
    pub entity: u64,
    /// Stage-dependent payload (bytes, ns, counts); at most
    /// [`ARG_MAX`].
    pub arg: u64,
    /// The propagation stage.
    pub stage: Stage,
    /// Recording thread (ring registration order, dense from 0).
    pub tid: u32,
}

/// Largest representable `arg` (56 bits; larger values saturate).
pub const ARG_MAX: u64 = (1 << 56) - 1;

/// Events retained per thread before the recorder wraps.
pub const RING_SLOTS: usize = 8192;

/// Versions the solve-time clock retains stamps for.
pub const VERSION_CLOCK_SLOTS: usize = 1024;

/// Nanoseconds since the process-wide trace epoch (first use). Spans
/// and trace events share this clock, so exported timelines line up.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(not(feature = "disabled"))]
mod imp {
    use super::*;

    /// One recorded slot: four independent atomics. `stage_arg` packs
    /// the stage discriminant into the top byte and the (saturated)
    /// arg into the low 56 bits, so an event is exactly 32 bytes.
    struct Slot {
        ts: AtomicU64,
        version: AtomicU64,
        entity: AtomicU64,
        stage_arg: AtomicU64,
    }

    pub(super) struct Ring {
        tid: u32,
        /// Monotone count of events ever written; the next write goes
        /// to slot `head % RING_SLOTS`.
        head: AtomicU64,
        slots: Box<[Slot]>,
    }

    impl Ring {
        fn new(tid: u32) -> Self {
            let slots = (0..RING_SLOTS)
                .map(|_| Slot {
                    ts: AtomicU64::new(0),
                    version: AtomicU64::new(0),
                    entity: AtomicU64::new(0),
                    stage_arg: AtomicU64::new(u64::MAX),
                })
                .collect();
            Self {
                tid,
                head: AtomicU64::new(0),
                slots,
            }
        }

        #[inline]
        fn push(&self, stage: Stage, version: u64, entity: u64, arg: u64) {
            let head = self.head.load(Relaxed);
            let slot = &self.slots[(head as usize) % RING_SLOTS];
            slot.ts.store(now_ns(), Relaxed);
            slot.version.store(version, Relaxed);
            slot.entity.store(entity, Relaxed);
            slot.stage_arg
                .store(((stage as u64) << 56) | arg.min(ARG_MAX), Relaxed);
            // Release-publish the slot: a snapshot that observes this
            // head has the stores above ordered before it.
            self.head
                .store(head + 1, std::sync::atomic::Ordering::Release);
        }

        fn read(&self, out: &mut Vec<TraceEvent>) {
            let head = self.head.load(std::sync::atomic::Ordering::Acquire);
            let retained = (head as usize).min(RING_SLOTS);
            for i in 0..retained {
                let idx = (head as usize - retained + i) % RING_SLOTS;
                let slot = &self.slots[idx];
                let stage_arg = slot.stage_arg.load(Relaxed);
                let Some(stage) = Stage::from_u8((stage_arg >> 56) as u8) else {
                    continue; // never written (or torn beyond repair)
                };
                out.push(TraceEvent {
                    ts_ns: slot.ts.load(Relaxed),
                    version: slot.version.load(Relaxed),
                    entity: slot.entity.load(Relaxed),
                    arg: stage_arg & ARG_MAX,
                    stage,
                    tid: self.tid,
                });
            }
        }
    }

    fn rings() -> &'static Mutex<Vec<&'static Ring>> {
        static RINGS: OnceLock<Mutex<Vec<&'static Ring>>> = OnceLock::new();
        RINGS.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        /// This thread's ring, registered globally on first record.
        /// Rings are leaked intentionally: the flight recorder must
        /// outlive its writer threads so post-mortem snapshots can
        /// still read what a dead worker recorded.
        static RING: &'static Ring = {
            let mut all = rings().lock().unwrap_or_else(|e| e.into_inner());
            let ring: &'static Ring = Box::leak(Box::new(Ring::new(all.len() as u32)));
            all.push(ring);
            crate::gauge("trace.threads").set(all.len() as i64);
            ring
        };
    }

    #[inline]
    pub(super) fn record(stage: Stage, version: u64, entity: u64, arg: u64) {
        static EVENTS: crate::Lazy<crate::Counter> = crate::Lazy::counter("trace.events");
        RING.with(|r| r.push(stage, version, entity, arg));
        EVENTS.inc();
    }

    pub(super) fn snapshot() -> Vec<TraceEvent> {
        let all = rings().lock().unwrap_or_else(|e| e.into_inner());
        let mut out = Vec::new();
        for ring in all.iter() {
            ring.read(&mut out);
        }
        out.sort_by_key(|e| (e.ts_ns, e.tid));
        out
    }

    /// The version clock: open-addressed by `version % SLOTS`, each
    /// slot a `(version, ts)` pair written version-last so a reader
    /// that sees a matching version also sees its stamp.
    struct VersionClock {
        versions: Box<[AtomicU64]>,
        stamps: Box<[AtomicU64]>,
    }

    fn clock() -> &'static VersionClock {
        static CLOCK: OnceLock<VersionClock> = OnceLock::new();
        CLOCK.get_or_init(|| VersionClock {
            versions: (0..VERSION_CLOCK_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            stamps: (0..VERSION_CLOCK_SLOTS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        })
    }

    pub(super) fn stamp_version_at(version: u64, ts_ns: u64) {
        if version == 0 {
            return;
        }
        let c = clock();
        let i = (version as usize) % VERSION_CLOCK_SLOTS;
        c.stamps[i].store(ts_ns, Relaxed);
        c.versions[i].store(version, std::sync::atomic::Ordering::Release);
    }

    pub(super) fn version_stamp_ns(version: u64) -> Option<u64> {
        if version == 0 {
            return None;
        }
        let c = clock();
        let i = (version as usize) % VERSION_CLOCK_SLOTS;
        if c.versions[i].load(std::sync::atomic::Ordering::Acquire) == version {
            Some(c.stamps[i].load(Relaxed))
        } else {
            None
        }
    }

    /// The span-path intern table: name → dense id, id → name.
    type InternTable = Mutex<(HashMap<String, u64>, Vec<String>)>;

    fn intern_table() -> &'static InternTable {
        static TABLE: OnceLock<InternTable> = OnceLock::new();
        TABLE.get_or_init(|| Mutex::new((HashMap::new(), Vec::new())))
    }

    pub(super) fn intern_name(name: &str) -> u64 {
        let mut t = intern_table().lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&id) = t.0.get(name) {
            return id;
        }
        let id = t.1.len() as u64;
        t.0.insert(name.to_string(), id);
        t.1.push(name.to_string());
        id
    }

    pub(super) fn resolve_name(id: u64) -> Option<String> {
        intern_table()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .1
            .get(id as usize)
            .cloned()
    }
}

#[cfg(not(feature = "disabled"))]
use imp as backend;

/// Record one propagation event into this thread's ring. A single
/// `enabled()` branch, four relaxed stores and one relaxed add on the
/// `trace.events` counter (its handle resolved once per process);
/// compiled out entirely under the `disabled` feature.
#[inline]
pub fn record(stage: Stage, version: u64, entity: u64, arg: u64) {
    #[cfg(feature = "disabled")]
    {
        let _ = (stage, version, entity, arg);
    }
    #[cfg(not(feature = "disabled"))]
    {
        if !crate::enabled() {
            return;
        }
        backend::record(stage, version, entity, arg);
    }
}

/// Every event currently retained across all thread rings, sorted by
/// timestamp. Empty under the `disabled` feature.
pub fn snapshot() -> Vec<TraceEvent> {
    #[cfg(feature = "disabled")]
    {
        Vec::new()
    }
    #[cfg(not(feature = "disabled"))]
    {
        backend::snapshot()
    }
}

/// The last `limit` retained events whose `entity` matches (endpoint
/// id, shard id, ...), oldest first — the flight-recorder question
/// "what happened to this endpoint?".
pub fn events_for(entity: u64, limit: usize) -> Vec<TraceEvent> {
    let mut evs: Vec<TraceEvent> = snapshot()
        .into_iter()
        .filter(|e| e.entity == entity && !matches!(e.stage, Stage::SpanEnter | Stage::SpanExit))
        .collect();
    if evs.len() > limit {
        evs.drain(..evs.len() - limit);
    }
    evs
}

/// Stamp `version`'s solve-start time (controller side of the
/// solve-to-install clock) at an explicit timestamp from [`now_ns`].
pub fn stamp_version_at(version: u64, ts_ns: u64) {
    #[cfg(feature = "disabled")]
    {
        let _ = (version, ts_ns);
    }
    #[cfg(not(feature = "disabled"))]
    {
        if !crate::enabled() {
            return;
        }
        backend::stamp_version_at(version, ts_ns);
    }
}

/// [`stamp_version_at`] with the current time.
pub fn stamp_version(version: u64) {
    stamp_version_at(version, now_ns());
}

/// When `version`'s solve began, if its stamp is still retained.
pub fn version_stamp_ns(version: u64) -> Option<u64> {
    #[cfg(feature = "disabled")]
    {
        let _ = version;
        None
    }
    #[cfg(not(feature = "disabled"))]
    {
        backend::version_stamp_ns(version)
    }
}

/// Nanoseconds elapsed since `version`'s solve began — the
/// solve-to-install latency when called at install time. `None` when
/// the stamp was evicted or never recorded (or under `disabled`).
pub fn version_age_ns(version: u64) -> Option<u64> {
    version_stamp_ns(version).map(|t| now_ns().saturating_sub(t))
}

/// Intern a span path (or any name) for use as a [`TraceEvent::entity`]
/// on [`Stage::SpanEnter`]/[`Stage::SpanExit`] events. Returns a dense
/// id, stable for the process lifetime. Under `disabled` always 0.
pub fn intern_name(name: &str) -> u64 {
    #[cfg(feature = "disabled")]
    {
        let _ = name;
        0
    }
    #[cfg(not(feature = "disabled"))]
    {
        backend::intern_name(name)
    }
}

/// The name behind an interned id. `None` for unknown ids (and always
/// under `disabled`).
pub fn resolve_name(id: u64) -> Option<String> {
    #[cfg(feature = "disabled")]
    {
        let _ = id;
        None
    }
    #[cfg(not(feature = "disabled"))]
    {
        backend::resolve_name(id)
    }
}

/// Human-readable dump of the last `limit` events for `entity` — what
/// the chaos harness prints when a staleness or blackholing invariant
/// trips for an endpoint.
pub fn dump_entity(entity: u64, limit: usize) -> String {
    use std::fmt::Write as _;
    let evs = events_for(entity, limit);
    let mut out = format!(
        "flight recorder: last {} events for entity {entity}\n",
        evs.len()
    );
    if evs.is_empty() {
        out.push_str("  (no retained events — recorder disabled or entity never traced)\n");
        return out;
    }
    let t0 = evs[0].ts_ns;
    for e in &evs {
        let _ = writeln!(
            out,
            "  +{:>12.3}ms tid{:<3} v{:<6} {:<16} arg={}",
            (e.ts_ns - t0) as f64 / 1e6,
            e.tid,
            e.version,
            e.stage.name(),
            e.arg,
        );
    }
    out
}

/// Export events as Chrome trace-event JSON (the `traceEvents` array
/// format), loadable in Perfetto or `chrome://tracing`.
///
/// * [`Stage::SpanEnter`]/[`Stage::SpanExit`] become `B`/`E` duration
///   events named by their resolved span path, so the existing
///   `obs::span` tree renders as nested slices per thread;
/// * every other stage becomes a thread-scoped instant event carrying
///   `version`/`entity`/`arg` as args.
///
/// Timestamps are microseconds on the shared [`now_ns`] clock.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for e in events {
        let sep = if first { "" } else { ",\n" };
        first = false;
        let ts = e.ts_ns as f64 / 1e3;
        match e.stage {
            Stage::SpanEnter | Stage::SpanExit => {
                let ph = if e.stage == Stage::SpanEnter {
                    "B"
                } else {
                    "E"
                };
                let name = resolve_name(e.entity).unwrap_or_else(|| format!("span#{}", e.entity));
                let _ = write!(
                    out,
                    "{sep}{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{}}}",
                    escape_json(&name),
                    e.tid
                );
            }
            stage => {
                let _ = write!(
                    out,
                    "{sep}{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\"pid\":1,\
                     \"tid\":{},\"args\":{{\"version\":{},\"entity\":{},\"arg\":{}}}}}",
                    escape_json(stage.name()),
                    e.tid,
                    e.version,
                    e.entity,
                    e.arg
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Write a Chrome trace of every retained event to `path`.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_trace(&snapshot()))
}

#[cfg(all(test, not(feature = "disabled")))]
mod tests {
    use super::*;

    #[test]
    fn record_snapshot_and_filter() {
        let _g = crate::test_lock();
        record(Stage::SolveStart, 900_001, 42, 7);
        record(Stage::DeltaPull, 900_001, 4242, 64);
        record(Stage::PullDone, 900_001, 4242, 1000);
        let evs = events_for(4242, 16);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].stage, Stage::DeltaPull);
        assert_eq!(evs[1].stage, Stage::PullDone);
        assert_eq!(evs[1].arg, 1000);
        assert!(evs[0].ts_ns <= evs[1].ts_ns, "ring preserves order");
        let all = snapshot();
        assert!(all
            .iter()
            .any(|e| e.stage == Stage::SolveStart && e.entity == 42));
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_events() {
        let _g = crate::test_lock();
        // Overfill this thread's ring; the retained window must be the
        // last RING_SLOTS events, oldest first.
        for i in 0..(RING_SLOTS as u64 + 100) {
            record(Stage::Install, 910_000, 777_777, i);
        }
        let evs: Vec<TraceEvent> = snapshot()
            .into_iter()
            .filter(|e| e.entity == 777_777 && e.version == 910_000)
            .collect();
        assert!(evs.len() <= RING_SLOTS);
        assert_eq!(evs.last().unwrap().arg, RING_SLOTS as u64 + 99);
        for w in evs.windows(2) {
            assert!(w[0].arg < w[1].arg, "wrap preserves recording order");
        }
    }

    #[test]
    fn version_clock_ages_and_evicts() {
        let _g = crate::test_lock();
        stamp_version_at(920_077, 5);
        assert_eq!(version_stamp_ns(920_077), Some(5));
        assert!(version_age_ns(920_077).unwrap() > 0);
        // A colliding slot (same index mod VERSION_CLOCK_SLOTS) evicts.
        stamp_version(920_077 + VERSION_CLOCK_SLOTS as u64);
        assert_eq!(version_stamp_ns(920_077), None);
        assert_eq!(version_age_ns(920_077), None);
        // Version 0 is never stamped (it means "nothing published").
        stamp_version(0);
        assert_eq!(version_stamp_ns(0), None);
    }

    #[test]
    fn arg_saturates_at_56_bits() {
        let _g = crate::test_lock();
        record(Stage::Publish, 930_001, 11, u64::MAX);
        let evs = events_for(11, 4);
        assert_eq!(evs.last().unwrap().arg, ARG_MAX);
        assert_eq!(evs.last().unwrap().stage, Stage::Publish);
    }

    #[test]
    fn intern_resolves_and_deduplicates() {
        let _g = crate::test_lock();
        let a = intern_name("trace_test.phase.a");
        let b = intern_name("trace_test.phase.b");
        assert_ne!(a, b);
        assert_eq!(intern_name("trace_test.phase.a"), a);
        assert_eq!(resolve_name(a).as_deref(), Some("trace_test.phase.a"));
        assert_eq!(resolve_name(u64::MAX), None);
    }

    #[test]
    fn chrome_trace_covers_spans_and_instants() {
        let _g = crate::test_lock();
        {
            let _s = crate::span("trace_test.chrome");
            record(Stage::ShardWrite, 940_001, 3, 128);
        }
        let json = to_chrome_trace(&snapshot());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\":\"B\""), "span enter exported");
        assert!(json.contains("\"ph\":\"E\""), "span exit exported");
        assert!(json.contains("trace_test.chrome"), "span path resolved");
        assert!(
            json.contains("\"name\":\"shard.write\""),
            "instant exported"
        );
        assert!(json.contains("\"version\":940001"));
    }

    #[test]
    fn disabled_switch_records_no_events() {
        let _g = crate::test_lock();
        crate::set_enabled(false);
        let before = snapshot().len();
        record(Stage::Install, 950_001, 999_999_999, 1);
        stamp_version(950_001);
        crate::set_enabled(true);
        assert_eq!(snapshot().len(), before, "kill switch stops the recorder");
        assert_eq!(version_stamp_ns(950_001), None);
    }

    #[test]
    fn dump_formats_the_causal_path() {
        let _g = crate::test_lock();
        record(Stage::ChangelogPull, 960_002, 555_001, 3);
        record(Stage::DeltaPull, 960_002, 555_001, 96);
        record(Stage::PullDone, 960_002, 555_001, 12345);
        let dump = dump_entity(555_001, 8);
        assert!(dump.contains("entity 555001"));
        assert!(dump.contains("pull.changelog"));
        assert!(dump.contains("pull.delta"));
        assert!(dump.contains("pull.done"));
        assert!(dump.contains("v960002"));
        let empty = dump_entity(123_456_789_000, 8);
        assert!(empty.contains("no retained events"));
    }
}

#[cfg(all(test, feature = "disabled"))]
mod disabled_tests {
    use super::*;

    #[test]
    fn disabled_feature_compiles_the_recorder_out() {
        for i in 0..100_000u64 {
            record(Stage::Install, 1, 2, i);
        }
        stamp_version(7);
        assert!(snapshot().is_empty(), "no ring exists under `disabled`");
        assert_eq!(version_stamp_ns(7), None);
        assert_eq!(version_age_ns(7), None);
        assert_eq!(intern_name("x"), 0);
        assert_eq!(resolve_name(0), None);
        assert!(events_for(2, 10).is_empty());
        let dump = dump_entity(2, 10);
        assert!(dump.contains("no retained events"));
        let json = to_chrome_trace(&snapshot());
        assert!(json.contains("traceEvents"));
    }
}
