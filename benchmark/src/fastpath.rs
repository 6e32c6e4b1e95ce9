//! The host fast path: one [`SimKernel`]'s TC egress chain reading the
//! maps the control loop writes, frame-at-a-time and then batched, each
//! while a second thread rewrites 64 installed paths every 10 ms.
//!
//! The packet thread is closed-loop (the next frame goes in when the
//! last came out). The installer is open-loop on a fixed schedule: each
//! `apply_delta` is timed from the instant it was due, and how late the
//! installer started is reported beside it.

use crate::stats::Samples;
use megate_dataplane::workers::{
    install_profile, run_single_frame, Trace, TrafficGen, TrafficProfile,
};
use megate_hoststack::{CpuShard, EndpointAgent, InstanceId, PathInstall, SimKernel, TcStats};
use megate_packet::{parse_batch, FrameBatch};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The traffic: `TrafficProfile::default()` widened to this many flows
/// and instances, and a trace of this many frames. The trace is sized
/// to stay in a core's private cache (~1.4 MB): on shared hardware a
/// 500k-frame trace (170 MB a pass) measured the neighbours' memory
/// traffic — 1.25 to 2.09 Mframes/s between minutes, while the
/// single-threaded LP beside it repeated within 3 % — not the code.
const FLOWS: usize = 8192;
const INSTANCES: usize = 512;
pub const TRACE_FRAMES: usize = 4096;
/// Frames per batch and batches per sync tick on the batched path.
const BATCH: usize = 64;
const SYNC_EVERY: usize = 16;
/// Paths rewritten per install and the install period.
const PATHS_PER_INSTALL: usize = 64;
const INSTALL_PERIOD: Duration = Duration::from_millis(10);
/// The installer sleeps to within this of its due time, then spins, so
/// timer slack does not drown the map operations it measures.
const SPIN_WINDOW: Duration = Duration::from_micros(300);

/// Kernel, installed profile and frame trace of one fast-path run.
pub struct Rig {
    kernel: SimKernel,
    trace: Trace,
    /// The installed `(instance, dst)` keys the installer rewrites.
    rewrite_keys: Vec<(InstanceId, [u8; 4])>,
    pub trace_generate_s: f64,
    pub profile_install_s: f64,
}

impl Rig {
    /// The profile installed on a fresh kernel and a trace of `frames`
    /// frames ([`TRACE_FRAMES`] in every real run) from `seed`.
    pub fn build(seed: u64, frames: usize) -> Self {
        let profile = TrafficProfile {
            flows: FLOWS,
            instances: INSTANCES,
            ..TrafficProfile::default()
        };
        let t = Instant::now();
        let kernel = SimKernel::new();
        install_profile(&kernel, &profile);
        let mut keys: Vec<(InstanceId, [u8; 4])> = kernel
            .maps()
            .path_map
            .snapshot()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        keys.sort();
        // A seed-dependent window of the routed keys.
        let start = (seed as usize * PATHS_PER_INSTALL) % keys.len().max(1);
        keys.rotate_left(start);
        keys.truncate(PATHS_PER_INSTALL);
        let profile_install_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let trace = TrafficGen::new(seed, profile).generate(frames);
        let trace_generate_s = t.elapsed().as_secs_f64();
        Self {
            kernel,
            trace,
            rewrite_keys: keys,
            trace_generate_s,
            profile_install_s,
        }
    }
}

/// What the installer thread measured during one mode's passes.
#[derive(Default)]
struct InstallerOut {
    /// Due instant → `apply_delta` returned, µs.
    latency_us: Vec<f64>,
    /// `apply_delta` call alone, µs.
    call_us: Vec<f64>,
    /// Due instant → `apply_delta` started, µs.
    lag_us: Vec<f64>,
}

/// Everything the fast-path phase measured.
#[derive(Default)]
pub struct FastpathOutcome {
    pub single_mfps: Samples,
    pub batched_mfps: Samples,
    pub single_ns_p50: Samples,
    pub single_ns_p99: Samples,
    pub install_latency_us: Samples,
    pub install_call_us: Samples,
    pub install_lag_us: Samples,
    pub passes: u64,
    pub frames: u64,
    pub sr_inserted: u64,
    pub fragments_resolved: u64,
    pub accounting_misses: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

fn installer(rig: &Rig, stop: &AtomicBool) -> InstallerOut {
    let mut agent = EndpointAgent::new(rig.kernel.maps().clone());
    let mut out = InstallerOut::default();
    let start = Instant::now();
    for tick in 1u32.. {
        let due = start + INSTALL_PERIOD * tick;
        loop {
            if stop.load(Ordering::Acquire) {
                return out;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            if due - now > SPIN_WINDOW {
                std::thread::sleep(due - now - SPIN_WINDOW);
            } else {
                std::hint::spin_loop();
            }
        }
        // Alternate two hop lists so every install rewrites all 64.
        let hops: Vec<u32> = if tick % 2 == 0 {
            vec![2, 7, 11]
        } else {
            vec![3, 8, 12]
        };
        let changed: Vec<PathInstall> = rig
            .rewrite_keys
            .iter()
            .map(|&(instance, dst_ip)| PathInstall {
                instance,
                dst_ip,
                hops: hops.clone(),
            })
            .collect();
        let begun = Instant::now();
        agent.apply_delta(u64::from(tick), &changed, &[]);
        let done = Instant::now();
        out.latency_us.push((done - due).as_secs_f64() * 1e6);
        out.call_us.push((done - begun).as_secs_f64() * 1e6);
        out.lag_us.push((begun - due).as_secs_f64() * 1e6);
    }
    out
}

/// One batched pass over the trace on this thread: batches of
/// [`BATCH`] through `tc_egress_batch`, a `sync_cpu` every
/// [`SYNC_EVERY`] batches and once at the end. Returns the merged
/// counters.
fn batched_pass(kernel: &SimKernel, trace: &Trace, batch: &mut FrameBatch) -> TcStats {
    let mut cpu = CpuShard::new();
    let mut total = TcStats::default();
    let mut add = |d: TcStats| {
        total.frames += d.frames;
        total.sr_inserted += d.sr_inserted;
        total.attributed += d.attributed;
        total.fragments_resolved += d.fragments_resolved;
        total.accounting_misses += d.accounting_misses;
    };
    for (i, chunk) in trace.frames.chunks(BATCH).enumerate() {
        batch.clear();
        for frame in chunk {
            batch.push(frame);
        }
        kernel.tc_egress_batch(batch, &mut cpu);
        if (i + 1) % SYNC_EVERY == 0 {
            add(kernel.sync_cpu(&mut cpu));
        }
    }
    add(kernel.sync_cpu(&mut cpu));
    total
}

/// Runs both modes for `seconds / 2` each: an untimed warm-up pass, then
/// timed passes (at least one).
pub fn run(rig: &Rig, seconds: f64) -> FastpathOutcome {
    let mut out = FastpathOutcome::default();
    let frames = rig.trace.len() as u64;
    let mut sr_per_pass: Option<u64> = None;
    let mut check = |out: &mut FastpathOutcome, mode: &str, stats: TcStats| {
        out.attempted += frames;
        out.passes += 1;
        out.frames += stats.frames;
        out.sr_inserted += stats.sr_inserted;
        out.fragments_resolved += stats.fragments_resolved;
        out.accounting_misses += stats.accounting_misses;
        let mut bad = stats.accounting_misses + stats.frames.abs_diff(frames);
        // The installer rewrites hop lists but never adds or removes a
        // path, so every pass steers exactly the same frames.
        let want = *sr_per_pass.get_or_insert(stats.sr_inserted);
        bad += stats.sr_inserted.abs_diff(want);
        if bad > 0 {
            out.failed += bad;
            if out.failures.len() < 8 {
                out.failures.push(format!(
                    "{mode} pass: {} frames of {frames}, {} accounting misses, {} steered (expected {want})",
                    stats.frames, stats.accounting_misses, stats.sr_inserted
                ));
            }
        }
    };

    for batched in [false, true] {
        let stop = AtomicBool::new(false);
        let installs = std::thread::scope(|scope| {
            let handle = scope.spawn(|| installer(rig, &stop));
            let mut batch = FrameBatch::with_capacity(BATCH, 512);
            // The first pass of a mode fills `traffic_map`, grows the
            // telemetry ring and faults the batch arena in: it is
            // checked like any other but not timed.
            let mut phase = Instant::now();
            let mut passes = 0;
            while passes < 2 || phase.elapsed().as_secs_f64() < seconds / 2.0 {
                let warm_up = passes == 0;
                if batched {
                    let t = Instant::now();
                    let stats = batched_pass(&rig.kernel, &rig.trace, &mut batch);
                    let secs = t.elapsed().as_secs_f64();
                    if !warm_up {
                        out.batched_mfps.push(frames as f64 / secs / 1e6);
                    }
                    check(&mut out, "batched", stats);
                } else {
                    let report = run_single_frame(&rig.kernel, &rig.trace);
                    if !warm_up {
                        out.single_mfps.push(report.frames_per_sec / 1e6);
                        out.single_ns_p50.push(report.ns_per_frame_p50 as f64);
                        out.single_ns_p99.push(report.ns_per_frame_p99 as f64);
                    }
                    check(&mut out, "single-frame", report.stats);
                }
                if warm_up {
                    phase = Instant::now();
                }
                passes += 1;
            }
            stop.store(true, Ordering::Release);
            handle.join().expect("installer thread panicked")
        });
        out.attempted += installs.latency_us.len() as u64;
        out.install_latency_us.extend(installs.latency_us);
        out.install_call_us.extend(installs.call_us);
        out.install_lag_us.extend(installs.lag_us);
    }
    out
}

/// Layer replay: `parse_batch` alone over the trace, ns per frame.
pub fn replay_parse(rig: &Rig) -> f64 {
    let mut batch = FrameBatch::with_capacity(BATCH, 512);
    let mut descs = Vec::with_capacity(BATCH);
    let mut parsing = Duration::ZERO;
    for chunk in rig.trace.frames.chunks(BATCH) {
        batch.clear();
        for frame in chunk {
            batch.push(frame);
        }
        let t = Instant::now();
        parse_batch(&batch, &mut descs);
        parsing += t.elapsed();
        std::hint::black_box(&descs);
    }
    parsing.as_secs_f64() * 1e9 / rig.trace.len().max(1) as f64
}
