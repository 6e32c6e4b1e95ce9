//! The control-loop script: cold repetitions on fresh systems, then
//! 2 %-churn warm intervals and failure/restore events on the last
//! system. An interval is timed from just before the controller call to
//! the moment the last agent's config is installed in its host's
//! `path_map`; the pull round starts the instant the controller call
//! returns (no sync-period spreading).

use crate::fleet::{ControlPlane, Round};
use crate::instance::Instance;
use crate::spans::{self, Recorder};
use crate::workloads::Workload;
use megate::{ControllerError, IntervalReport};
use megate_solvers::TeProblem;
use megate_topo::{FailureScenario, SitePair};
use megate_traffic::DemandSet;
use std::time::Instant;

/// Share of site pairs whose demands oscillate on warm intervals.
const CHURN_SHARE: f64 = 0.02;
/// The oscillation factor (×1.1, then ÷1.1, alternately).
const CHURN_FACTOR: f64 = 1.1;
/// Fibers cut per failure event.
const FAILED_FIBERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Warm,
    Failover,
}

/// One timed interval: demands in → last path installed.
pub struct IntervalSample {
    pub kind: Kind,
    pub wall_s: f64,
    pub controller_s: f64,
    pub round: Round,
    pub report: IntervalReport,
    pub satisfied_pct: f64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Whether the harness's spans were on (warm intervals alternate
    /// in traced runs, which is what measures the tracing overhead).
    pub traced: bool,
}

/// Everything the control-loop phase measured.
pub struct ControlOutcome {
    pub agents: usize,
    pub hosts: usize,
    pub site_pairs: usize,
    pub intervals: Vec<IntervalSample>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub path_map_entries: usize,
    pub accepted_conns: u64,
    /// The instance and the last system, kept for the layer replay.
    pub instance: Instance,
    pub plane: ControlPlane,
}

impl ControlOutcome {
    pub fn of(&self, kind: Kind) -> impl Iterator<Item = &IntervalSample> {
        self.intervals.iter().filter(move |s| s.kind == kind)
    }
}

/// The fixed volatile subset: every 50th site pair, offset by the
/// instance seed.
fn volatile_pairs(demands: &DemandSet, seed: u64) -> Vec<SitePair> {
    let stride = (1.0 / CHURN_SHARE).round() as usize;
    demands
        .pairs()
        .skip(seed as usize % stride)
        .step_by(stride)
        .collect()
}

/// One warm interval's churn: every demand of every volatile pair
/// ×[`CHURN_FACTOR`] on even `step`s, ÷ on odd ones.
pub fn churn(demands: &mut DemandSet, instance_seed: u64, step: usize) {
    let factor = if step.is_multiple_of(2) {
        CHURN_FACTOR
    } else {
        1.0 / CHURN_FACTOR
    };
    for pair in volatile_pairs(demands, instance_seed) {
        for i in demands.indices_for(pair).to_vec() {
            let d = demands.demands()[i].demand_mbps;
            demands.set_demand_mbps(i, d * factor);
        }
    }
}

struct Script<'a> {
    rec: &'a Recorder,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    intervals: Vec<IntervalSample>,
    next_interval: u32,
}

impl Script<'_> {
    fn fail(&mut self, n: u64, what: String) {
        if n > 0 {
            self.failed += n;
            if self.failures.len() < 16 {
                self.failures.push(what);
            }
        }
    }

    /// Times one interval on `plane`, runs the correctness gate after
    /// its round, and files the sample.
    fn interval(
        &mut self,
        kind: Kind,
        plane: &mut ControlPlane,
        inst: &Instance,
        demands: &DemandSet,
        scenario: Option<&FailureScenario>,
        traced: bool,
    ) {
        let id = self.next_interval;
        self.next_interval += 1;
        let off = Recorder::new(false);
        let rec = if traced { self.rec } else { &off };
        let (out0, in0) = (plane.state().bytes_out(), plane.state().bytes_in());

        let start = Instant::now();
        let span = rec.begin("bench.interval", spans::NONE, id, 0);
        let ctl_span = rec.begin("core.controller", span, id, 0);
        let result: Result<IntervalReport, ControllerError> = match scenario {
            None => plane.controller.run_interval(demands),
            Some(s) => plane.controller.handle_failure(demands, s),
        };
        rec.end(ctl_span);
        let controller_s = start.elapsed().as_secs_f64();
        let round_span = rec.begin("net.pull_round", span, id, 0);
        let round = plane.pull_round(rec, round_span, id);
        rec.end(round_span);
        rec.end(span);
        let wall_s = start.elapsed().as_secs_f64();

        // Attempted: the interval, every pull and every install.
        self.attempted += 1 + round.pulls as u64 + round.installs as u64;
        let label = format!("{kind:?} interval {id}");
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                self.fail(1, format!("{label}: controller error: {e}"));
                return;
            }
        };
        if report.fallback || report.publish_errors > 0 {
            self.fail(1, format!("{label}: fallback or failed publish"));
        }
        let graph = match scenario {
            Some(s) => s.apply(&inst.graph),
            None => inst.graph.clone(),
        };
        let problem = TeProblem {
            graph: &graph,
            tunnels: &inst.tunnels,
            demands,
        };
        if !report.allocation.check_feasible(&problem, 1e-5) {
            self.fail(1, format!("{label}: infeasible allocation"));
        }
        self.fail(
            (round.pulls - round.refreshed) as u64,
            format!("{label}: pulls not refreshed in their period"),
        );
        self.fail(round.degraded as u64, format!("{label}: degraded agents"));
        self.fail(
            plane.verify() as u64,
            format!("{label}: agents whose config differs from the published paths"),
        );
        let satisfied_pct = 100.0 * report.allocation.satisfied_ratio(&problem);
        self.intervals.push(IntervalSample {
            kind,
            wall_s,
            controller_s,
            round,
            report,
            satisfied_pct,
            bytes_out: plane.state().bytes_out() - out0,
            bytes_in: plane.state().bytes_in() - in0,
            traced,
        });
    }
}

/// Runs the control-loop script of `w` on the set-up instance and
/// system. The script is the same for every `--seed`: `seed` only
/// rotates the order in which the fleet's agents pull.
pub fn run(
    w: &Workload,
    seed: u64,
    rec: &Recorder,
    inst: Instance,
    mut plane: ControlPlane,
) -> ControlOutcome {
    let mut script = Script {
        rec,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        intervals: Vec::new(),
        next_interval: 1,
    };
    let mut demands = inst.demands.clone();
    let traced = rec.enabled();
    plane.set_pull_offset(seed);

    // Cold: a fresh controller, database, server and fleet each time.
    for rep in 0..w.cold {
        if rep > 0 {
            ControlPlane::stop(plane);
            plane = ControlPlane::start(&inst).0;
            plane.set_pull_offset(seed);
        }
        script.interval(Kind::Cold, &mut plane, &inst, &demands, None, traced);
    }

    // Warm: the fixed volatile subset oscillates ±10 %. A traced run
    // needs one interval with spans and one without, to measure what
    // the spans cost.
    let warm = if traced { w.warm.max(2) } else { w.warm };
    for k in 0..warm {
        churn(&mut demands, w.instance_seed, k);
        let on = traced && k % 2 == 0;
        script.interval(Kind::Warm, &mut plane, &inst, &demands, None, on);
    }

    // Failure and restore events, alternately.
    for j in 0..w.fail {
        let scenario = if j % 2 == 0 {
            FailureScenario::sample_connected(
                &inst.graph,
                FAILED_FIBERS,
                w.instance_seed + j as u64,
            )
            .expect("the topology survives two fiber cuts")
        } else {
            FailureScenario::none()
        };
        script.interval(
            Kind::Failover,
            &mut plane,
            &inst,
            &demands,
            Some(&scenario),
            traced,
        );
    }

    ControlOutcome {
        agents: plane.agents(),
        hosts: plane.hosts(),
        site_pairs: inst.demands.pairs().count(),
        intervals: script.intervals,
        attempted: script.attempted,
        failed: script.failed,
        failures: script.failures,
        path_map_entries: plane.path_map_entries(),
        accepted_conns: plane.state().accepted_conns(),
        instance: inst,
        plane,
    }
}
