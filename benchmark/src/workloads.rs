//! The workload table. Names, sizes and repetition counts are part of
//! the benchmark's definition: changing one starts a new baseline.

use megate_topo::TopologySpec;

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; the README has the long form).
    pub why: &'static str,
    pub topology: TopologySpec,
    /// Endpoint-pair demands of the control-loop instance.
    pub endpoints: usize,
    /// Seed of the frozen instance and script: catalog, site pairs,
    /// tunnels, demands, which pairs churn, which fibers fail.
    pub instance_seed: u64,
    /// The fixed `scale_to_load` constant, chosen once so that
    /// `satisfied_pct` lands in 85–95 %.
    pub load: f64,
    /// The control-loop script: cold repetitions on fresh systems, then
    /// warm intervals and failure/restore events on the last one.
    pub cold: usize,
    pub warm: usize,
    pub fail: usize,
    /// Share of `--seconds` the fast-path passes run for. The script
    /// above is closed-loop work, not time: its counts are sized so the
    /// whole run takes about `--seconds` at the default on 2 cores.
    pub fastpath_share: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "twan_fptas",
        why: "TWAN at 40k endpoint demands: all three QoS-class site LPs exceed the exact-solver cap, so the FPTAS does >=99% of the work; the simplex is bypassed",
        topology: TopologySpec::Twan,
        endpoints: 40_000,
        instance_seed: 7,
        load: 0.36,
        cold: 1,
        warm: 1,
        fail: 1,
        fastpath_share: 0.1,
    },
    Workload {
        name: "twan_exact",
        why: "TWAN at 15k endpoint demands: every class LP stays under the cap, so the revised simplex (warm-started by LpBasis) does the work; the FPTAS is bypassed",
        topology: TopologySpec::Twan,
        endpoints: 15_000,
        instance_seed: 7,
        load: 0.36,
        cold: 3,
        warm: 6,
        fail: 4,
        fastpath_share: 0.1,
    },
    Workload {
        name: "b4_fleet",
        why: "B4 at 120k endpoint demands: the LP is milliseconds, so stage 3, diff, encode, publish, shard writes, socket pulls and installs do the work; failure events republish the fleet",
        topology: TopologySpec::B4,
        endpoints: 120_000,
        instance_seed: 7,
        load: 0.8,
        cold: 3,
        warm: 5,
        fail: 2,
        fastpath_share: 0.1,
    },
    Workload {
        name: "host_fastpath",
        why: "one host's TC egress over 8192 flows while a second thread rewrites 64 paths every 10 ms: the per-packet readers of the maps the control loop writes; the control loop is a miniature",
        topology: TopologySpec::B4,
        endpoints: 12_000,
        instance_seed: 7,
        load: 0.85,
        cold: 3,
        warm: 6,
        fail: 4,
        fastpath_share: 0.8,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
