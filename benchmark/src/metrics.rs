//! The metric tables: every end-to-end metric with its regression
//! bound, every per-layer metric, and the bag a run fills. The tables
//! are the source `BENCHMARK.json` is written from; a unit test keeps
//! the two in step.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload measures every one.
/// Timings and rates carry the widest bound the contract allows: on a
/// shared 2-vCPU machine anything that keeps both cores busy (FPTAS
/// threads, pull rounds, packets + installer) swings 10-30 % between
/// quiet and noisy minutes of the host, measured over 80 runs. What the
/// program decides (satisfied demand, bytes per agent) repeats exactly.
pub const END_TO_END: [Def; 12] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("interval_cold_s", "s", Lower, 0.25),
    e2e("interval_warm_s", "s", Lower, 0.25),
    e2e("failover_s", "s", Lower, 0.25),
    e2e("pull_p50_ms", "ms", Lower, 0.25),
    e2e("pull_p99_ms", "ms", Lower, 0.25),
    e2e("pull_kagents_per_s", "kagents/s", Higher, 0.25),
    e2e("satisfied_pct", "%", Higher, 0.005),
    e2e("fanout_bytes_per_agent", "bytes", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
    e2e("fastpath_single_mfps", "Mframes/s", Higher, 0.25),
    e2e("fastpath_batched_mfps", "Mframes/s", Higher, 0.25),
];

/// Single layers, `<crate>.<name>`; no bounds.
pub const PER_LAYER: [Def; 81] = [
    layer("core.controller_cold_s", "s", Lower),
    layer("core.controller_warm_s", "s", Lower),
    layer("core.controller_failover_s", "s", Lower),
    layer("core.published_bytes", "bytes", Lower),
    layer("core.changed_endpoints", "count", Lower),
    layer("core.failover_published_bytes", "bytes", Lower),
    layer("core.failover_changed_endpoints", "count", Lower),
    layer("core.snapshot_flushes", "count", Lower),
    layer("solvers.engine_cold_s", "s", Lower),
    layer("solvers.engine_warm_s", "s", Lower),
    layer("solvers.dirty_pairs", "count", Lower),
    layer("solvers.total_pairs", "count", Lower),
    layer("solvers.carried_endpoints", "count", Higher),
    layer("solvers.dirty_share", "%", Lower),
    layer("lp.class1.site_mcf_s", "s", Lower),
    layer("lp.class1.mode_fptas", "count", Lower),
    layer("lp.class1.size_estimate", "count", Lower),
    layer("lp.class1.rows", "count", Lower),
    layer("lp.class1.satisfied_ratio", "ratio", Higher),
    layer("lp.class2.site_mcf_s", "s", Lower),
    layer("lp.class2.mode_fptas", "count", Lower),
    layer("lp.class2.size_estimate", "count", Lower),
    layer("lp.class2.rows", "count", Lower),
    layer("lp.class2.satisfied_ratio", "ratio", Higher),
    layer("lp.class3.site_mcf_s", "s", Lower),
    layer("lp.class3.mode_fptas", "count", Lower),
    layer("lp.class3.size_estimate", "count", Lower),
    layer("lp.class3.rows", "count", Lower),
    layer("lp.class3.satisfied_ratio", "ratio", Higher),
    layer("ssp.stage3_wall_s", "s", Lower),
    layer("ssp.stage3_busy_max_s", "s", Lower),
    layer("ssp.stage3_busy_total_s", "s", Lower),
    layer("ssp.pairs_stolen", "count", Lower),
    layer("solvers.paths_s", "s", Lower),
    layer("solvers.diff_s", "s", Lower),
    layer("core.encode_snapshot_s", "s", Lower),
    layer("core.encode_delta_s", "s", Lower),
    layer("core.decode_s", "s", Lower),
    layer("tedb.put_s", "s", Lower),
    layer("tedb.fetch_ns_p50", "ns", Lower),
    layer("tedb.fetch_ns_p99", "ns", Lower),
    layer("tedb.queries", "count", Lower),
    layer("tedb.bytes", "bytes", Lower),
    layer("tedb.shard_imbalance", "ratio", Lower),
    layer("net.round_wall_s", "s", Lower),
    layer("net.bootstrap_round_s", "s", Lower),
    layer("net.bytes_out", "bytes", Lower),
    layer("net.bytes_in", "bytes", Lower),
    layer("net.accepted_conns", "count", Lower),
    layer("net.via_snapshot_pulls", "count", Lower),
    layer("net.retry_attempts", "count", Lower),
    layer("net.ping_rtt_us_p50", "us", Lower),
    layer("net.ping_rtt_us_p99", "us", Lower),
    layer("net.get_version_rtt_us_p50", "us", Lower),
    layer("net.dispatch_ns_p50", "ns", Lower),
    layer("net.pull_wait_share", "ratio", Lower),
    layer("hoststack.install_s", "s", Lower),
    layer("hoststack.install_us_p50", "us", Lower),
    layer("hoststack.install_us_p99", "us", Lower),
    layer("hoststack.installs", "count", Lower),
    layer("hoststack.path_map_entries", "count", Lower),
    layer("hoststack.install_contended_us_p50", "us", Lower),
    layer("hoststack.install_contended_us_p99", "us", Lower),
    layer("hoststack.install_scheduled_us_p50", "us", Lower),
    layer("hoststack.install_scheduled_us_p99", "us", Lower),
    layer("bench.install_schedule_lag_us_p99", "us", Lower),
    layer("hoststack.tc_egress_ns_per_frame_p50", "ns", Lower),
    layer("hoststack.tc_egress_ns_per_frame_p99", "ns", Lower),
    layer("packet.parse_batch_ns_per_frame", "ns", Lower),
    layer("dataplane.sr_inserted_share", "ratio", Higher),
    layer("dataplane.accounting_misses", "count", Lower),
    layer("dataplane.fragments_resolved", "count", Higher),
    layer("topo.build_s", "s", Lower),
    layer("topo.tunnels_s", "s", Lower),
    layer("traffic.generate_s", "s", Lower),
    layer("hoststack.bring_up_s", "s", Lower),
    layer("dataplane.trace_generate_s", "s", Lower),
    layer("dataplane.profile_install_s", "s", Lower),
    layer("bench.budget_gap_pct", "%", Lower),
    layer("bench.replay_gap_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// One measured value with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// The values a run produced, by metric name.
#[derive(Default)]
pub struct Bag {
    values: BTreeMap<&'static str, Value>,
}

impl Bag {
    /// Files `value` under `name`; a missing or non-finite value is
    /// left out and shows up as a failure when the table is emitted.
    pub fn set(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        if let Some(v) = value.filter(|v| v.is_finite()) {
            self.values.insert(name, Value { value: v, samples });
        }
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} is defined twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }

    /// `BENCHMARK.json` at the repository root lists exactly these
    /// workloads and metrics (checked textually: the package has no
    /// JSON parser and needs none).
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in &crate::workloads::WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name)),
                "{}",
                w.name
            );
        }
        for d in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                d.bound
            );
            assert!(text.contains(&entry), "missing or stale: {entry}");
        }
        for d in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(text.contains(&entry), "missing or stale: {entry}");
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn bag_drops_values_that_are_not_numbers() {
        let mut bag = Bag::default();
        bag.set("setup_s", Some(1.5), 3);
        bag.set("failover_s", Some(f64::NAN), 1);
        bag.set("pull_p50_ms", None, 0);
        assert_eq!(bag.get("setup_s").map(|v| v.samples), Some(3));
        assert!(bag.get("failover_s").is_none());
        assert!(bag.get("pull_p50_ms").is_none());
    }
}
