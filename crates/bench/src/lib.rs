//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper has a binary in `src/bin/`
//! (see DESIGN.md's experiment index); this library provides the
//! common pieces: instance construction per Table-2 topology, scheme
//! execution with wall-clock timing and OOM capture, and table/JSON
//! reporting.
//!
//! All binaries accept `--scale quick|full` (default `quick`): `quick`
//! finishes in about a minute per figure; `full` runs the paper-sized
//! ladders (hyper-scale MegaTE points take tens of seconds each, and
//! the baselines are reported as OOM exactly where the paper stops
//! plotting them).

use megate::prelude::*;
use megate_solvers::SolveError;
use serde::Serialize;
use std::time::Duration;

/// One benchmark instance: a topology with endpoint-granular demands.
pub struct Instance {
    /// Topology name (paper spelling, e.g. `Deltacom*`).
    pub topology: &'static str,
    /// The site graph.
    pub graph: Graph,
    /// Pre-established tunnels for demand-bearing pairs.
    pub tunnels: TunnelTable,
    /// Endpoint-pair demands of one TE interval.
    pub demands: DemandSet,
    /// Nominal endpoint count (the figures' x-axis).
    pub endpoints: usize,
}

impl Instance {
    /// The solver's view of this instance.
    pub fn problem(&self) -> TeProblem<'_> {
        TeProblem {
            graph: &self.graph,
            tunnels: &self.tunnels,
            demands: &self.demands,
        }
    }
}

/// Builds an instance of `spec` with roughly `endpoints` endpoint
/// pairs, in the paper's §6.1 style: Weibull endpoint attachment,
/// demand-bearing site pairs sampled, demands scaled to a loaded-but-
/// feasible regime.
pub fn build_instance(spec: TopologySpec, endpoints: usize, seed: u64) -> Instance {
    let graph = spec.build();
    let n_sites = graph.site_count();
    let max_site_pairs = n_sites * (n_sites - 1);
    // Keep tens of endpoint pairs per site pair (the regime that makes
    // indivisible flows packable, as in production).
    let site_pairs = (endpoints / 30).clamp(n_sites.min(10), max_site_pairs.min(3000));
    let catalog = EndpointCatalog::generate(
        &graph,
        (endpoints * 2).max(n_sites),
        WeibullEndpoints::with_scale(endpoints as f64 / n_sites as f64),
        seed,
    );
    let mut demands = DemandSet::generate(
        &graph,
        &catalog,
        &TrafficConfig {
            endpoint_pairs: endpoints,
            site_pairs,
            sigma: 0.8,
            seed,
            ..Default::default()
        },
    );
    // Tunnels only for demand-bearing pairs (hyper-scale runs cannot
    // afford all-pairs tunnel layout, and neither does production).
    let pairs: Vec<SitePair> = demands.pairs().collect();
    let tunnels = TunnelTable::for_pairs(&graph, &pairs, 4);

    // Calibrate the load so the fractional optimum satisfies ~90% of
    // demand — the §6.2 regime (production matrices are provisioned
    // for). One cheap FPTAS probe on the site-aggregated MCF yields the
    // carryable flow F*; scaling total demand to F*/0.90 puts the
    // optimum near 90%.
    // Step 1: push well into overload so the probe is capacity-limited.
    demands.scale_to_load(&graph, 3.0);
    let site_demands = demands.site_demands(None);
    let probe = megate_lp::McfProblem {
        link_capacity: graph
            .link_ids()
            .map(|l| graph.link(l).capacity_mbps)
            .collect(),
        commodities: site_demands
            .iter()
            .map(|(&pair, &d)| megate_lp::Commodity {
                demand: d,
                paths: tunnels
                    .tunnels_for(pair)
                    .iter()
                    .map(|&t| {
                        let tun = tunnels.tunnel(t);
                        megate_lp::PathSpec {
                            links: tun.links.iter().map(|l| l.index()).collect(),
                            weight: tun.weight,
                        }
                    })
                    .collect(),
            })
            .collect(),
        epsilon_weight: 1e-4,
    };
    // Step 2: binary-search the demand scale so the (fractional)
    // optimum's satisfied ratio lands near the 90% target. The probe is
    // the site-aggregated MCF: 8 FPTAS solves whose cost follows site
    // pairs, not endpoints — measured 1.3–1.6 s each on TWAN at 100k
    // endpoint demands (2829 pairs), ~12 s of set-up per instance.
    let total = demands.total_mbps();
    if total > 0.0 {
        let ratio_at = |alpha: f64| -> f64 {
            let mut scaled = probe.clone();
            for c in &mut scaled.commodities {
                c.demand *= alpha;
            }
            let flow = scaled.solve_fptas(0.05).total_flow / 0.95;
            (flow / (alpha * total)).min(1.0)
        };
        let (mut lo, mut hi) = (0.02f64, 1.0f64);
        // Invariant: ratio(lo) >= target >= ratio(hi) (ratio decreases
        // in alpha). Expand `hi` if even full overload over-satisfies.
        for _ in 0..8 {
            let mid = 0.5 * (lo + hi);
            if ratio_at(mid) > 0.90 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        demands.scale(0.5 * (lo + hi));
    }
    Instance {
        topology: spec.name(),
        graph,
        tunnels,
        demands,
        endpoints,
    }
}

/// Result of running one scheme on one instance.
#[derive(Debug, Clone, Serialize)]
pub struct SchemeRun {
    /// Scheme name.
    pub scheme: String,
    /// Topology name.
    pub topology: String,
    /// Endpoint count.
    pub endpoints: usize,
    /// Solve wall-clock seconds (`None` when the scheme failed).
    pub seconds: Option<f64>,
    /// Satisfied-demand ratio (`None` when the scheme failed).
    pub satisfied: Option<f64>,
    /// Failure classification (`"OOM"` etc.).
    pub error: Option<String>,
}

/// Runs a scheme, capturing time, satisfied ratio and OOM failures.
pub fn run_scheme<S: megate_solvers::TeScheme>(scheme: &S, instance: &Instance) -> SchemeRun {
    let p = instance.problem();
    match scheme.solve(&p) {
        Ok(alloc) => {
            assert!(
                alloc.check_feasible(&p, 1e-5),
                "{} produced infeasible",
                scheme.name()
            );
            SchemeRun {
                scheme: scheme.name().to_string(),
                topology: instance.topology.to_string(),
                endpoints: instance.endpoints,
                seconds: Some(alloc.solve_time.as_secs_f64()),
                satisfied: Some(alloc.satisfied_ratio(&p)),
                error: None,
            }
        }
        Err(SolveError::OutOfMemory { .. }) => SchemeRun {
            scheme: scheme.name().to_string(),
            topology: instance.topology.to_string(),
            endpoints: instance.endpoints,
            seconds: None,
            satisfied: None,
            error: Some("OOM".to_string()),
        },
        Err(e) => SchemeRun {
            scheme: scheme.name().to_string(),
            topology: instance.topology.to_string(),
            endpoints: instance.endpoints,
            seconds: None,
            satisfied: None,
            error: Some(e.to_string()),
        },
    }
}

/// Scale selection for bench binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Sub-minute runs; truncated ladders.
    Quick,
    /// Paper-sized ladders (minutes).
    Full,
}

/// Parses `--scale quick|full` from `std::env::args` (default quick).
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    match args.iter().position(|a| a == "--scale") {
        Some(i) if args.get(i + 1).map(String::as_str) == Some("full") => Scale::Full,
        _ => {
            if args.iter().any(|a| a == "--full") {
                Scale::Full
            } else {
                Scale::Quick
            }
        }
    }
}

/// The endpoint-count ladder for a topology at a scale (Figure 9's
/// x-axis decades, truncated under `Quick`).
pub fn endpoint_ladder(spec: TopologySpec, scale: Scale) -> Vec<usize> {
    let full: Vec<usize> = match spec {
        TopologySpec::B4 => vec![120, 1_200, 12_000, 120_000],
        TopologySpec::Deltacom => vec![113, 1_130, 11_300, 113_000, 1_130_000],
        TopologySpec::Cogentco => vec![197, 1_970, 19_700, 197_000, 1_970_000],
        TopologySpec::Twan => vec![1_000, 10_000, 100_000, 1_000_000],
    };
    match scale {
        Scale::Full => full,
        Scale::Quick => full.into_iter().filter(|&n| n <= 12_000).collect(),
    }
}

/// Prints an aligned ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Writes machine-readable results next to the printed table.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // read-only checkout: printing suffices
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(s) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, s);
        println!("[written {}]", path.display());
    }
}

/// Formats seconds human-style ("1.23 s" / "45 ms").
pub fn fmt_seconds(d: Option<f64>) -> String {
    match d {
        None => "—".to_string(),
        Some(s) if s < 1.0 => format!("{:.0} ms", s * 1000.0),
        Some(s) => format!("{s:.2} s"),
    }
}

/// Formats a ratio as a percentage.
pub fn fmt_pct(r: Option<f64>) -> String {
    match r {
        None => "—".to_string(),
        Some(v) => format!("{:.1}%", v * 100.0),
    }
}

/// A duration helper used by sweep binaries.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_build_for_all_topologies() {
        for spec in TopologySpec::all() {
            let inst = build_instance(spec, 500, 1);
            assert_eq!(inst.demands.len(), 500);
            assert!(inst.tunnels.tunnel_count() > 0);
            assert!(inst.problem().total_demand_mbps() > 0.0);
        }
    }

    #[test]
    fn ladder_quick_is_prefix_of_full() {
        for spec in TopologySpec::all() {
            let q = endpoint_ladder(spec, Scale::Quick);
            let f = endpoint_ladder(spec, Scale::Full);
            assert!(!q.is_empty());
            assert!(q.len() <= f.len());
            assert_eq!(&f[..q.len()], &q[..]);
        }
    }

    #[test]
    fn run_scheme_reports_satisfied_and_time() {
        let inst = build_instance(TopologySpec::B4, 300, 2);
        let run = run_scheme(&MegaTeScheme::default(), &inst);
        assert!(run.error.is_none());
        assert!(run.seconds.unwrap() >= 0.0);
        let s = run.satisfied.unwrap();
        assert!((0.0..=1.0 + 1e-9).contains(&s));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_seconds(None), "—");
        assert_eq!(fmt_seconds(Some(0.045)), "45 ms");
        assert_eq!(fmt_seconds(Some(2.5)), "2.50 s");
        assert_eq!(fmt_pct(Some(0.881)), "88.1%");
        assert_eq!(fmt_pct(None), "—");
    }
}
