//! Ablations of MegaTE's design choices (DESIGN.md's ablation index):
//!
//! 1. **FastSSP vs exact DP vs plain greedy** inside MaxEndpointFlow —
//!    quality and time;
//! 2. **Exact simplex vs FPTAS** for MaxSiteFlow — quality and time;
//! 3. **FastSSP's ε′ sweep** — the cluster threshold `M = ε′F/3` and
//!    normalization `δ = ε′M/3` trade accuracy for DP size;
//! 4. **MaxEndpointFlow parallelism** — worker-count sweep;
//! 5. **Residual repair on/off**.

use megate_bench::{build_instance, fmt_pct, fmt_seconds, print_table, write_json};
use megate_solvers::megate::LpMode;
use megate_solvers::{MegaTeConfig, MegaTeScheme, TeScheme};
use megate_ssp::{dp_subset_sum, fast_ssp, first_fit_descending, FastSspConfig};
use megate_topo::TopologySpec;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct AblationRecord {
    experiment: String,
    variant: String,
    metric: String,
    value: f64,
}

fn main() {
    let mut records: Vec<AblationRecord> = Vec::new();

    // ---- 1. SSP algorithm comparison: two workloads.
    // (a) many small flows (the common MaxEndpointFlow shape);
    // (b) few elephant flows (lumpy — where greedy leaves headroom).
    let small: Vec<u64> = (0..20_000u64).map(|i| 200 + (i * 7919) % 3800).collect();
    let lumpy: Vec<u64> = (0..60u64)
        .map(|i| 500_000 + (i * 982_451_653) % 4_500_000)
        .collect();
    let mut rows = Vec::new();
    for (label, items) in [("20k small flows", &small), ("60 elephants", &lumpy)] {
        let capacity: u64 = items.iter().sum::<u64>() * 62 / 100;
        let t0 = Instant::now();
        let greedy = first_fit_descending(items, capacity);
        let greedy_t = t0.elapsed();
        let t0 = Instant::now();
        let fast = fast_ssp(items, capacity, FastSspConfig::default());
        let fast_t = t0.elapsed();
        for (algo, total, t) in [
            ("greedy", greedy.total, greedy_t),
            ("FastSSP", fast.solution.total, fast_t),
        ] {
            rows.push(vec![
                format!("{algo} ({label})"),
                format!("{}", capacity - total),
                format!(
                    "{:.4}%",
                    100.0 * (capacity - total) as f64 / capacity as f64
                ),
                fmt_seconds(Some(t.as_secs_f64())),
            ]);
            records.push(AblationRecord {
                experiment: "ssp".into(),
                variant: format!("{algo}/{label}"),
                metric: "gap".into(),
                value: (capacity - total) as f64 / capacity as f64,
            });
        }
    }
    // Exact DP blow-up demo: O(|I_k| * F) at full capacity is
    // intractable; even a truncated instance takes seconds.
    let small_items = &small[..2000];
    let small_cap: u64 = small_items.iter().sum::<u64>() * 62 / 100;
    let t0 = Instant::now();
    let exact = dp_subset_sum(small_items, small_cap);
    let exact_t = t0.elapsed();
    rows.push(vec![
        "exact DP (2k items only)".into(),
        format!("{}", small_cap - exact.total),
        format!(
            "{:.4}%",
            100.0 * (small_cap - exact.total) as f64 / small_cap as f64
        ),
        fmt_seconds(Some(exact_t.as_secs_f64())),
    ]);
    print_table(
        "Ablation 1: MaxEndpointFlow subset-sum strategies (gap = unfilled capacity)",
        &["algorithm", "gap (kbps)", "gap %", "time"],
        &rows,
    );

    // ---- 2. Exact simplex vs FPTAS for MaxSiteFlow.
    let inst = build_instance(TopologySpec::Deltacom, 4000, 5);
    let p = inst.problem();
    let mut rows = Vec::new();
    // Residual repair off: it would compensate for first-stage error
    // and hide exactly the effect this ablation isolates.
    for (name, mode) in [
        ("exact simplex", LpMode::Exact),
        ("FPTAS eps=0.05", LpMode::Fptas(0.05)),
        ("FPTAS eps=0.15", LpMode::Fptas(0.15)),
    ] {
        let scheme = MegaTeScheme::new(MegaTeConfig {
            lp_mode: mode,
            residual_repair: false,
            ..Default::default()
        });
        let alloc = scheme.solve(&p).expect("solve");
        rows.push(vec![
            name.into(),
            fmt_pct(Some(alloc.satisfied_ratio(&p))),
            fmt_seconds(Some(alloc.solve_time.as_secs_f64())),
        ]);
        records.push(AblationRecord {
            experiment: "maxsiteflow".into(),
            variant: name.into(),
            metric: "satisfied".into(),
            value: alloc.satisfied_ratio(&p),
        });
    }
    print_table(
        "Ablation 2: MaxSiteFlow solver (Deltacom*, 4k endpoints)",
        &["first-stage LP", "satisfied", "total solve time"],
        &rows,
    );

    // ---- 3. FastSSP epsilon' sweep.
    let mut rows = Vec::new();
    for eps in [0.02, 0.05, 0.1, 0.2, 0.4] {
        let scheme = MegaTeScheme::new(MegaTeConfig {
            fastssp_epsilon: eps,
            residual_repair: false,
            ..Default::default()
        });
        let alloc = scheme.solve(&p).expect("solve");
        rows.push(vec![
            format!("{eps}"),
            fmt_pct(Some(alloc.satisfied_ratio(&p))),
            fmt_seconds(Some(alloc.solve_time.as_secs_f64())),
        ]);
        records.push(AblationRecord {
            experiment: "fastssp_eps".into(),
            variant: format!("{eps}"),
            metric: "satisfied".into(),
            value: alloc.satisfied_ratio(&p),
        });
    }
    print_table(
        "Ablation 3: FastSSP ε′ sweep (Deltacom*, 4k endpoints)",
        &["ε′", "satisfied", "solve time"],
        &rows,
    );

    // ---- 4. Parallelism in MaxEndpointFlow (§8 "Parallelism in SSP"):
    // the per-site-pair SSPs are independent; sweep the worker count.
    let inst = build_instance(TopologySpec::Cogentco, 20_000, 5);
    let p5 = inst.problem();
    let mut rows = Vec::new();
    let mut t1 = None;
    for threads in [1usize, 2, 4, 8, 16] {
        let scheme = MegaTeScheme::new(MegaTeConfig {
            threads,
            ..Default::default()
        });
        let t0 = Instant::now();
        let alloc = scheme.solve(&p5).expect("solve");
        let elapsed = t0.elapsed().as_secs_f64();
        if threads == 1 {
            t1 = Some(elapsed);
        }
        rows.push(vec![
            threads.to_string(),
            fmt_seconds(Some(elapsed)),
            format!("{:.2}x", t1.unwrap_or(elapsed) / elapsed),
            fmt_pct(Some(alloc.satisfied_ratio(&p5))),
        ]);
        records.push(AblationRecord {
            experiment: "ssp_parallelism".into(),
            variant: format!("{threads} threads"),
            metric: "seconds".into(),
            value: elapsed,
        });
    }
    print_table(
        "Ablation 4: MaxEndpointFlow parallelism (Cogentco*, 20k endpoints; \
         §8 'Parallelism in SSP')",
        &["threads", "solve time", "speedup", "satisfied"],
        &rows,
    );

    // ---- 5. Residual repair on/off: the implementation refinement
    // beyond Algorithm 1 (first-fit LP-stranded flows onto true link
    // headroom). Matters most when |I_k| is small (few, large flows).
    let mut rows = Vec::new();
    for (label, endpoints) in [("few flows/pair", 600usize), ("many flows/pair", 6000)] {
        let inst = build_instance(TopologySpec::B4, endpoints, 13);
        let p6 = inst.problem();
        for repair in [false, true] {
            let scheme = MegaTeScheme::new(MegaTeConfig {
                residual_repair: repair,
                ..Default::default()
            });
            let alloc = scheme.solve(&p6).expect("solve");
            rows.push(vec![
                format!("{label}, repair {}", if repair { "on" } else { "off" }),
                fmt_pct(Some(alloc.satisfied_ratio(&p6))),
                fmt_seconds(Some(alloc.solve_time.as_secs_f64())),
            ]);
            records.push(AblationRecord {
                experiment: "residual_repair".into(),
                variant: format!("{label}/{repair}"),
                metric: "satisfied".into(),
                value: alloc.satisfied_ratio(&p6),
            });
        }
    }
    print_table(
        "Ablation 5: residual-repair pass (B4*; repair recovers capacity the \
         fractional first stage strands on indivisible flows)",
        &["configuration", "satisfied", "solve time"],
        &rows,
    );

    write_json("ablations", &records);
}
