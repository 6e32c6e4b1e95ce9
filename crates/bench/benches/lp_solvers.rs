//! Criterion: LP substrate — revised vs dense simplex, and the
//! Garg–Könemann FPTAS, on path-formulation MCF instances of growing
//! size (the MaxSiteFlow ablation's timing companion).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use megate_lp::{Commodity, LinearProgram, McfProblem, PathSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_mcf(n_links: usize, n_comm: usize, seed: u64) -> McfProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let link_capacity: Vec<f64> = (0..n_links).map(|_| rng.gen_range(50.0..500.0)).collect();
    let commodities = (0..n_comm)
        .map(|_| {
            let n_paths = rng.gen_range(2..5);
            let paths = (0..n_paths)
                .map(|i| {
                    let len = rng.gen_range(2..6usize).min(n_links);
                    let mut links: Vec<usize> = (0..n_links).collect();
                    for j in (1..links.len()).rev() {
                        links.swap(j, rng.gen_range(0..=j));
                    }
                    links.truncate(len);
                    PathSpec {
                        links,
                        weight: 1.0 + i as f64,
                    }
                })
                .collect();
            Commodity {
                demand: rng.gen_range(10.0..100.0),
                paths,
            }
        })
        .collect();
    McfProblem {
        link_capacity,
        commodities,
        epsilon_weight: 1e-4,
    }
}

/// The raw LP of a path-form MCF with many paths per commodity — the
/// regime where the revised simplex's `O(m² + nnz)` pivots dominate the
/// dense tableau's `O(m(n+m))`.
fn mcf_lp(n_links: usize, n_comm: usize, paths_per: usize, seed: u64) -> LinearProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut objective = Vec::new();
    let mut per_link: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n_links];
    let mut demand_rows: Vec<Vec<(usize, f64)>> = Vec::new();
    for _ in 0..n_comm {
        let mut row = Vec::with_capacity(paths_per);
        for t in 0..paths_per {
            let v = objective.len();
            objective.push(1.0 - 1e-4 * (1.0 + t as f64));
            row.push((v, 1.0));
            let len = rng.gen_range(2..6usize).min(n_links);
            let mut links: Vec<usize> = (0..n_links).collect();
            for j in (1..links.len()).rev() {
                links.swap(j, rng.gen_range(0..=j));
            }
            for &e in &links[..len] {
                per_link[e].push((v, 1.0));
            }
        }
        demand_rows.push(row);
    }
    let mut lp = LinearProgram::maximize(objective);
    for row in demand_rows {
        let demand = rng.gen_range(10.0..100.0);
        lp.add_le(row, demand);
    }
    for entries in per_link {
        if !entries.is_empty() {
            let cap = rng.gen_range(50.0..500.0);
            lp.add_le(entries, cap);
        }
    }
    lp
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcf_solvers");
    group.sample_size(10);
    for &n_comm in &[50usize, 200, 800] {
        let p = random_mcf(60, n_comm, 5);
        group.bench_with_input(BenchmarkId::new("simplex", n_comm), &p, |b, p| {
            b.iter(|| p.solve_exact().unwrap())
        });
        group.bench_with_input(BenchmarkId::new("fptas_0.1", n_comm), &p, |b, p| {
            b.iter(|| p.solve_fptas(0.1))
        });
    }
    // FPTAS-only at a size the dense simplex cannot touch.
    let big = random_mcf(200, 5_000, 9);
    group.bench_function("fptas_0.1/5000", |b| b.iter(|| big.solve_fptas(0.1)));
    group.finish();
}

/// Revised vs dense on one LP sized just past the *old* Auto cutoff —
/// its dense tableau is ~4M entries, the boundary where exact solves
/// used to be abandoned for the FPTAS.
fn bench_lp_core(c: &mut Criterion) {
    let lp = mcf_lp(50, 120, 200, 11);
    assert!(
        lp.tableau_entries() > 4_000_000,
        "instance must sit at the old dense cap ({} entries)",
        lp.tableau_entries()
    );
    let mut group = c.benchmark_group("lp_core_4m");
    group.sample_size(10);
    group.bench_function("dense", |b| b.iter(|| lp.solve_dense().unwrap()));
    group.bench_function("revised", |b| b.iter(|| lp.solve().unwrap()));
    group.finish();
}

criterion_group!(benches, bench_lp, bench_lp_core);
criterion_main!(benches);
