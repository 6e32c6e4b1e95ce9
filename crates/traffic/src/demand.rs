//! Endpoint-pair demand sets `{d_k^i}` (Table 1).
//!
//! A [`DemandSet`] holds all endpoint-pair demands of one TE interval,
//! grouped by site pair `k`. Demands are heavy-tailed log-normal; their
//! total is scaled against the network's carrying capacity so the
//! satisfied-demand figures land in the paper's regime (§6.2: optima in
//! the high-80s to mid-90s percent).

use crate::qos::QosClass;
use megate_topo::{EndpointCatalog, EndpointId, Graph, SitePair};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One endpoint-pair demand `d_k^i`: the traffic observed between a
/// source and destination virtual instance during a TE interval.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointDemand {
    /// Source virtual instance.
    pub src: EndpointId,
    /// Destination virtual instance.
    pub dst: EndpointId,
    /// Demand in Mbps (indivisible — routed on exactly one tunnel).
    pub demand_mbps: f64,
    /// Service class.
    pub qos: QosClass,
}

/// Knobs for synthetic demand generation.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Total endpoint pairs to generate (the x-axis of Figures 9/10).
    pub endpoint_pairs: usize,
    /// Number of distinct ordered site pairs carrying demand. Capped at
    /// `sites·(sites−1)` internally.
    pub site_pairs: usize,
    /// QoS mix: fraction of pairs in class 1 / 2 / 3. Must sum to ~1.
    pub qos_mix: [f64; 3],
    /// Median of the log-normal per-pair demand, Mbps.
    pub median_demand_mbps: f64,
    /// Log-normal sigma (≈1.5 gives the paper-like heavy tail).
    pub sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        Self {
            endpoint_pairs: 1000,
            site_pairs: 60,
            qos_mix: [0.15, 0.55, 0.30],
            median_demand_mbps: 2.0,
            sigma: 1.5,
            seed: 42,
        }
    }
}

/// All endpoint-pair demands of one TE interval, grouped by site pair.
#[derive(Debug, Clone, Default)]
pub struct DemandSet {
    demands: Vec<EndpointDemand>,
    /// For each site pair `k`: indices into `demands` — the paper's
    /// `I_k` endpoint-pair index set.
    by_pair: BTreeMap<SitePair, Vec<usize>>,
}

impl DemandSet {
    /// Generates a demand set over the endpoints of `catalog`.
    ///
    /// Active site pairs are sampled without replacement; each endpoint
    /// pair is assigned to a site pair with probability proportional to
    /// `min(|endpoints(src)|, |endpoints(dst)|)`, endpoints are drawn
    /// round-robin from each site's catalog, and the demand value is
    /// log-normal. Fully deterministic per seed.
    pub fn generate(graph: &Graph, catalog: &EndpointCatalog, cfg: &TrafficConfig) -> Self {
        assert!(
            (cfg.qos_mix.iter().sum::<f64>() - 1.0).abs() < 1e-6,
            "qos_mix must sum to 1"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = graph.site_count();
        let max_pairs = n * n.saturating_sub(1);
        let n_site_pairs = cfg.site_pairs.min(max_pairs).max(1);

        // Sample ordered site pairs without replacement.
        let mut all_pairs: Vec<SitePair> = Vec::with_capacity(max_pairs);
        for src in graph.site_ids() {
            for dst in graph.site_ids() {
                if src != dst {
                    all_pairs.push(SitePair::new(src, dst));
                }
            }
        }
        for i in (1..all_pairs.len()).rev() {
            all_pairs.swap(i, rng.gen_range(0..=i));
        }
        all_pairs.truncate(n_site_pairs);
        all_pairs.sort(); // deterministic iteration order

        // Weight pairs by endpoint availability.
        let weights: Vec<f64> = all_pairs
            .iter()
            .map(|p| {
                let a = catalog.endpoints_at(p.src).len();
                let b = catalog.endpoints_at(p.dst).len();
                (a.min(b) as f64).max(1.0)
            })
            .collect();
        let wsum: f64 = weights.iter().sum();

        // Largest-remainder apportionment of endpoint pairs.
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| ((w / wsum) * cfg.endpoint_pairs as f64).floor() as usize)
            .collect();
        let n_counts = counts.len();
        let mut assigned: usize = counts.iter().sum();
        let mut i = 0;
        while assigned < cfg.endpoint_pairs {
            counts[i % n_counts] += 1;
            assigned += 1;
            i += 1;
        }

        let mut set = DemandSet::default();
        let mut cursor_src = vec![0usize; n];
        let mut cursor_dst = vec![0usize; n];
        for (pi, &pair) in all_pairs.iter().enumerate() {
            let srcs = catalog.endpoints_at(pair.src);
            let dsts = catalog.endpoints_at(pair.dst);
            if srcs.is_empty() || dsts.is_empty() {
                continue;
            }
            for _ in 0..counts[pi] {
                let s = srcs[cursor_src[pair.src.index()] % srcs.len()];
                cursor_src[pair.src.index()] += 1;
                let d = dsts[cursor_dst[pair.dst.index()] % dsts.len()];
                cursor_dst[pair.dst.index()] += 1;
                let demand_mbps = log_normal(&mut rng, cfg.median_demand_mbps, cfg.sigma);
                let qos = sample_qos(&mut rng, cfg.qos_mix);
                set.push(
                    pair,
                    EndpointDemand {
                        src: s,
                        dst: d,
                        demand_mbps,
                        qos,
                    },
                );
            }
        }
        set
    }

    /// Adds one demand under a site pair.
    pub fn push(&mut self, pair: SitePair, demand: EndpointDemand) {
        assert!(demand.demand_mbps >= 0.0, "negative demand");
        let idx = self.demands.len();
        self.demands.push(demand);
        self.by_pair.entry(pair).or_default().push(idx);
    }

    /// All demands in insertion order.
    pub fn demands(&self) -> &[EndpointDemand] {
        &self.demands
    }

    /// Site pairs with at least one demand, ascending.
    pub fn pairs(&self) -> impl Iterator<Item = SitePair> + '_ {
        self.by_pair.keys().copied()
    }

    /// Indices (into [`demands`](Self::demands)) of a pair's endpoint
    /// demands — the paper's `I_k`.
    pub fn indices_for(&self, pair: SitePair) -> &[usize] {
        self.by_pair.get(&pair).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of endpoint-pair demands.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// True when there are no demands.
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Total demand in Mbps.
    pub fn total_mbps(&self) -> f64 {
        self.demands.iter().map(|d| d.demand_mbps).sum()
    }

    /// Site-level aggregation `D_k = Σ_i d_k^i` (Algorithm 1's
    /// `SiteMerge`), optionally restricted to one QoS class.
    pub fn site_demands(&self, qos: Option<QosClass>) -> BTreeMap<SitePair, f64> {
        let mut out = BTreeMap::new();
        for (&pair, idxs) in &self.by_pair {
            let sum: f64 = idxs
                .iter()
                .map(|&i| &self.demands[i])
                .filter(|d| qos.is_none_or(|q| d.qos == q))
                .map(|d| d.demand_mbps)
                .sum();
            if sum > 0.0 {
                out.insert(pair, sum);
            }
        }
        out
    }

    /// Returns a new set containing only the given class, preserving
    /// pair grouping (per-class sequential allocation needs this).
    pub fn filter_qos(&self, qos: QosClass) -> DemandSet {
        self.filter_qos_with_map(qos).0
    }

    /// Like [`filter_qos`](Self::filter_qos) but also returns, for each
    /// new index, the index in `self` it came from — so per-class
    /// allocations can be merged back into a whole-interval assignment.
    pub fn filter_qos_with_map(&self, qos: QosClass) -> (DemandSet, Vec<usize>) {
        let mut out = DemandSet::default();
        let mut back = Vec::new();
        for (&pair, idxs) in &self.by_pair {
            for &i in idxs {
                if self.demands[i].qos == qos {
                    out.push(pair, self.demands[i].clone());
                    back.push(i);
                }
            }
        }
        (out, back)
    }

    /// Overwrites one demand's value in place (index into
    /// [`demands`](Self::demands)). Pair grouping is untouched — this
    /// is the demand-delta entry point the incremental engine's
    /// dirty-set tracker keys on.
    pub fn set_demand_mbps(&mut self, idx: usize, mbps: f64) {
        assert!(mbps >= 0.0, "negative demand");
        self.demands[idx].demand_mbps = mbps;
    }

    /// Interval-to-interval drift: each demand moves with probability
    /// `churn_ppm`/10⁶, by ×1.25 or ×0.8 (inverse steps, so repeated
    /// perturbation does not drift the load), the picks seeded by `seed`.
    pub fn perturb(&mut self, churn_ppm: u32, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for d in &mut self.demands {
            if rng.gen_range(0..1_000_000u32) < churn_ppm {
                d.demand_mbps *= if rng.gen_bool(0.5) { 1.25 } else { 0.8 };
            }
        }
    }

    /// Scales every demand by `factor`.
    pub fn scale(&mut self, factor: f64) {
        assert!(factor >= 0.0);
        for d in &mut self.demands {
            d.demand_mbps *= factor;
        }
    }

    /// Scales demands so total demand ≈ `load` × the network's rough
    /// carrying capacity (total link capacity ÷ mean shortest-path hop
    /// count). `load` ≈ 1.0 puts the optimum in the paper's high-80s/90s
    /// satisfied-demand regime.
    pub fn scale_to_load(&mut self, graph: &Graph, load: f64) {
        let total = self.total_mbps();
        if total <= 0.0 {
            return;
        }
        let avg_hops = self.mean_pair_hops(graph).max(1.0);
        let carrying = graph.total_capacity_mbps() / avg_hops;
        self.scale(load * carrying / total);
    }

    fn mean_pair_hops(&self, graph: &Graph) -> f64 {
        let mut hops = 0usize;
        let mut count = 0usize;
        for pair in self.pairs() {
            if let Some(p) = megate_topo::dijkstra(graph, pair.src, pair.dst) {
                hops += p.hop_count();
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            hops as f64 / count as f64
        }
    }
}

fn log_normal(rng: &mut StdRng, median: f64, sigma: f64) -> f64 {
    // Box-Muller standard normal.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    median * (sigma * z).exp()
}

fn sample_qos(rng: &mut StdRng, mix: [f64; 3]) -> QosClass {
    let r: f64 = rng.gen_range(0.0..1.0);
    if r < mix[0] {
        QosClass::Class1
    } else if r < mix[0] + mix[1] {
        QosClass::Class2
    } else {
        QosClass::Class3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megate_topo::{b4, EndpointCatalog, WeibullEndpoints};

    fn setup(pairs: usize) -> (Graph, EndpointCatalog, DemandSet) {
        let g = b4();
        let cat = EndpointCatalog::generate(&g, 1200, WeibullEndpoints::with_scale(100.0), 7);
        let cfg = TrafficConfig {
            endpoint_pairs: pairs,
            ..Default::default()
        };
        let set = DemandSet::generate(&g, &cat, &cfg);
        (g, cat, set)
    }

    #[test]
    fn generates_requested_pair_count() {
        let (_, _, set) = setup(500);
        assert_eq!(set.len(), 500);
        assert!(set.total_mbps() > 0.0);
    }

    #[test]
    fn endpoints_belong_to_their_site_pair() {
        let (_, cat, set) = setup(300);
        for pair in set.pairs() {
            for &i in set.indices_for(pair) {
                let d = &set.demands()[i];
                assert_eq!(cat.site_of(d.src), pair.src);
                assert_eq!(cat.site_of(d.dst), pair.dst);
            }
        }
    }

    #[test]
    fn site_demands_match_manual_sum() {
        let (_, _, set) = setup(200);
        let agg = set.site_demands(None);
        let total_agg: f64 = agg.values().sum();
        assert!((total_agg - set.total_mbps()).abs() < 1e-6);
    }

    #[test]
    fn qos_filter_partitions_the_set() {
        let (_, _, set) = setup(400);
        let sizes: usize = QosClass::IN_PRIORITY_ORDER
            .iter()
            .map(|&q| set.filter_qos(q).len())
            .sum();
        assert_eq!(sizes, set.len());
    }

    #[test]
    fn qos_mix_roughly_respected() {
        let (_, _, set) = setup(4000);
        let c1 = set.filter_qos(QosClass::Class1).len() as f64 / set.len() as f64;
        assert!((c1 - 0.15).abs() < 0.05, "class-1 share {c1}");
    }

    #[test]
    fn heavy_tail_present() {
        let (_, _, set) = setup(4000);
        let mut v: Vec<f64> = set.demands().iter().map(|d| d.demand_mbps).collect();
        v.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top10: f64 = v.iter().take(v.len() / 10).sum();
        let total: f64 = v.iter().sum();
        // Top 10% of flows should carry a large share of the traffic.
        assert!(top10 / total > 0.4, "top-10% share {}", top10 / total);
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, _, a) = setup(100);
        let (_, _, b) = setup(100);
        assert_eq!(a.demands(), b.demands());
    }

    #[test]
    fn scale_to_load_hits_target() {
        let (g, _, mut set) = setup(1000);
        set.scale_to_load(&g, 0.5);
        let total = set.total_mbps();
        // Recompute the target the same way and compare.
        let mut set2 = set.clone();
        set2.scale_to_load(&g, 0.5);
        assert!((set2.total_mbps() - total).abs() / total < 1e-9);
        assert!(total > 0.0);
    }

    #[test]
    fn scale_is_linear() {
        let (_, _, mut set) = setup(50);
        let before = set.total_mbps();
        set.scale(2.0);
        assert!((set.total_mbps() - 2.0 * before).abs() < 1e-9 * before);
    }

    #[test]
    #[should_panic(expected = "qos_mix")]
    fn bad_mix_rejected() {
        let g = b4();
        let cat = EndpointCatalog::generate(&g, 120, WeibullEndpoints::with_scale(10.0), 1);
        let cfg = TrafficConfig {
            qos_mix: [0.5, 0.5, 0.5],
            ..Default::default()
        };
        DemandSet::generate(&g, &cat, &cfg);
    }
}
