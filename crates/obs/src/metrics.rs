//! Lock-free metric primitives: sharded counters, gauges, and
//! log2-bucketed histograms, plus their mergeable snapshots.
//!
//! Record paths are a relaxed atomic op behind an `enabled()` branch;
//! no locks are taken, so kernel-path code (TC egress, ring buffer
//! publish) and the LP pivot loop can record without contention.
//! Counters and histograms write the calling thread's stripe, its own
//! cache line(s), and reads sum the stripes, so two threads recording
//! into one metric never write the same line (unless more threads than
//! stripes share a slot, when they merely share it).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Number of histogram buckets: bucket 0 holds values {0, 1}; bucket
/// `i >= 1` holds `[2^i, 2^(i+1))`; bucket 63 is open-ended.
pub const HIST_BUCKETS: usize = 64;

/// Counters stripe their hot atomic across this many cache lines so
/// concurrent writers (solver worker pools, per-host kernel sims) do
/// not serialize on one word.
const COUNTER_SHARDS: usize = 16;

/// Bucket index for a recorded value: `floor(log2(max(v, 1)))`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    63 - (v | 1).leading_zeros() as usize
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread claims a striped slot once; round-robin assignment
    /// spreads unrelated threads over the shards.
    static SHARD_SLOT: usize = NEXT_SHARD.fetch_add(1, Relaxed) % COUNTER_SHARDS;
}

#[inline]
fn shard_slot() -> usize {
    SHARD_SLOT.with(|s| *s)
}

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// An always-on `u64` sum striped per thread across cache lines: `add`
/// is one relaxed `fetch_add` on the calling thread's stripe, `get`
/// sums the stripes. Unlike [`Counter`] it ignores [`crate::enabled`],
/// so it can carry counts the program itself reads (byte accounting,
/// request totals), and it is a plain value to embed, not a handle.
#[derive(Default)]
pub struct StripedU64 {
    stripes: [PaddedU64; COUNTER_SHARDS],
}

impl std::fmt::Debug for StripedU64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("StripedU64").field(&self.get()).finish()
    }
}

impl StripedU64 {
    /// A zero sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to this thread's stripe (wrapping, like `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[shard_slot()].0.fetch_add(n, Relaxed);
    }

    /// The sum over the stripes. Relaxed: concurrent adds may or may not
    /// be visible, but once writers are quiet it is exact.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Relaxed)))
    }

    /// Sets every stripe to zero (between measurement windows; adds
    /// racing the reset may survive it).
    pub fn reset(&self) {
        for s in &self.stripes {
            s.0.store(0, Relaxed);
        }
    }
}

/// A monotonically increasing, cache-line-sharded counter handle.
/// Cloning is cheap (`Arc`); all clones observe the same total.
#[derive(Clone, Default)]
pub struct Counter(Arc<StripedU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// A fresh counter at zero, detached from any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` to this thread's shard (one relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.add(n);
    }

    /// Sum across shards. Relaxed: concurrent adds may or may not be
    /// visible, but the value is always a valid past total.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

#[derive(Default)]
pub(crate) struct GaugeCore {
    value: AtomicI64,
}

/// A last-write-wins signed gauge (occupancy, staleness, ratios).
#[derive(Clone, Default)]
pub struct Gauge(Arc<GaugeCore>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Gauge {
    /// A fresh gauge at zero, detached from any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the value (last write wins across threads).
    #[inline]
    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.0.value.store(v, Relaxed);
    }

    /// Adjust the value by a signed delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.0.value.fetch_add(delta, Relaxed);
    }

    /// Shorthand for `add(-delta)`.
    #[inline]
    pub fn sub(&self, delta: i64) {
        self.add(-delta);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Relaxed)
    }
}

/// One thread slot's share of a histogram, on cache lines of its own.
#[repr(align(64))]
struct HistStripe {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for HistStripe {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A histogram's stripes, allocated on a slot's first record, so a
/// histogram only one thread writes costs one stripe.
#[derive(Default)]
pub(crate) struct HistogramCore {
    stripes: [OnceLock<Box<HistStripe>>; COUNTER_SHARDS],
}

/// A log2-bucketed histogram handle. `record` is three relaxed atomic
/// adds on the calling thread's stripe; snapshots merge the stripes and
/// are internally consistent per field (never torn within one atomic).
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish()
    }
}

impl Histogram {
    /// A fresh empty histogram, detached from any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample into its log2 bucket.
    #[inline]
    pub fn record(&self, v: u64) {
        if !crate::enabled() {
            return;
        }
        let s = self.0.stripes[shard_slot()].get_or_init(Box::default);
        s.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        s.sum.fetch_add(v, Relaxed);
        s.count.fetch_add(1, Relaxed);
    }

    /// Record nanoseconds elapsed since `start` (from [`crate::start`]);
    /// a `None` start (metrics were disabled) records nothing.
    #[inline]
    pub fn record_elapsed(&self, start: Option<std::time::Instant>) {
        if let Some(t) = start {
            self.record(t.elapsed().as_nanos() as u64);
        }
    }

    /// A point-in-time copy of the buckets, sum, and count: the
    /// stripes merged.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for s in self.0.stripes.iter().filter_map(OnceLock::get) {
            out.merge(&HistogramSnapshot {
                count: s.count.load(Relaxed),
                sum: s.sum.load(Relaxed),
                buckets: std::array::from_fn(|i| s.buckets[i].load(Relaxed)),
            });
        }
        out
    }
}

/// Point-in-time copy of a histogram; mergeable across shards/threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all recorded values (wrapping, like the live adds).
    pub sum: u64,
    /// Occupancy per log2 bucket (see [`bucket_of`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Fold another snapshot's samples into this one.
    pub fn merge(&mut self, other: &Self) {
        // Wrapping, to match the relaxed fetch_add semantics of the
        // live histogram (the sum of random u64 samples wraps too).
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.wrapping_add(*o);
        }
    }

    /// Inclusive upper bound of bucket `i`; `None` for the open-ended
    /// last bucket.
    pub fn bucket_upper_bound(i: usize) -> Option<u64> {
        if i + 1 >= HIST_BUCKETS {
            None
        } else {
            Some((1u64 << (i + 1)) - 1)
        }
    }

    /// Conservative (upper-bound) quantile estimate. Guaranteed
    /// `true_value <= estimate <= 2 * max(true_value, 1)` because
    /// buckets are powers of two.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target {
                return Self::bucket_upper_bound(i).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Arithmetic mean of recorded values (0.0 when empty; exact,
    /// since the sum is tracked outside the buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A full registry snapshot: every counter, gauge, and histogram by
/// name, in deterministic (sorted) order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Merge another snapshot into this one: counters and histogram
    /// fields add; gauges add as deltas (shards report disjoint state).
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            let e = self.counters.entry(k.clone()).or_insert(0);
            *e = e.wrapping_add(*v);
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = e.wrapping_add(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// The snapshot as it survives Prometheus exposition: metric names
    /// mapped through [`crate::sanitize_name`], colliding names merged.
    pub fn sanitized(&self) -> Snapshot {
        let mut out = Snapshot::default();
        for (k, v) in &self.counters {
            let e = out.counters.entry(crate::sanitize_name(k)).or_insert(0);
            *e = e.wrapping_add(*v);
        }
        for (k, v) in &self.gauges {
            let e = out.gauges.entry(crate::sanitize_name(k)).or_insert(0);
            *e = e.wrapping_add(*v);
        }
        for (k, v) in &self.histograms {
            out.histograms
                .entry(crate::sanitize_name(k))
                .or_default()
                .merge(v);
        }
        out
    }
}

// Recording is compiled out under the `disabled` feature, so these
// value assertions only hold in the default configuration.
#[cfg(all(test, not(feature = "disabled")))]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 0..HIST_BUCKETS - 1 {
            let ub = HistogramSnapshot::bucket_upper_bound(i).unwrap();
            assert_eq!(bucket_of(ub), i, "upper bound of bucket {i}");
            assert_eq!(bucket_of(ub + 1), i + 1);
        }
    }

    #[test]
    fn counter_sums_across_shards() {
        let _g = crate::test_lock();
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_set_add() {
        let _g = crate::test_lock();
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(20);
        assert_eq!(g.get(), -5);
    }

    #[test]
    fn histogram_records_and_merges() {
        let _g = crate::test_lock();
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1 << 40] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 106 + (1 << 40));
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[6], 1);
        assert_eq!(s.buckets[40], 1);

        let mut m = s.clone();
        m.merge(&s);
        assert_eq!(m.count, 12);
        assert_eq!(m.buckets[1], 4);
    }

    #[test]
    fn quantile_upper_bounds_true_value() {
        let _g = crate::test_lock();
        let h = Histogram::new();
        let vals: Vec<u64> = (1..=1000).collect();
        for &v in &vals {
            h.record(v);
        }
        let s = h.snapshot();
        for q in [0.5, 0.9, 0.99, 1.0] {
            let est = s.quantile(q);
            let idx = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len()) - 1;
            let truth = vals[idx];
            assert!(truth <= est, "q={q}: {truth} <= {est}");
            assert!(est <= 2 * truth.max(1), "q={q}: {est} <= 2*{truth}");
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = crate::test_lock();
        crate::set_enabled(false);
        let c = Counter::new();
        let g = Gauge::new();
        let h = Histogram::new();
        c.inc();
        g.set(7);
        h.record(9);
        crate::set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.snapshot().count, 0);
    }
}
