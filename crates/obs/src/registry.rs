//! Named metric registry: get-or-create handles, whole-registry
//! snapshots in deterministic order.
//!
//! The registry lock is touched only on handle creation and snapshot;
//! record paths go through the returned handles and never lock. The
//! process-wide [`global`] registry is what the convenience functions
//! in the crate root and the span API use; tests that need isolation
//! construct their own [`Registry`].

use std::collections::BTreeMap;
use std::sync::{OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, Histogram, Snapshot};

/// A namespace of metrics: name → handle, created on first use.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

fn get_or_create<T: Clone + Default>(map: &RwLock<BTreeMap<String, T>>, name: &str) -> T {
    if let Some(v) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return v.clone();
    }
    map.write()
        .unwrap_or_else(|e| e.into_inner())
        .entry(name.to_string())
        .or_default()
        .clone()
}

impl Registry {
    /// An empty registry (`const`, so it can back a `static`).
    pub const fn new() -> Self {
        Self {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Handle to the named counter, creating (and registering) it on
    /// first use. Creation is the only locking operation; keep the
    /// handle around in hot code.
    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&self.counters, name)
    }

    /// Handle to the named gauge, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&self.gauges, name)
    }

    /// Handle to the named histogram, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_create(&self.histograms, name)
    }

    /// Consistent-enough point-in-time copy of every registered metric
    /// (each individual atomic is read once; no cross-metric barrier).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (k, v) in self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            snap.counters.insert(k.clone(), v.get());
        }
        for (k, v) in self.gauges.read().unwrap_or_else(|e| e.into_inner()).iter() {
            snap.gauges.insert(k.clone(), v.get());
        }
        for (k, v) in self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            snap.histograms.insert(k.clone(), v.snapshot());
        }
        snap
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry all crates record into by default.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// A [`global`]-registry handle for a `static`: the name is looked up
/// on first use and the handle kept, so a per-request or per-event
/// record path pays the registry's lock and name walk once per process.
///
/// ```
/// static REQUESTS: megate_obs::Lazy<megate_obs::Counter> =
///     megate_obs::Lazy::counter("doc.lazy_requests");
/// REQUESTS.inc();
/// assert_eq!(megate_obs::counter("doc.lazy_requests").get(), REQUESTS.get());
/// ```
pub struct Lazy<T> {
    name: &'static str,
    resolve: fn(&str) -> T,
    handle: OnceLock<T>,
}

impl Lazy<Counter> {
    /// The named counter of the global registry.
    pub const fn counter(name: &'static str) -> Self {
        Self::new(name, crate::counter)
    }
}

impl Lazy<Gauge> {
    /// The named gauge of the global registry.
    pub const fn gauge(name: &'static str) -> Self {
        Self::new(name, crate::gauge)
    }
}

impl Lazy<Histogram> {
    /// The named histogram of the global registry.
    pub const fn histogram(name: &'static str) -> Self {
        Self::new(name, crate::histogram)
    }
}

impl<T> Lazy<T> {
    const fn new(name: &'static str, resolve: fn(&str) -> T) -> Self {
        Self {
            name,
            resolve,
            handle: OnceLock::new(),
        }
    }
}

impl<T> std::ops::Deref for Lazy<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        self.handle.get_or_init(|| (self.resolve)(self.name))
    }
}

#[cfg(all(test, not(feature = "disabled")))]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_metric() {
        let _g = crate::test_lock();
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(r.snapshot().counters["x"], 1);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let _g = crate::test_lock();
        let r = Registry::new();
        r.counter("b.two").add(2);
        r.counter("a.one").inc();
        r.gauge("g").set(-3);
        r.histogram("h").record(5);
        let s = r.snapshot();
        let names: Vec<&String> = s.counters.keys().collect();
        assert_eq!(names, ["a.one", "b.two"]);
        assert_eq!(s.gauges["g"], -3);
        assert_eq!(s.histograms["h"].count, 1);
    }
}
