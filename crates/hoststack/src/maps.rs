//! eBPF-style maps: bounded, shared key-value stores.
//!
//! "The eBPF maps are generic key-value stores used to store eBPF
//! program states, enabling communications among various eBPF programs
//! and between eBPF programs and user-space processes" (§5.1). We keep
//! the same semantics that shape real deployments: a fixed
//! `max_entries` bound (updates fail when full — kernel `E2BIG`/`ENOMEM`
//! behaviour), point lookups, and shared access from both the simulated
//! kernel and the user-space agent.

use crate::kernel::InstanceId;
use parking_lot::RwLock;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::Arc;

/// Errors mirroring eBPF map syscall failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The map is at `max_entries` and the key is new.
    Full,
    /// Key not present (delete/lookup-required paths).
    NotFound,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Full => write!(f, "map full"),
            MapError::NotFound => write!(f, "key not found"),
        }
    }
}

impl std::error::Error for MapError {}

/// Map flavour, mirroring `BPF_MAP_TYPE_HASH` vs `BPF_MAP_TYPE_LRU_HASH`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Plain hash: inserting a new key into a full map fails.
    Hash,
    /// LRU hash: inserting into a full map evicts the least-recently-
    /// used entry (what production deployments use for `frag_map` and
    /// `traffic_map`, where stale flows must not wedge accounting).
    LruHash,
}

#[derive(Debug)]
struct MapInner<K, V> {
    data: HashMap<K, (V, u64)>, // value + last-touch tick
    tick: u64,
}

/// A bounded, thread-shared key-value map with eBPF update semantics.
///
/// Clones share the same underlying storage (like holding two fds to
/// one map).
#[derive(Debug)]
pub struct EbpfMap<K, V> {
    name: &'static str,
    max_entries: usize,
    kind: MapKind,
    inner: Arc<RwLock<MapInner<K, V>>>,
    /// Live entry count exported as `hoststack.map.<name>.occupancy`.
    /// Maintained by ±deltas on insert/evict/delete/drain, so every
    /// host's instance of a same-named map (e.g. each host's
    /// `traffic_map`) aggregates into one process-wide gauge.
    occupancy: megate_obs::Gauge,
}

impl<K, V> Clone for EbpfMap<K, V> {
    fn clone(&self) -> Self {
        Self {
            name: self.name,
            max_entries: self.max_entries,
            kind: self.kind,
            inner: Arc::clone(&self.inner),
            occupancy: self.occupancy.clone(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> EbpfMap<K, V> {
    /// Creates a plain hash map with a capacity bound.
    pub fn new(name: &'static str, max_entries: usize) -> Self {
        Self::with_kind(name, max_entries, MapKind::Hash)
    }

    /// Creates an LRU hash map with a capacity bound.
    pub fn new_lru(name: &'static str, max_entries: usize) -> Self {
        Self::with_kind(name, max_entries, MapKind::LruHash)
    }

    /// Creates a map of the given kind.
    pub fn with_kind(name: &'static str, max_entries: usize, kind: MapKind) -> Self {
        assert!(max_entries > 0, "map must allow at least one entry");
        Self {
            name,
            max_entries,
            kind,
            inner: Arc::new(RwLock::new(MapInner {
                data: HashMap::new(),
                tick: 0,
            })),
            occupancy: megate_obs::gauge(&format!("hoststack.map.{name}.occupancy")),
        }
    }

    /// The map's flavour.
    pub fn kind(&self) -> MapKind {
        self.kind
    }

    /// The map's name (matching Figure 6's labels).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Capacity bound.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.inner.read().data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().data.is_empty()
    }

    /// Point lookup (clones the value, like `bpf_map_lookup_elem` copies
    /// out). Refreshes LRU recency. Only LRU eviction reads recency, so
    /// a plain hash map answers under the read lock and concurrent
    /// lookups do not exclude each other.
    pub fn lookup(&self, key: &K) -> Option<V> {
        if self.kind == MapKind::Hash {
            return self.inner.read().data.get(key).map(|(v, _)| v.clone());
        }
        let mut g = self.inner.write();
        g.tick += 1;
        let tick = g.tick;
        g.data.get_mut(key).map(|(v, t)| {
            *t = tick;
            v.clone()
        })
    }

    /// Whether `key` holds a value equal to `value`, under the read lock
    /// and without copying the value out. Refreshes no LRU recency.
    pub(crate) fn holds<Q: ?Sized>(&self, key: &K, value: &Q) -> bool
    where
        V: PartialEq<Q>,
    {
        self.inner
            .read()
            .data
            .get(key)
            .is_some_and(|(v, _)| v == value)
    }

    /// Insert-or-overwrite (`BPF_ANY`). A full plain-hash map rejects
    /// new keys with [`MapError::Full`]; a full LRU map evicts the
    /// least-recently-used entry instead.
    pub fn update(&self, key: K, value: V) -> Result<(), MapError> {
        let mut g = self.inner.write();
        g.tick += 1;
        let tick = g.tick;
        let new_key = !g.data.contains_key(&key);
        if new_key && g.data.len() >= self.max_entries {
            match self.kind {
                MapKind::Hash => return Err(MapError::Full),
                // The new key replaces the evicted one: occupancy
                // is unchanged.
                MapKind::LruHash => evict_lru(&mut g),
            }
        } else if new_key {
            self.occupancy.add(1);
        }
        g.data.insert(key, (value, tick));
        Ok(())
    }

    /// Read-modify-write of one entry, inserting `default` first when
    /// absent (the common eBPF counter-update idiom).
    pub fn upsert_with(&self, key: K, default: V, f: impl FnOnce(&mut V)) -> Result<(), MapError> {
        let mut g = self.inner.write();
        g.tick += 1;
        let tick = g.tick;
        let new_key = !g.data.contains_key(&key);
        if new_key && g.data.len() >= self.max_entries {
            match self.kind {
                MapKind::Hash => return Err(MapError::Full),
                MapKind::LruHash => evict_lru(&mut g),
            }
        } else if new_key {
            self.occupancy.add(1);
        }
        let entry = g.data.entry(key).or_insert((default, tick));
        entry.1 = tick;
        f(&mut entry.0);
        Ok(())
    }

    /// Bulk read-modify-write under a **single** lock acquisition — the
    /// sync-tick merge path of the batched TC chain (DESIGN.md §5d).
    ///
    /// For each `(key, value)` pair: an existing entry is combined via
    /// `combine(&mut current, value)`; a new key is inserted (calling
    /// `on_new` — the batched path's new-flow detection hook), subject
    /// to the same capacity rule as [`update`](Self::update): a full
    /// plain-hash map rejects the new key (counted in the returned
    /// total), a full LRU map evicts. Per-entry semantics are identical
    /// to calling [`upsert_with`](Self::upsert_with) in a loop; only
    /// the locking is amortized.
    pub fn upsert_many_with(
        &self,
        entries: impl IntoIterator<Item = (K, V)>,
        mut combine: impl FnMut(&mut V, V),
        mut on_new: impl FnMut(&K),
    ) -> usize {
        let mut g = self.inner.write();
        let mut rejected = 0usize;
        let mut inserted = 0i64;
        for (key, value) in entries {
            g.tick += 1;
            let tick = g.tick;
            if let Some(entry) = g.data.get_mut(&key) {
                entry.1 = tick;
                combine(&mut entry.0, value);
                continue;
            }
            if g.data.len() >= self.max_entries {
                match self.kind {
                    MapKind::Hash => {
                        rejected += 1;
                        continue;
                    }
                    MapKind::LruHash => evict_lru(&mut g),
                }
            } else {
                inserted += 1;
            }
            on_new(&key);
            g.data.insert(key, (value, tick));
        }
        self.occupancy.add(inserted);
        rejected
    }

    /// Deletes an entry.
    pub fn delete(&self, key: &K) -> Result<V, MapError> {
        let removed = self.inner.write().data.remove(key);
        if removed.is_some() {
            self.occupancy.sub(1);
        }
        removed.map(|(v, _)| v).ok_or(MapError::NotFound)
    }

    /// Snapshot of all entries (the user-space "iterate map" path the
    /// endpoint agent uses for periodic collection).
    pub fn snapshot(&self) -> Vec<(K, V)> {
        self.inner
            .read()
            .data
            .iter()
            .map(|(k, (v, _))| (k.clone(), v.clone()))
            .collect()
    }

    /// Removes and returns all entries atomically (collect-and-reset at
    /// the end of a TE period).
    pub fn drain(&self) -> Vec<(K, V)> {
        let out: Vec<(K, V)> = self
            .inner
            .write()
            .data
            .drain()
            .map(|(k, (v, _))| (k, v))
            .collect();
        self.occupancy.sub(out.len() as i64);
        out
    }
}

/// A `path_map` key: the instance whose packets get the path and the
/// destination address it applies to.
pub type PathKey = (InstanceId, [u8; 4]);

/// `path_map`: `(ins_id, dst_ip) → SR hop list`, plus an ordered index
/// of its keys so one instance's entries can be found without walking
/// the table.
///
/// The hash table is the [`EbpfMap`] the TC program reads per packet;
/// [`lookup`](Self::lookup) touches nothing else. Every write takes the
/// index lock first and holds it across the table write, so writers are
/// serialized and the index equals the table's key set whenever no
/// write is in flight. Clones share both.
///
/// A write of the hops an entry already holds is skipped: the table is
/// a plain hash, whose recency tick nothing reads, so the skip cannot
/// be observed except in [`writes`](Self::writes).
#[derive(Debug, Clone)]
pub struct PathMap {
    table: EbpfMap<PathKey, Vec<u32>>,
    index: Arc<parking_lot::Mutex<KeyIndex>>,
}

/// The key index and the table's write counts, behind one lock.
#[derive(Debug, Default)]
struct KeyIndex {
    keys: BTreeSet<PathKey>,
    writes: PathMapWrites,
}

/// Table entries a [`PathMap`] has written and deleted since it was
/// made: the work its writers did, not the calls they made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathMapWrites {
    /// Entries inserted, or overwritten with different hops.
    pub updated: u64,
    /// Entries deleted.
    pub deleted: u64,
}

impl PathMap {
    /// An empty plain-hash `path_map` with a capacity bound.
    pub fn new(name: &'static str, max_entries: usize) -> Self {
        Self {
            table: EbpfMap::new(name, max_entries),
            index: Arc::default(),
        }
    }

    /// Entries written and deleted so far.
    pub fn writes(&self) -> PathMapWrites {
        self.index.lock().writes
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The per-packet point lookup: the hash table only.
    pub fn lookup(&self, key: &PathKey) -> Option<Vec<u32>> {
        self.table.lookup(key)
    }

    /// Insert-or-overwrite; a full map rejects a new key with
    /// [`MapError::Full`] and changes nothing. An entry that already
    /// holds `hops` is left as it is.
    pub fn update(&self, key: PathKey, hops: Vec<u32>) -> Result<(), MapError> {
        self.write(key, Cow::Owned(hops))
    }

    /// [`update`](Self::update) from borrowed hops, copied only when the
    /// entry changes.
    pub(crate) fn update_from(&self, key: PathKey, hops: &[u32]) -> Result<(), MapError> {
        self.write(key, Cow::Borrowed(hops))
    }

    fn write(&self, key: PathKey, hops: Cow<'_, [u32]>) -> Result<(), MapError> {
        let mut index = self.index.lock();
        if self.table.holds(&key, &*hops) {
            return Ok(());
        }
        self.table.update(key, hops.into_owned())?;
        index.keys.insert(key);
        index.writes.updated += 1;
        Ok(())
    }

    /// Deletes an entry.
    pub fn delete(&self, key: &PathKey) -> Result<Vec<u32>, MapError> {
        let mut index = self.index.lock();
        index.keys.remove(key);
        let removed = self.table.delete(key);
        index.writes.deleted += u64::from(removed.is_ok());
        removed
    }

    /// Deletes the entries of `instance` whose destination `keep`
    /// rejects, visiting only that instance's keys. Returns how many
    /// were deleted.
    pub fn retain_instance(
        &self,
        instance: InstanceId,
        mut keep: impl FnMut(&[u8; 4]) -> bool,
    ) -> usize {
        let mut index = self.index.lock();
        let stale: Vec<PathKey> = index
            .keys
            .range((instance, [0; 4])..=(instance, [u8::MAX; 4]))
            .filter(|(_, dst)| !keep(dst))
            .copied()
            .collect();
        for key in &stale {
            index.keys.remove(key);
            let _ = self.table.delete(key);
        }
        index.writes.deleted += stale.len() as u64;
        stale.len()
    }

    /// Snapshot of all entries, in table (unspecified) order.
    pub fn snapshot(&self) -> Vec<(PathKey, Vec<u32>)> {
        self.table.snapshot()
    }

    /// The key index, ascending.
    pub fn keys(&self) -> Vec<PathKey> {
        self.index.lock().keys.iter().copied().collect()
    }

    /// Removes and returns all entries.
    pub fn drain(&self) -> Vec<(PathKey, Vec<u32>)> {
        let mut index = self.index.lock();
        index.keys.clear();
        let drained = self.table.drain();
        index.writes.deleted += drained.len() as u64;
        drained
    }
}

/// Evicts the least-recently-touched entry (linear scan — map sizes in
/// the simulation are modest, and real LRU maps amortize differently).
fn evict_lru<K: Eq + Hash + Clone, V>(g: &mut MapInner<K, V>) {
    if let Some(oldest) = g
        .data
        .iter()
        .min_by_key(|(_, (_, t))| *t)
        .map(|(k, _)| k.clone())
    {
        g.data.remove(&oldest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_lookup_delete_cycle() {
        let m: EbpfMap<u32, String> = EbpfMap::new("test", 4);
        assert!(m.is_empty());
        m.update(1, "a".into()).unwrap();
        assert_eq!(m.lookup(&1), Some("a".into()));
        m.update(1, "b".into()).unwrap(); // overwrite allowed
        assert_eq!(m.lookup(&1), Some("b".into()));
        assert_eq!(m.delete(&1).unwrap(), "b");
        assert_eq!(m.delete(&1), Err(MapError::NotFound));
    }

    #[test]
    fn full_map_rejects_new_keys_but_allows_overwrites() {
        let m: EbpfMap<u32, u32> = EbpfMap::new("small", 2);
        m.update(1, 10).unwrap();
        m.update(2, 20).unwrap();
        assert_eq!(m.update(3, 30), Err(MapError::Full));
        m.update(2, 25).unwrap(); // existing key still updatable
        assert_eq!(m.lookup(&2), Some(25));
    }

    #[test]
    fn upsert_with_counts_like_traffic_map() {
        let m: EbpfMap<u8, u64> = EbpfMap::new("traffic", 8);
        for bytes in [100u64, 200, 50] {
            m.upsert_with(7, 0, |v| *v += bytes).unwrap();
        }
        assert_eq!(m.lookup(&7), Some(350));
    }

    #[test]
    fn clones_share_storage() {
        let a: EbpfMap<u8, u8> = EbpfMap::new("shared", 4);
        let b = a.clone();
        a.update(1, 1).unwrap();
        assert_eq!(b.lookup(&1), Some(1));
        b.delete(&1).unwrap();
        assert!(a.is_empty());
    }

    #[test]
    fn drain_empties_and_returns_all() {
        let m: EbpfMap<u8, u8> = EbpfMap::new("drain", 4);
        m.update(1, 1).unwrap();
        m.update(2, 2).unwrap();
        let mut all = m.drain();
        all.sort();
        assert_eq!(all, vec![(1, 1), (2, 2)]);
        assert!(m.is_empty());
    }

    #[test]
    fn lru_map_evicts_oldest_on_pressure() {
        let m: EbpfMap<u8, u8> = EbpfMap::new_lru("lru", 3);
        m.update(1, 1).unwrap();
        m.update(2, 2).unwrap();
        m.update(3, 3).unwrap();
        // Touch key 1 so key 2 becomes the LRU victim.
        assert_eq!(m.lookup(&1), Some(1));
        m.update(4, 4).unwrap(); // evicts 2
        assert_eq!(m.len(), 3);
        assert_eq!(m.lookup(&2), None);
        assert_eq!(m.lookup(&1), Some(1));
        assert_eq!(m.lookup(&4), Some(4));
    }

    #[test]
    fn lru_upsert_also_evicts() {
        let m: EbpfMap<u8, u64> = EbpfMap::new_lru("lru2", 2);
        m.upsert_with(1, 0, |v| *v += 1).unwrap();
        m.upsert_with(2, 0, |v| *v += 1).unwrap();
        m.upsert_with(3, 0, |v| *v += 1).unwrap(); // evicts 1
        assert_eq!(m.lookup(&1), None);
        assert_eq!(m.lookup(&3), Some(1));
        assert_eq!(m.kind(), MapKind::LruHash);
    }

    #[test]
    fn plain_hash_lookups_share_the_read_lock() {
        let m: EbpfMap<u8, u8> = EbpfMap::new("shared_read", 4);
        m.update(1, 1).unwrap();
        // Another reader holds the lock: a lookup must not wait for it.
        let held = m.inner.read();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = m.clone();
        let t = std::thread::spawn(move || tx.send(reader.lookup(&1)).unwrap());
        let got = rx.recv_timeout(std::time::Duration::from_secs(10));
        drop(held);
        t.join().unwrap();
        assert_eq!(got, Ok(Some(1)), "the lookup waited for a reader");
    }

    #[test]
    fn plain_hash_still_rejects_when_full() {
        let m: EbpfMap<u8, u8> = EbpfMap::new("plain", 1);
        m.update(1, 1).unwrap();
        assert_eq!(m.update(2, 2), Err(MapError::Full));
        assert_eq!(m.kind(), MapKind::Hash);
    }

    #[test]
    fn concurrent_counters_do_not_lose_updates() {
        let m: EbpfMap<u8, u64> = EbpfMap::new("conc", 4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.upsert_with(0, 0, |v| *v += 1).unwrap();
                    }
                });
            }
        });
        assert_eq!(m.lookup(&0), Some(4000));
    }
}
