//! One shard of the TE-DB: its map, the batch of writes applied to it
//! under one lock, and its counters and fault knobs.
//!
//! Every write — a one-entry `put` as much as a whole interval's
//! publish — is an [`Op`] in a batch. The database routes each op to
//! its replica shards and hands each shard the ops it holds, in batch
//! order; [`apply`] then runs them against the shard's map with the
//! write lock taken once for the lot.

use crate::keyspace::{Changelog, KeyMap, TeKey};
use megate_obs::StripedU64;
use parking_lot::RwLock;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A stored value plus the global write sequence that produced it —
/// the last-writer-wins ordering the repair pass compares. Replicas of
/// one write share the value's bytes.
#[derive(Debug, Clone)]
pub(crate) struct Stored {
    pub(crate) seq: u64,
    pub(crate) value: Arc<[u8]>,
}

/// One write of a batch.
#[derive(Debug)]
pub(crate) enum Op {
    /// SET.
    Put(TeKey, Arc<[u8]>),
    /// Appends a version to an endpoint's changelog in place, the way a
    /// Redis `RPUSH` does: no read crosses the wire. Creates the log
    /// (or replaces a malformed one) on first change; appending the
    /// version the log already ends at changes nothing.
    Append {
        /// The endpoint whose changelog grows.
        endpoint: u64,
        /// The version to append.
        version: u64,
        /// The log a replica without one stores: built once, by the
        /// caller, and shared by the replicas.
        fresh: Arc<[u8]>,
    },
    /// DEL.
    Remove(TeKey),
    /// Drops an endpoint's changelog versions `<= floor` and raises its
    /// `complete_since` to `floor`; reports the dropped versions.
    Prune {
        /// The endpoint whose changelog shrinks.
        endpoint: u64,
        /// The retention floor.
        floor: u64,
    },
}

impl Op {
    /// An [`Op::Append`] of `version` to `endpoint`'s changelog.
    pub(crate) fn append(endpoint: u64, version: u64) -> Op {
        Op::Append {
            endpoint,
            version,
            fresh: Changelog::fresh(version),
        }
    }

    /// The key the op writes.
    pub(crate) fn key(&self) -> TeKey {
        match *self {
            Op::Put(key, _) | Op::Remove(key) => key,
            Op::Append { endpoint, .. } | Op::Prune { endpoint, .. } => {
                TeKey::Changelog { endpoint }
            }
        }
    }

    /// Bytes the request puts on one replica's wire: the key, plus the
    /// value of a SET or the one 8-byte argument of an append or prune.
    fn request_bytes(&self) -> u64 {
        let arg = match self {
            Op::Put(_, value) => value.len(),
            Op::Append { .. } | Op::Prune { .. } => 8,
            Op::Remove(_) => 0,
        };
        (self.key().wire_len() + arg) as u64
    }
}

#[derive(Debug, Default)]
pub(crate) struct Shard {
    data: RwLock<KeyMap<Stored>>,
    /// Queries served. Striped per thread: every read charges it, from
    /// every serving thread.
    pub(crate) queries: StripedU64,
    /// Bytes moved over this shard's wire: keys both ways, values on
    /// SET (request) and on GET hits (response).
    pub(crate) bytes: StripedU64,
    /// What every read consults and almost nothing writes, on a cache
    /// line of its own rather than beside the lock word every read
    /// writes.
    pub(crate) knobs: Knobs,
    /// Position in the shard's deterministic fault-roll stream.
    fault_ops: AtomicU64,
    /// Write-lock acquisitions: the work count that says a batch took
    /// each shard's lock once, not once per key.
    write_locks: AtomicU64,
}

/// A shard's fault knobs and its latency histogram handle.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Knobs {
    /// Failure injection: a down shard answers nothing (GET -> None,
    /// SET dropped) — what a client sees during a shard outage.
    pub(crate) down: AtomicBool,
    /// Injected per-query service latency (ns); 0 = healthy.
    pub(crate) slow_ns: AtomicU64,
    /// Probability (ppm) that a read fails transiently (connection
    /// drop) even though the shard is up.
    pub(crate) loss_ppm: AtomicU32,
    /// Probability (ppm) that a read returns a value with one flipped
    /// bit.
    pub(crate) corrupt_ppm: AtomicU32,
    /// Per-shard query service time, exported as
    /// `tedb.shard<i>.query_ns` (all databases in the process sharing
    /// a shard index aggregate into the same histogram). A batch
    /// records one sample per shard.
    pub(crate) latency: megate_obs::Histogram,
}

impl Shard {
    pub(crate) fn new(latency: megate_obs::Histogram) -> Self {
        Self {
            knobs: Knobs {
                latency,
                ..Knobs::default()
            },
            ..Self::default()
        }
    }

    pub(crate) fn is_down(&self) -> bool {
        self.knobs.down.load(Ordering::Relaxed)
    }

    /// One deterministic fault roll in `[0, 1_000_000)`.
    pub(crate) fn roll(&self, seed: u64, shard_idx: usize) -> u64 {
        let op = self.fault_ops.fetch_add(1, Ordering::Relaxed);
        crate::store::splitmix64(seed ^ ((shard_idx as u64) << 48) ^ op) % 1_000_000
    }

    /// A copy of the value stored under `key`.
    pub(crate) fn get(&self, key: &TeKey) -> Option<Vec<u8>> {
        self.data.read().get(key).map(|st| st.value.to_vec())
    }

    /// Runs `f` over the shard's map under its read lock.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&KeyMap<Stored>) -> R) -> R {
        f(&self.data.read())
    }

    /// Takes the write lock, counting the acquisition.
    pub(crate) fn lock(&self) -> impl DerefMut<Target = KeyMap<Stored>> + '_ {
        self.write_locks.fetch_add(1, Ordering::Relaxed);
        self.data.write()
    }

    /// Write-lock acquisitions so far.
    #[cfg(test)]
    pub(crate) fn write_locks(&self) -> u64 {
        self.write_locks.load(Ordering::Relaxed)
    }

    /// Counts one query per op in `list` and the bytes their requests
    /// carry, reachable or not (a write to a downed shard still
    /// crossed the wire). Returns the bytes.
    pub(crate) fn charge(&self, ops: &[Op], list: &[u32]) -> u64 {
        let bytes = list.iter().map(|&i| ops[i as usize].request_bytes()).sum();
        self.queries.add(list.len() as u64);
        self.bytes.add(bytes);
        bytes
    }

    /// How many keys `list` surely adds to a map holding `len` keys:
    /// every put and append when the map is empty, else the deltas — a
    /// delta's key carries a version never written before. Reserving
    /// this never grows a table past what the writes themselves would,
    /// and leaves the writes nothing to allocate in the common cases.
    pub(crate) fn new_keys(len: usize, ops: &[Op], list: &[u32]) -> usize {
        let adds = |op: &Op| match op {
            Op::Put(TeKey::Delta { .. }, _) => true,
            Op::Put(..) | Op::Append { .. } => len == 0,
            Op::Remove(_) | Op::Prune { .. } => false,
        };
        list.iter().filter(|&&i| adds(&ops[i as usize])).count()
    }
}

/// Applies `ops[i]` for every `i` in `list` (ascending) to one shard's
/// map; op `i` carries write sequence `seq0 + i`. Sets `landed[i]` when
/// a put or append is stored, a removed key existed or a pruned log was
/// present. Returns the changelog versions the prunes dropped, as
/// `(op, version)`. Allocates only to grow an existing changelog or
/// prune one, and to grow a map the caller did not reserve room in.
pub(crate) fn apply(
    map: &mut KeyMap<Stored>,
    ops: &[Op],
    list: &[u32],
    seq0: u64,
    landed: &[AtomicBool],
) -> Vec<(u32, u64)> {
    let mut dropped = Vec::new();
    for &i in list {
        let seq = seq0 + i as u64;
        let hit = match &ops[i as usize] {
            Op::Put(key, value) => {
                map.insert(
                    *key,
                    Stored {
                        seq,
                        value: Arc::clone(value),
                    },
                );
                true
            }
            Op::Append {
                endpoint,
                version,
                fresh,
            } => {
                let key = TeKey::Changelog {
                    endpoint: *endpoint,
                };
                match map.get_mut(&key) {
                    Some(st) => {
                        if let Some(value) = Changelog::appended(&st.value, *version) {
                            st.value = value;
                        }
                        st.seq = seq;
                    }
                    None => {
                        let value = Arc::clone(fresh);
                        map.insert(key, Stored { seq, value });
                    }
                }
                true
            }
            Op::Remove(key) => map.remove(key).is_some(),
            &Op::Prune { endpoint, floor } => match map.get_mut(&TeKey::Changelog { endpoint }) {
                Some(st) => {
                    if let Some((value, versions)) = Changelog::pruned(&st.value, floor) {
                        st.value = value;
                        st.seq = seq;
                        dropped.extend(versions.into_iter().map(|v| (i, v)));
                    }
                    true
                }
                None => false,
            },
        };
        if hit {
            landed[i as usize].store(true, Ordering::Relaxed);
        }
    }
    dropped
}
