//! The sharded in-memory TE database — the customized Redis of §3.2:
//! replication, fault injection and repair over shards that hold the
//! typed [`crate::keyspace`].
//!
//! Keys are placed on shards by FNV hash of their wire form. Every read
//! and write bumps a per-shard query counter *and* a per-shard byte
//! counter (key + value moved over the wire), so simulations and
//! benchmarks can reason about per-shard load against the paper's
//! 80k-queries/second/shard budget (160k on two shards, "linearly
//! scaled with more shard resources") and about the byte savings of
//! delta-versioned pulls.
//!
//! ## One write path
//!
//! A controller interval publishes with one call,
//! [`TeDatabase::write_batch`], the way a publisher pipelines its writes
//! into Redis: the batch's deltas, changelog appends and snapshots are
//! grouped by replica shard, each shard's write lock is taken once,
//! large batches write their shards in parallel, and the version record
//! is written after every entry (§3.2's write-then-publish order).
//! Changelogs grow in place ([`TeDatabase::record_change`] is an
//! append, not a read-modify-write), and garbage collection of
//! superseded deltas ([`TeDatabase::gc_before`]) prunes them in place
//! too. The one-entry calls — [`put`](TeDatabase::put),
//! [`record_change`](TeDatabase::record_change),
//! [`publish_version`](TeDatabase::publish_version), … — are batches of
//! one.
//!
//! ## Replication & failover
//!
//! [`TeDatabase::with_replication`] stores every key on `k` successive
//! shards (primary first); the replicas share the value's bytes. Writes
//! fan out to every reachable replica; reads are served by the primary
//! and **fail over** to the next replica when the primary is
//! unreachable (counted in `tedb.failover_reads`). Each value carries a
//! monotonically increasing write sequence number, so when a shard
//! recovers from an outage a **last-writer-wins repair pass**
//! ([`TeDatabase::repair_shard`], run automatically on recovery) copies
//! every newer replica value back onto it. Deletes are not tombstoned:
//! a key deleted while one of its replicas was down can be served again
//! by that replica after recovery — harmless for the TE keyspace, where
//! garbage-collected deltas are only reachable through the (pruned)
//! changelog.
//!
//! ## Fault injection
//!
//! Beyond the outage flag ([`TeDatabase::set_shard_down`]), shards can
//! be made *slow* (injected per-query latency, surfaced through
//! [`ReadOutcome::injected_ns`] so clients can charge it against their
//! deadlines), *lossy* (a per-read probability that the connection
//! drops — the client sees the same error as an outage) and
//! *corrupting* (a per-read probability that the returned value has one
//! bit flipped; [`ReadOutcome::corrupted`] models the transport
//! checksum that lets a careful client detect and retry it, while the
//! unchecked [`TeDatabase::fetch`] delivers the damaged bytes to
//! exercise decoder robustness). All rolls come from a seeded
//! deterministic stream ([`TeDatabase::set_fault_seed`]), so a
//! single-threaded simulation replays bit-for-bit. Writes roll nothing.
//! [`crate::faults::FaultPlan`] drives these knobs on a schedule.

use crate::keyspace::{Changelog, KeyMap, TeKey};
use crate::shard::{self, Op, Shard, Stored};
use crossbeam::channel::{unbounded, Receiver, Sender};
use megate_obs::trace;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Queries per second one shard sustains (paper: 160k qps on 2 shards).
pub const SHARD_QPS_CAPACITY: u64 = 80_000;

/// Batches with at least this many writes spread their shards over
/// threads; smaller ones (a warm interval's few hundred endpoints, every
/// one-entry call) run on the calling thread.
const PARALLEL_WRITES: usize = 4096;

/// What one (possibly failed-over) replicated read saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The value, if the key exists on the serving replica. When
    /// `corrupted` is set this carries the damaged bytes.
    pub value: Option<Vec<u8>>,
    /// The shard that served the read.
    pub served_by: usize,
    /// Whether the primary was unreachable and a replica answered.
    pub failed_over: bool,
    /// Injected service latency accumulated over every attempted
    /// replica — clients charge this against their sync-period
    /// deadline.
    pub injected_ns: u64,
    /// The transport checksum failed: the value has a flipped bit. A
    /// resilient client treats this as a retryable failure.
    pub corrupted: bool,
}

/// What a [`TeDatabase::write_batch`] could not store. An endpoint is
/// listed when its write reached no replica: the caller keeps it dirty
/// and republishes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Endpoints whose delta or changelog append was lost, in batch
    /// order.
    pub failed_deltas: Vec<u64>,
    /// Endpoints whose snapshot was lost, in batch order.
    pub failed_snapshots: Vec<u64>,
}

/// What applying one batch of [`Op`]s did.
struct Applied {
    /// Per op: a put or append was stored on at least one replica, a
    /// removed key existed on one, a pruned log was present on one.
    landed: Vec<bool>,
    /// Changelog versions the batch's prunes dropped, as `(op,
    /// version)`, once per replica that dropped them.
    pruned: Vec<(u32, u64)>,
}

/// The sharded TE database. Clones share storage (like extra client
/// connections to the same cluster).
///
/// ```
/// use megate_tedb::{TeDatabase, TeKey};
///
/// let db = TeDatabase::new(2); // the paper's two shards
/// db.put(&TeKey::Snapshot { endpoint: 7 }, vec![0xAB]);
/// db.publish_version(1);
/// assert_eq!(db.latest_version(), Some(1));                       // cheap poll
/// assert_eq!(db.fetch(&TeKey::Snapshot { endpoint: 7 }), Some(vec![0xAB]));
/// ```
#[derive(Debug, Clone)]
pub struct TeDatabase {
    shards: Arc<Vec<Shard>>,
    watchers: Arc<Mutex<Vec<Sender<u64>>>>,
    /// Replication factor: each key lives on this many successive
    /// shards (clamped to the shard count).
    replication: usize,
    /// Monotonic write sequence shared by all clones — the
    /// last-writer-wins order of the repair pass.
    write_seq: Arc<AtomicU64>,
    /// Seed of the deterministic fault-roll streams.
    fault_seed: Arc<AtomicU64>,
    /// Process-wide mirror of the per-shard `bytes` counters
    /// (`tedb.wire_bytes`), so bench snapshots see DB traffic without
    /// holding a database handle.
    wire_bytes: megate_obs::Counter,
    /// Which controller partition this handle's traffic is attributed
    /// to (see [`for_partition`](Self::for_partition)); default 0.
    account_partition: u32,
    /// Per-partition mirror of the wire-byte accounting
    /// (`tedb.partition<N>.bytes`) — how much DB traffic each
    /// controller partition generated through its own handles.
    partition_bytes: megate_obs::Counter,
    /// Reads served by a replica because the primary was unreachable.
    failover_reads: megate_obs::Counter,
    /// Keys copied back onto a shard by post-recovery repair passes.
    repaired_keys: megate_obs::Counter,
}

impl TeDatabase {
    /// A database with `n_shards` shards (the paper deploys two) and no
    /// replication.
    pub fn new(n_shards: usize) -> Self {
        Self::with_replication(n_shards, 1)
    }

    /// A database with `n_shards` shards storing every key on
    /// `replication` successive shards. `replication` is clamped to
    /// `[1, n_shards]`.
    pub fn with_replication(n_shards: usize, replication: usize) -> Self {
        assert!(n_shards > 0, "need at least one shard");
        Self {
            shards: Arc::new(
                (0..n_shards)
                    .map(|i| Shard::new(megate_obs::histogram(&format!("tedb.shard{i}.query_ns"))))
                    .collect(),
            ),
            watchers: Arc::new(Mutex::new(Vec::new())),
            replication: replication.clamp(1, n_shards),
            write_seq: Arc::new(AtomicU64::new(1)),
            fault_seed: Arc::new(AtomicU64::new(0)),
            wire_bytes: megate_obs::counter("tedb.wire_bytes"),
            account_partition: 0,
            partition_bytes: megate_obs::counter("tedb.partition0.bytes"),
            failover_reads: megate_obs::counter("tedb.failover_reads"),
            repaired_keys: megate_obs::counter("tedb.repaired_keys"),
        }
    }

    /// A clone of this handle whose wire traffic is additionally
    /// attributed to `tedb.partition<N>.bytes` — a partitioned control
    /// plane hands each controller (and each partition's pull loop) its
    /// own accounting handle so per-partition DB load is measurable.
    /// Storage is shared with the parent, like any clone.
    pub fn for_partition(&self, partition: u32) -> TeDatabase {
        let mut db = self.clone();
        db.account_partition = partition;
        db.partition_bytes = megate_obs::counter(&format!("tedb.partition{partition}.bytes"));
        db
    }

    /// The partition this handle attributes its traffic to.
    pub fn account_partition(&self) -> u32 {
        self.account_partition
    }

    /// Subscribes to configuration-version publications — the *push*
    /// half of the §8 hybrid design: heavy-traffic endpoints hold this
    /// persistent channel instead of polling; every
    /// [`publish_version`](Self::publish_version) delivers the new
    /// version immediately. Dropped receivers are pruned lazily.
    pub fn watch_versions(&self) -> Receiver<u64> {
        let (tx, rx) = unbounded();
        self.watchers.lock().push(tx);
        rx
    }

    /// Number of registered version watchers (disconnected ones are
    /// pruned on each publish).
    pub fn watcher_count(&self) -> usize {
        self.watchers.lock().len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// Which shard a key routes to (its primary): FNV-1a of its wire
    /// form modulo the shard count.
    pub fn shard_of(&self, key: &TeKey) -> usize {
        (key.placement() % self.shards.len() as u64) as usize
    }

    /// The shards holding a key: primary first, then `replication - 1`
    /// successors.
    pub fn replicas_of(&self, key: &TeKey) -> impl Iterator<Item = usize> + '_ {
        let primary = self.shard_of(key);
        let n = self.shards.len();
        (0..self.replication).map(move |i| (primary + i) % n)
    }

    fn add_wire_bytes(&self, bytes: u64) {
        self.wire_bytes.add(bytes);
        self.partition_bytes.add(bytes);
    }

    /// The one write path. Routes every op to its replica shards and
    /// charges each replica a query and the request's bytes (a write to
    /// a downed replica crossed the wire and was dropped). Takes every
    /// reachable shard's write lock once, in shard order, reserving map
    /// room on this thread; then applies each shard's ops in batch
    /// order — on up to `available_parallelism` threads when the batch
    /// is large. Op `i` carries write sequence `seq0 + i` from one
    /// reserved range. With `trace_version`, records one
    /// [`trace::Stage::ShardWrite`] event per shard written.
    fn apply(&self, ops: &[Op], trace_version: Option<u64>) -> Applied {
        let n = self.shards.len();
        let seq0 = self
            .write_seq
            .fetch_add(ops.len() as u64, Ordering::Relaxed);
        // Counting sort of (op, replica shard) pairs by shard.
        let primaries: Vec<usize> = ops.iter().map(|op| self.shard_of(&op.key())).collect();
        let mut start = vec![0usize; n + 1];
        for &p in &primaries {
            for r in 0..self.replication {
                start[(p + r) % n + 1] += 1;
            }
        }
        for s in 0..n {
            start[s + 1] += start[s];
        }
        let mut order = vec![0u32; start[n]];
        let mut fill = start.clone();
        for (i, &p) in primaries.iter().enumerate() {
            for r in 0..self.replication {
                let s = (p + r) % n;
                order[fill[s]] = i as u32;
                fill[s] += 1;
            }
        }
        drop(primaries);
        let list = |s: usize| &order[start[s]..start[s + 1]];

        let mut held = Vec::new();
        let mut total_bytes = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            if list(s).is_empty() {
                continue;
            }
            let bytes = shard.charge(ops, list(s));
            total_bytes += bytes;
            if !shard.is_down() {
                let mut map = shard.lock();
                let room = Shard::new_keys(map.len(), ops, list(s));
                map.reserve(room);
                held.push((s, bytes, map));
            }
        }
        self.add_wire_bytes(total_bytes);

        // Set by whichever replica's writer stores the op; the scope's
        // join orders every store before the reads below.
        let landed: Vec<AtomicBool> = ops.iter().map(|_| AtomicBool::new(false)).collect();
        let shards = &self.shards;
        let landed_ref = &landed;
        let run = |s: usize, map: &mut KeyMap<Stored>| {
            let t = megate_obs::start();
            let pruned = shard::apply(map, ops, list(s), seq0, landed_ref);
            shards[s].knobs.latency.record_elapsed(t);
            pruned
        };
        let workers = if ops.len() >= PARALLEL_WRITES {
            parallelism().min(held.len())
        } else {
            1
        };
        let pruned = if workers <= 1 {
            held.iter_mut()
                .flat_map(|(s, _, map)| run(*s, map))
                .collect()
        } else {
            let mut shares: Vec<Vec<(usize, &mut KeyMap<Stored>)>> =
                (0..workers).map(|_| Vec::new()).collect();
            for (k, (s, _, map)) in held.iter_mut().enumerate() {
                shares[k % workers].push((*s, &mut **map));
            }
            let run = &run;
            std::thread::scope(|scope| {
                let mut shares = shares.into_iter();
                let mine = shares.next().expect("at least two workers");
                let others: Vec<_> = shares
                    .map(|share| {
                        scope.spawn(move || {
                            share
                                .into_iter()
                                .flat_map(|(s, map)| run(s, map))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let mut pruned: Vec<_> =
                    mine.into_iter().flat_map(|(s, map)| run(s, map)).collect();
                for worker in others {
                    pruned.extend(worker.join().expect("shard writer panicked"));
                }
                pruned
            })
        };
        if let Some(version) = trace_version {
            for (s, bytes, _) in &held {
                trace::record(trace::Stage::ShardWrite, version, *s as u64, *bytes);
            }
        }
        drop(held);
        Applied {
            landed: landed.into_iter().map(AtomicBool::into_inner).collect(),
            pruned,
        }
    }

    /// One SET through the batch path.
    fn put_one(
        &self,
        key: &TeKey,
        value: Vec<u8>,
        trace_version: Option<u64>,
    ) -> Result<(), ShardOutage> {
        if self
            .apply(&[Op::Put(*key, value.into())], trace_version)
            .landed[0]
        {
            Ok(())
        } else {
            Err(ShardOutage {
                shard: self.shard_of(key),
            })
        }
    }

    /// Publishes one controller interval as one batch: every delta
    /// (`(endpoint, bytes)`, stored under `TeKey::Delta { endpoint,
    /// version }`) with its changelog append, then every snapshot
    /// (`(endpoint, stamped bytes)`), and — once all of them are
    /// written — `partition`'s version record. Each shard's write lock
    /// is taken once; large batches write their shards in parallel;
    /// each value is stored once and shared by its replicas. Records
    /// one [`trace::Stage::ShardWrite`] event per shard, stamped with
    /// `version`.
    pub fn write_batch(
        &self,
        partition: u32,
        version: u64,
        deltas: Vec<(u64, Vec<u8>)>,
        snapshots: Vec<(u64, Vec<u8>)>,
    ) -> BatchOutcome {
        let n_deltas = deltas.len();
        let mut ops = Vec::with_capacity(2 * n_deltas + snapshots.len());
        for (endpoint, value) in deltas {
            ops.push(Op::Put(TeKey::Delta { endpoint, version }, value.into()));
            ops.push(Op::append(endpoint, version));
        }
        for (endpoint, value) in snapshots {
            ops.push(Op::Put(TeKey::Snapshot { endpoint }, value.into()));
        }
        let landed = self.apply(&ops, Some(version)).landed;
        let endpoint = |i: usize| match ops[i].key() {
            TeKey::Delta { endpoint, .. } | TeKey::Snapshot { endpoint } => endpoint,
            key => unreachable!("batch holds no {key}"),
        };
        let outcome = BatchOutcome {
            failed_deltas: (0..n_deltas)
                .filter(|&d| !(landed[2 * d] && landed[2 * d + 1]))
                .map(|d| endpoint(2 * d))
                .collect(),
            failed_snapshots: (2 * n_deltas..ops.len())
                .filter(|&i| !landed[i])
                .map(endpoint)
                .collect(),
        };
        drop(ops);
        self.publish_partition_version(partition, version);
        outcome
    }

    /// Typed SET. Writes to a downed replica are dropped (the client
    /// would see a connection error; the repair pass catches the
    /// replica up on recovery).
    pub fn put(&self, key: &TeKey, value: Vec<u8>) {
        let _ = self.put_one(key, value, None);
    }

    /// Typed SET with full-outage reporting: `Err` means every replica
    /// was unreachable and the write was lost entirely. Records a
    /// [`trace::Stage::ShardWrite`] flight-recorder event per shard
    /// written, stamped with the config version the record carries (the
    /// delta key's version, a snapshot value's 8-byte stamp prefix, 0
    /// for versionless records) so a propagation dump shows when each
    /// endpoint's bytes actually reached the database.
    pub fn put_checked(&self, key: &TeKey, value: Vec<u8>) -> Result<(), ShardOutage> {
        let version = match key {
            TeKey::Delta { version, .. } => *version,
            TeKey::Snapshot { .. } if value.len() >= 8 => {
                u64::from_be_bytes(value[..8].try_into().unwrap())
            }
            _ => 0,
        };
        self.put_one(key, value, Some(version))
    }

    /// Typed GET. Injected corruption passes through undetected (the
    /// decoder-robustness path); use
    /// [`fetch_outcome`](Self::fetch_outcome) to observe it.
    pub fn fetch(&self, key: &TeKey) -> Option<Vec<u8>> {
        self.fetch_outcome(key).ok().and_then(|o| o.value)
    }

    /// Typed GET that distinguishes a missing key from a shard outage —
    /// what a real client sees as a connection error. Pull loops use
    /// this to avoid adopting a version whose entries they could not
    /// read.
    pub fn fetch_checked(&self, key: &TeKey) -> Result<Option<Vec<u8>>, ShardOutage> {
        self.fetch_outcome(key).map(|o| o.value)
    }

    /// The full replicated read: which replica served it, whether the
    /// read failed over, how much injected latency it accumulated, and
    /// whether the transport checksum flagged corruption. Counts one
    /// query per attempted replica. `Err` only when every replica was
    /// unreachable (down or lossy).
    pub fn fetch_outcome(&self, key: &TeKey) -> Result<ReadOutcome, ShardOutage> {
        let t = megate_obs::start();
        let seed = self.fault_seed.load(Ordering::Relaxed);
        let key_len = key.wire_len() as u64;
        let mut injected_ns = 0u64;
        for (attempt, shard_idx) in self.replicas_of(key).enumerate() {
            let s = &self.shards[shard_idx];
            s.queries.add(1);
            injected_ns = injected_ns.saturating_add(s.knobs.slow_ns.load(Ordering::Relaxed));
            let loss = s.knobs.loss_ppm.load(Ordering::Relaxed);
            // A downed shard, or a transient connection drop —
            // indistinguishable from a brief outage to the client. The
            // key still crossed the wire.
            if s.is_down() || (loss > 0 && s.roll(seed, shard_idx) < loss as u64) {
                s.bytes.add(key_len);
                self.add_wire_bytes(key_len);
                continue;
            }
            let mut hit = s.get(key);
            let mut corrupted = false;
            let corrupt = s.knobs.corrupt_ppm.load(Ordering::Relaxed);
            if corrupt > 0 && s.roll(seed, shard_idx) < corrupt as u64 {
                if let Some(v) = hit.as_mut() {
                    if !v.is_empty() {
                        let r = s.roll(seed, shard_idx);
                        let at = (r as usize) % v.len();
                        v[at] ^= 1 << (splitmix64(r) % 8);
                        corrupted = true;
                    }
                }
            }
            let moved = key_len + hit.as_ref().map_or(0, Vec::len) as u64;
            s.bytes.add(moved);
            self.add_wire_bytes(moved);
            s.knobs.latency.record_elapsed(t);
            if attempt > 0 {
                self.failover_reads.inc();
            }
            return Ok(ReadOutcome {
                value: hit,
                served_by: shard_idx,
                failed_over: attempt > 0,
                injected_ns,
                corrupted,
            });
        }
        Err(ShardOutage {
            shard: self.shard_of(key),
        })
    }

    /// Typed DEL — returns whether the key existed on any reachable
    /// replica.
    pub fn remove(&self, key: &TeKey) -> bool {
        self.apply(&[Op::Remove(*key)], None).landed[0]
    }

    /// Bumps the version record *after* all of the version's entries
    /// were written (write-then-publish ordering, §3.2) and pushes the
    /// new version to persistent watchers (§8 hybrid); disconnected
    /// channels are pruned here. Equivalent to
    /// [`publish_partition_version`](Self::publish_partition_version)
    /// on partition 0 (the single-controller clock).
    pub fn publish_version(&self, version: u64) {
        self.publish_partition_version(0, version);
    }

    /// Bumps one controller partition's version record. Partition 0 is
    /// the legacy record under [`crate::CONFIG_VERSION_KEY`]; other
    /// partitions get their own key so independent controllers never
    /// contend on one clock. Watchers receive every publish regardless
    /// of partition (the §8 hybrid push is deployed single-partition).
    pub fn publish_partition_version(&self, partition: u32, version: u64) {
        let key = TeKey::Version { partition };
        trace::record(
            trace::Stage::VersionBump,
            version,
            self.shard_of(&key) as u64,
            partition as u64,
        );
        self.put(&key, version.to_be_bytes().to_vec());
        self.watchers.lock().retain(|w| w.send(version).is_ok());
    }

    /// Appends `version` to an endpoint's changelog, in place on each
    /// replica (creating the log on first change; appending the version
    /// it already ends at is a no-op). `Err` when no replica was
    /// reachable — the caller keeps the endpoint dirty and retries.
    pub fn record_change(&self, endpoint: u64, version: u64) -> Result<(), ShardOutage> {
        if self
            .apply(&[Op::append(endpoint, version)], Some(version))
            .landed[0]
        {
            Ok(())
        } else {
            Err(ShardOutage {
                shard: self.shard_of(&TeKey::Changelog { endpoint }),
            })
        }
    }

    /// The endpoint's decoded changelog, if present and well-formed.
    pub fn changelog(&self, endpoint: u64) -> Option<Changelog> {
        Changelog::decode(&self.fetch(&TeKey::Changelog { endpoint })?)
    }

    /// Garbage-collects the deltas at versions `<= floor` of every
    /// listed endpoint, as two batches: first each changelog is pruned
    /// in place (the dropped versions removed, `complete_since` raised
    /// to `floor` so agents older than `floor` know to fall back to the
    /// snapshot), then the dropped versions' delta records are deleted —
    /// so no reader finds a listed delta missing. Returns the number of
    /// delta records deleted. An endpoint whose changelog no replica
    /// could reach, or that is malformed, is skipped; the next
    /// interval's GC retries.
    pub fn gc_before(&self, floor: u64, endpoints: &[u64]) -> usize {
        let prunes: Vec<Op> = endpoints
            .iter()
            .map(|&endpoint| Op::Prune { endpoint, floor })
            .collect();
        let mut dropped = self.apply(&prunes, None).pruned;
        drop(prunes);
        // Every replica reports the versions it dropped.
        dropped.sort_unstable();
        dropped.dedup();
        let removes: Vec<Op> = dropped
            .into_iter()
            .map(|(i, version)| {
                Op::Remove(TeKey::Delta {
                    endpoint: endpoints[i as usize],
                    version,
                })
            })
            .collect();
        self.apply(&removes, None)
            .landed
            .into_iter()
            .filter(|&existed| existed)
            .count()
    }

    /// [`gc_before`](Self::gc_before) for one endpoint.
    pub fn gc_endpoint_before(&self, endpoint: u64, floor: u64) -> usize {
        self.gc_before(floor, &[endpoint])
    }

    // ---- Fault injection & repair ----

    /// Failure injection: takes a shard down (it keeps its data) or
    /// brings it back. Recovery of a replicated database runs the
    /// last-writer-wins [`repair_shard`](Self::repair_shard) pass so
    /// the shard catches up on writes it missed.
    pub fn set_shard_down(&self, shard: usize, down: bool) {
        let was_down = self.shards[shard].knobs.down.swap(down, Ordering::Relaxed);
        if was_down && !down && self.replication > 1 {
            self.repair_shard(shard);
        }
    }

    /// True if the given shard is currently down.
    pub fn shard_is_down(&self, shard: usize) -> bool {
        self.shards[shard].is_down()
    }

    /// Injects `ns` of service latency into every query the shard
    /// answers (0 restores full speed).
    pub fn set_shard_slow(&self, shard: usize, ns: u64) {
        self.shards[shard]
            .knobs
            .slow_ns
            .store(ns, Ordering::Relaxed);
    }

    /// Makes `ppm` out of every million reads on the shard fail
    /// transiently (0 restores reliability).
    pub fn set_shard_loss(&self, shard: usize, ppm: u32) {
        self.shards[shard]
            .knobs
            .loss_ppm
            .store(ppm.min(1_000_000), Ordering::Relaxed);
    }

    /// Makes `ppm` out of every million reads on the shard return a
    /// value with one flipped bit (0 restores integrity).
    pub fn set_shard_corrupt(&self, shard: usize, ppm: u32) {
        self.shards[shard]
            .knobs
            .corrupt_ppm
            .store(ppm.min(1_000_000), Ordering::Relaxed);
    }

    /// Seeds the deterministic fault-roll streams (loss/corruption).
    /// Single-threaded runs with the same seed and the same operation
    /// order replay identically.
    pub fn set_fault_seed(&self, seed: u64) {
        self.fault_seed.store(seed, Ordering::Relaxed);
    }

    /// Clears every injected fault: all shards up, full speed,
    /// lossless, uncorrupted. Runs repair on shards that were down.
    pub fn clear_faults(&self) {
        for i in 0..self.shards.len() {
            self.set_shard_slow(i, 0);
            self.set_shard_loss(i, 0);
            self.set_shard_corrupt(i, 0);
            self.set_shard_down(i, false);
        }
    }

    /// True while any shard carries an injected fault.
    pub fn any_fault_active(&self) -> bool {
        self.shards.iter().any(|s| {
            s.is_down()
                || s.knobs.slow_ns.load(Ordering::Relaxed) > 0
                || s.knobs.loss_ppm.load(Ordering::Relaxed) > 0
                || s.knobs.corrupt_ppm.load(Ordering::Relaxed) > 0
        })
    }

    /// Last-writer-wins repair: copies onto `shard` every key it
    /// replicates whose newest copy (highest write sequence) lives on
    /// another replica — the catch-up pass after an outage. Returns
    /// how many keys were repaired. Quorum-less by design: whichever
    /// replica holds the highest sequence wins.
    pub fn repair_shard(&self, shard: usize) -> usize {
        if self.replication <= 1 {
            return 0;
        }
        let mut newest: KeyMap<Stored> = KeyMap::default();
        for (i, other) in self.shards.iter().enumerate() {
            if i == shard {
                continue;
            }
            other.read(|data| {
                for (k, st) in data {
                    if !self.replicas_of(k).any(|r| r == shard) {
                        continue;
                    }
                    match newest.get(k) {
                        Some(seen) if seen.seq >= st.seq => {}
                        _ => {
                            newest.insert(*k, st.clone());
                        }
                    }
                }
            });
        }
        let mut repaired = 0usize;
        let mut data = self.shards[shard].lock();
        for (k, st) in newest {
            let stale = data.get(&k).is_none_or(|cur| cur.seq < st.seq);
            if stale {
                data.insert(k, st);
                repaired += 1;
            }
        }
        self.repaired_keys.add(repaired as u64);
        repaired
    }

    /// Total queries served across shards.
    pub fn total_queries(&self) -> u64 {
        self.shards.iter().map(|s| s.queries.get()).sum()
    }

    /// Per-shard query counts.
    pub fn per_shard_queries(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.queries.get()).collect()
    }

    /// Total bytes moved across all shards (keys + values).
    pub fn total_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.bytes.get()).sum()
    }

    /// Per-shard byte counts.
    pub fn per_shard_bytes(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.bytes.get()).collect()
    }

    /// Resets query and byte counters (between measurement windows).
    pub fn reset_query_counters(&self) {
        for s in self.shards.iter() {
            s.queries.reset();
            s.bytes.reset();
        }
    }

    /// The latest published configuration version (the endpoint's cheap
    /// poll query). Partition 0's clock.
    pub fn latest_version(&self) -> Option<u64> {
        let v = self.fetch(&TeKey::Version { partition: 0 })?;
        let bytes: [u8; 8] = v.try_into().ok()?;
        Some(u64::from_be_bytes(bytes))
    }

    /// [`latest_version`](Self::latest_version) that distinguishes "no
    /// version yet" from an unreachable or corrupted version record —
    /// a resilient poll loop retries the latter instead of concluding
    /// nothing was published.
    pub fn latest_version_checked(&self) -> Result<Option<u64>, ShardOutage> {
        self.latest_partition_version_checked(0)
    }

    /// One partition's version clock, with the same outage/corruption
    /// discrimination as [`latest_version_checked`](Self::latest_version_checked).
    pub fn latest_partition_version_checked(
        &self,
        partition: u32,
    ) -> Result<Option<u64>, ShardOutage> {
        let outcome = self.fetch_outcome(&TeKey::Version { partition })?;
        if outcome.corrupted {
            return Err(ShardOutage {
                shard: outcome.served_by,
            });
        }
        match outcome.value {
            None => Ok(None),
            Some(v) => {
                let bytes: [u8; 8] = match v.try_into() {
                    Ok(b) => b,
                    // Malformed record: treat as unreadable, retry.
                    Err(_) => {
                        return Err(ShardOutage {
                            shard: outcome.served_by,
                        })
                    }
                };
                Ok(Some(u64::from_be_bytes(bytes)))
            }
        }
    }

    /// Write-lock acquisitions across shards.
    #[cfg(test)]
    pub(crate) fn write_locks(&self) -> u64 {
        self.shards.iter().map(Shard::write_locks).sum()
    }

    /// One shard's contents as `(wire key, write sequence, value)`,
    /// sorted.
    #[cfg(test)]
    pub(crate) fn shard_contents(&self, shard: usize) -> Vec<(String, u64, Vec<u8>)> {
        let mut all: Vec<_> = self.shards[shard].read(|data| {
            data.iter()
                .map(|(k, st)| (k.wire(), st.seq, st.value.to_vec()))
                .collect()
        });
        all.sort();
        all
    }
}

/// Threads a large batch may write its shards on.
fn parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A shard was unreachable — the client's connection failed. With
/// replication this means *every* replica of the key was unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutage {
    /// The key's primary shard.
    pub shard: usize,
}

impl std::fmt::Display for ShardOutage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} unreachable", self.shard)
    }
}

impl std::error::Error for ShardOutage {}

/// SplitMix64 — the deterministic mixer behind fault rolls and the
/// fault-plan generator (no `rand` dependency on this crate).
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CONFIG_VERSION_KEY;

    fn snap(endpoint: u64) -> TeKey {
        TeKey::Snapshot { endpoint }
    }

    fn delta(endpoint: u64, version: u64) -> TeKey {
        TeKey::Delta { endpoint, version }
    }

    #[test]
    fn set_get_del_roundtrip() {
        let db = TeDatabase::new(2);
        db.put(&snap(1), vec![1, 2, 3]);
        assert_eq!(db.fetch(&snap(1)), Some(vec![1, 2, 3]));
        assert!(db.remove(&snap(1)));
        assert!(!db.remove(&snap(1)));
        assert_eq!(db.fetch(&snap(1)), None);
    }

    #[test]
    fn keys_spread_across_shards() {
        let db = TeDatabase::new(4);
        let seen: std::collections::HashSet<usize> =
            (0..100).map(|i| db.shard_of(&snap(i))).collect();
        assert!(seen.len() >= 3, "hash should hit most shards, got {seen:?}");
    }

    #[test]
    fn query_counters_count_every_operation() {
        let db = TeDatabase::new(2);
        db.put(&snap(1), vec![]);
        db.fetch(&snap(1));
        db.fetch(&snap(2));
        db.remove(&snap(1));
        assert_eq!(db.total_queries(), 4);
        db.reset_query_counters();
        assert_eq!(db.total_queries(), 0);
    }

    #[test]
    fn byte_counters_track_keys_and_values() {
        let db = TeDatabase::new(1);
        db.put(&snap(1), vec![0; 10]); // "te:snap:1" + 10
        db.fetch(&snap(1)); // 9 + 10
        db.fetch(&snap(2)); // 9 + 0 (miss)
        assert_eq!(db.total_bytes(), 47);
        db.record_change(5, 3).unwrap(); // "te:log:5" + one u64
        assert_eq!(db.total_bytes(), 47 + 16);
        db.reset_query_counters();
        assert_eq!(db.total_bytes(), 0);
    }

    #[test]
    fn typed_keys_have_distinct_wires() {
        let keys = [
            TeKey::Version { partition: 0 },
            TeKey::Version { partition: 1 },
            TeKey::Version { partition: 12 },
            snap(7),
            delta(7, 3),
            delta(7, 4),
            delta(73, 4),
            TeKey::Changelog { endpoint: 7 },
        ];
        let wires: std::collections::HashSet<String> = keys.iter().map(TeKey::wire).collect();
        assert_eq!(wires.len(), keys.len());
    }

    #[test]
    fn partition_zero_keeps_the_legacy_version_wire() {
        assert_eq!(TeKey::Version { partition: 0 }.wire(), CONFIG_VERSION_KEY);
        assert_eq!(
            TeKey::Version { partition: 3 }.wire(),
            "te:config:version:p3"
        );
    }

    #[test]
    fn partition_version_clocks_are_independent() {
        let db = TeDatabase::new(2);
        db.publish_partition_version(0, 5);
        db.publish_partition_version(1, 9);
        assert_eq!(db.latest_version(), Some(5));
        assert_eq!(db.latest_partition_version_checked(0), Ok(Some(5)));
        assert_eq!(db.latest_partition_version_checked(1), Ok(Some(9)));
        assert_eq!(db.latest_partition_version_checked(2), Ok(None));
    }

    #[test]
    fn partition_handles_attribute_wire_bytes() {
        let db = TeDatabase::new(1);
        let h1 = db.for_partition(1);
        assert_eq!(h1.account_partition(), 1);
        let before = megate_obs::counter("tedb.partition1.bytes").get();
        h1.put(&snap(1), vec![0; 10]); // 9 + 10
        h1.fetch(&snap(1)); // 9 + 10
        let after = megate_obs::counter("tedb.partition1.bytes").get();
        assert_eq!(after - before, 38);
        // Storage is shared with the parent handle.
        assert_eq!(db.fetch(&snap(1)), Some(vec![0; 10]));
    }

    #[test]
    fn typed_put_fetch_remove_roundtrip() {
        let db = TeDatabase::new(2);
        let k = delta(9, 2);
        db.put(&k, vec![1, 2]);
        assert_eq!(db.fetch(&k), Some(vec![1, 2]));
        assert_eq!(db.fetch_checked(&k), Ok(Some(vec![1, 2])));
        assert!(db.remove(&k));
        assert_eq!(db.fetch(&k), None);
    }

    #[test]
    fn changelog_encode_decode_roundtrip_and_rejects_garbage() {
        let log = Changelog {
            complete_since: 4,
            versions: vec![5, 7, 11],
        };
        assert_eq!(Changelog::decode(&log.encode()), Some(log.clone()));
        let bytes = log.encode();
        for cut in 0..bytes.len() {
            assert_eq!(Changelog::decode(&bytes[..cut]), None, "cut {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(Changelog::decode(&long), None);
    }

    #[test]
    fn record_change_appends_and_dedupes() {
        let db = TeDatabase::new(2);
        assert!(db.changelog(3).is_none());
        db.record_change(3, 1).unwrap();
        db.record_change(3, 4).unwrap();
        db.record_change(3, 4).unwrap(); // idempotent re-publish
        let log = db.changelog(3).unwrap();
        assert_eq!(log.versions, vec![1, 4]);
        assert_eq!(log.complete_since, 0);
    }

    #[test]
    fn record_change_refuses_to_clobber_during_outage() {
        let db = TeDatabase::new(1);
        db.record_change(3, 1).unwrap();
        db.set_shard_down(0, true);
        assert!(
            db.record_change(3, 2).is_err(),
            "unreachable log must error"
        );
        db.set_shard_down(0, false);
        db.record_change(3, 2).unwrap();
        assert_eq!(db.changelog(3).unwrap().versions, vec![1, 2]);
    }

    #[test]
    fn gc_prunes_deltas_and_raises_watermark() {
        let db = TeDatabase::new(2);
        for v in [1u64, 3, 5, 9] {
            db.put(&delta(2, v), vec![v as u8]);
            db.record_change(2, v).unwrap();
        }
        let removed = db.gc_endpoint_before(2, 5);
        assert_eq!(removed, 3);
        assert_eq!(db.fetch(&delta(2, 3)), None);
        assert_eq!(db.fetch(&delta(2, 9)), Some(vec![9]));
        let log = db.changelog(2).unwrap();
        assert_eq!(log.versions, vec![9]);
        assert_eq!(log.complete_since, 5);
        // Idempotent.
        assert_eq!(db.gc_endpoint_before(2, 5), 0);
    }

    #[test]
    fn publish_then_read_version_and_entries() {
        let db = TeDatabase::new(2);
        assert_eq!(db.latest_version(), None);
        let out = db.write_batch(0, 7, vec![(1, vec![9]), (2, vec![8])], vec![]);
        assert_eq!(out, BatchOutcome::default());
        assert_eq!(db.latest_version(), Some(7));
        assert_eq!(db.fetch(&delta(1, 7)), Some(vec![9]));
        assert_eq!(db.fetch(&delta(3, 7)), None);
        assert_eq!(db.fetch(&delta(1, 6)), None);
        assert_eq!(db.changelog(2).unwrap().versions, vec![7]);
    }

    #[test]
    fn version_monotonically_replaces() {
        let db = TeDatabase::new(1);
        db.write_batch(0, 1, vec![(4, vec![1])], vec![]);
        db.write_batch(0, 2, vec![(4, vec![2])], vec![]);
        assert_eq!(db.latest_version(), Some(2));
        // Old version's entries remain until collected.
        assert_eq!(db.fetch(&delta(4, 1)), Some(vec![1]));
        assert_eq!(db.gc_before(1, &[4]), 1);
        assert_eq!(db.fetch(&delta(4, 1)), None);
        assert_eq!(db.fetch(&delta(4, 2)), Some(vec![2]));
    }

    #[test]
    fn downed_shard_answers_nothing_then_recovers() {
        let db = TeDatabase::new(2);
        db.put(&snap(1), vec![1]);
        let shard = db.shard_of(&snap(1));
        db.set_shard_down(shard, true);
        assert!(db.shard_is_down(shard));
        assert_eq!(db.fetch(&snap(1)), None, "outage hides the entry");
        db.put(&snap(1), vec![2]); // dropped write
        db.set_shard_down(shard, false);
        assert_eq!(
            db.fetch(&snap(1)),
            Some(vec![1]),
            "data survives the outage"
        );
    }

    #[test]
    fn other_shards_unaffected_by_one_outage() {
        let db = TeDatabase::new(4);
        let ka = snap(0);
        let sa = db.shard_of(&ka);
        let kb = (1..100)
            .map(snap)
            .find(|k| db.shard_of(k) != sa)
            .expect("two shards in use");
        db.put(&ka, vec![1]);
        db.put(&kb, vec![2]);
        db.set_shard_down(sa, true);
        assert_eq!(db.fetch(&ka), None);
        assert_eq!(db.fetch(&kb), Some(vec![2]));
    }

    #[test]
    fn clones_share_data() {
        let a = TeDatabase::new(2);
        let b = a.clone();
        a.put(&snap(1), vec![5]);
        assert_eq!(b.fetch(&snap(1)), Some(vec![5]));
    }

    #[test]
    fn replicated_reads_fail_over_to_a_live_replica() {
        let db = TeDatabase::with_replication(3, 2);
        db.put(&snap(1), vec![7]);
        let primary = db.shard_of(&snap(1));
        db.set_shard_down(primary, true);
        // The replica still serves the value.
        assert_eq!(db.fetch(&snap(1)), Some(vec![7]));
        let out = db.fetch_outcome(&snap(1)).unwrap();
        assert!(out.failed_over);
        assert_ne!(out.served_by, primary);
        assert_eq!(out.value, Some(vec![7]));
    }

    #[test]
    fn replicated_read_fails_only_when_all_replicas_down() {
        let db = TeDatabase::with_replication(3, 2);
        db.put(&snap(1), vec![7]);
        let replicas: Vec<usize> = db.replicas_of(&snap(1)).collect();
        assert_eq!(replicas.len(), 2);
        for &r in &replicas {
            db.set_shard_down(r, true);
        }
        assert!(db.fetch_outcome(&snap(1)).is_err());
        assert_eq!(db.fetch(&snap(1)), None);
    }

    #[test]
    fn recovery_repairs_missed_writes_last_writer_wins() {
        let db = TeDatabase::with_replication(4, 2);
        db.put(&snap(1), vec![1]);
        let primary = db.shard_of(&snap(1));
        db.set_shard_down(primary, true);
        // Written while the primary is dark: lands on the replica only.
        db.put(&snap(1), vec![2]);
        db.set_shard_down(primary, false); // auto-repair
                                           // Take the replica down: the repaired primary must serve the
                                           // *newer* value, not its stale pre-outage copy.
        let replicas: Vec<usize> = db.replicas_of(&snap(1)).collect();
        db.set_shard_down(replicas[1], true);
        assert_eq!(
            db.fetch(&snap(1)),
            Some(vec![2]),
            "repair must copy the newer write"
        );
    }

    #[test]
    fn slow_shard_surfaces_injected_latency() {
        let db = TeDatabase::new(1);
        db.put(&snap(1), vec![1]);
        db.set_shard_slow(0, 5_000);
        let out = db.fetch_outcome(&snap(1)).unwrap();
        assert_eq!(out.injected_ns, 5_000);
        db.set_shard_slow(0, 0);
        assert_eq!(db.fetch_outcome(&snap(1)).unwrap().injected_ns, 0);
    }

    #[test]
    fn lossy_shard_fails_reads_at_roughly_the_injected_rate() {
        let db = TeDatabase::new(1);
        db.put(&snap(1), vec![1]);
        db.set_fault_seed(42);
        db.set_shard_loss(0, 300_000); // 30%
        let failures = (0..2000)
            .filter(|_| db.fetch_outcome(&snap(1)).is_err())
            .count();
        let rate = failures as f64 / 2000.0;
        assert!((rate - 0.3).abs() < 0.05, "loss rate {rate}");
        db.set_shard_loss(0, 0);
        assert!(db.fetch_outcome(&snap(1)).is_ok());
    }

    #[test]
    fn corrupt_reads_flag_and_damage_the_value() {
        let db = TeDatabase::new(1);
        db.put(&snap(1), vec![0xAA, 0xBB, 0xCC]);
        db.set_fault_seed(7);
        db.set_shard_corrupt(0, 1_000_000); // every read
        let out = db.fetch_outcome(&snap(1)).unwrap();
        assert!(out.corrupted);
        let damaged = out.value.unwrap();
        assert_eq!(damaged.len(), 3);
        let diff: u8 = damaged
            .iter()
            .zip([0xAA, 0xBB, 0xCC])
            .map(|(a, b)| a ^ b)
            .fold(0, |acc, d| acc | d);
        assert_eq!(diff.count_ones(), 1, "exactly one flipped bit");
        // The stored value itself is intact.
        db.set_shard_corrupt(0, 0);
        assert_eq!(db.fetch(&snap(1)), Some(vec![0xAA, 0xBB, 0xCC]));
    }

    #[test]
    fn fault_rolls_replay_identically_per_seed() {
        let run = |seed: u64| {
            let db = TeDatabase::new(1);
            db.put(&snap(1), vec![1, 2, 3, 4]);
            db.set_fault_seed(seed);
            db.set_shard_loss(0, 200_000);
            db.set_shard_corrupt(0, 200_000);
            (0..100)
                .map(|_| match db.fetch_outcome(&snap(1)) {
                    Err(_) => 0u8,
                    Ok(o) if o.corrupted => 1,
                    Ok(_) => 2,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn clear_faults_restores_health() {
        let db = TeDatabase::with_replication(3, 2);
        db.put(&snap(1), vec![1]);
        db.set_shard_down(0, true);
        db.set_shard_slow(1, 500);
        db.set_shard_loss(2, 1000);
        assert!(db.any_fault_active());
        db.clear_faults();
        assert!(!db.any_fault_active());
        assert_eq!(db.fetch(&snap(1)), Some(vec![1]));
    }

    #[test]
    fn latest_version_checked_reports_outage_not_absence() {
        let db = TeDatabase::new(1);
        assert_eq!(db.latest_version_checked(), Ok(None));
        db.publish_version(4);
        assert_eq!(db.latest_version_checked(), Ok(Some(4)));
        db.set_shard_down(0, true);
        assert!(db.latest_version_checked().is_err());
        assert_eq!(db.latest_version(), None, "unchecked poll stays silent");
    }

    #[test]
    fn set_checked_reports_totally_lost_writes() {
        let db = TeDatabase::with_replication(2, 2);
        assert!(db.put_checked(&snap(1), vec![1]).is_ok());
        db.set_shard_down(0, true);
        assert!(
            db.put_checked(&snap(1), vec![2]).is_ok(),
            "one replica is enough"
        );
        db.set_shard_down(1, true);
        assert!(
            db.put_checked(&snap(1), vec![3]).is_err(),
            "write lost everywhere"
        );
    }

    #[test]
    fn watchers_receive_every_publish_in_order() {
        let db = TeDatabase::new(2);
        let rx = db.watch_versions();
        assert_eq!(db.watcher_count(), 1);
        for v in 1..=5u64 {
            db.write_batch(0, v, vec![(1, vec![v as u8])], vec![]);
        }
        let got: Vec<u64> = rx.try_iter().collect();
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn dropped_watchers_are_pruned() {
        let db = TeDatabase::new(1);
        let rx1 = db.watch_versions();
        {
            let _rx2 = db.watch_versions();
            assert_eq!(db.watcher_count(), 2);
        } // rx2 dropped
        db.publish_version(1);
        assert_eq!(db.watcher_count(), 1);
        assert_eq!(rx1.try_recv(), Ok(1));
    }

    #[test]
    fn watcher_sees_version_whose_entries_are_readable() {
        // Push ordering matches the pull contract: by the time the
        // watcher learns of v, v's entries are in the store.
        let db = TeDatabase::new(2);
        let rx = db.watch_versions();
        db.write_batch(0, 9, vec![(1, vec![1, 2, 3])], vec![]);
        let v = rx.recv().unwrap();
        assert_eq!(db.fetch(&delta(1, v)), Some(vec![1, 2, 3]));
    }

    #[test]
    fn concurrent_clients_see_consistent_version() {
        let db = TeDatabase::new(2);
        db.write_batch(0, 1, vec![(1, vec![1])], vec![]);
        std::thread::scope(|s| {
            let writer = db.clone();
            s.spawn(move || {
                for v in 2..50u64 {
                    writer.write_batch(0, v, vec![(1, vec![v as u8])], vec![]);
                }
            });
            let reader = db.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    if let Some(v) = reader.latest_version() {
                        // Write-then-publish: the entry for any observed
                        // version must exist.
                        assert!(reader.fetch(&delta(1, v)).is_some(), "version {v}");
                    }
                }
            });
        });
    }

    /// One interval through the one-entry calls, the way the controller
    /// published before it had a batch: returns what failed.
    fn publish_one_by_one(
        db: &TeDatabase,
        version: u64,
        deltas: Vec<(u64, Vec<u8>)>,
        snapshots: Vec<(u64, Vec<u8>)>,
    ) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for (ep, bytes) in deltas {
            let delta_ok = db.put_checked(&delta(ep, version), bytes).is_ok();
            let log_ok = db.record_change(ep, version).is_ok();
            if !(delta_ok && log_ok) {
                out.failed_deltas.push(ep);
            }
        }
        for (ep, value) in snapshots {
            if db.put_checked(&snap(ep), value).is_err() {
                out.failed_snapshots.push(ep);
            }
        }
        db.publish_partition_version(0, version);
        out
    }

    mod batch {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn write_batch_matches_one_entry_writes_under_outages(
                shards in 1usize..6,
                replication in 1usize..4,
                intervals in vec(
                    (0u32..64, vec((0u64..40, 0usize..9), 0..30), vec(0u64..40, 0..20)),
                    1..5,
                ),
            ) {
                let batched = TeDatabase::with_replication(shards, replication);
                let single = TeDatabase::with_replication(shards, replication);
                for (i, (down, deltas, snapshots)) in intervals.into_iter().enumerate() {
                    let version = i as u64 + 1;
                    for db in [&batched, &single] {
                        for s in 0..shards {
                            db.set_shard_down(s, down & (1 << s) != 0);
                        }
                    }
                    let deltas: Vec<(u64, Vec<u8>)> = deltas
                        .into_iter()
                        .map(|(ep, len)| (ep, vec![version as u8; len]))
                        .collect();
                    let snapshots: Vec<(u64, Vec<u8>)> = snapshots
                        .into_iter()
                        .map(|ep| (ep, [version.to_be_bytes().as_slice(), &[ep as u8]].concat()))
                        .collect();
                    let a = batched.write_batch(0, version, deltas.clone(), snapshots.clone());
                    let b = publish_one_by_one(&single, version, deltas, snapshots);
                    prop_assert_eq!(a, b);
                }
                for s in 0..shards {
                    prop_assert_eq!(batched.shard_contents(s), single.shard_contents(s));
                }
                prop_assert_eq!(batched.per_shard_queries(), single.per_shard_queries());
                prop_assert_eq!(batched.per_shard_bytes(), single.per_shard_bytes());
            }
        }

        #[test]
        fn large_batches_match_one_entry_writes() {
            // Big enough to write its shards on several threads.
            let batched = TeDatabase::with_replication(5, 2);
            let single = TeDatabase::with_replication(5, 2);
            for (version, dark) in [(1u64, [0usize, 1]), (2, [3, 4])] {
                for db in [&batched, &single] {
                    db.clear_faults();
                    for s in dark {
                        db.set_shard_down(s, true);
                    }
                }
                let deltas: Vec<_> = (0..3_000).map(|ep| (ep, vec![version as u8; 9])).collect();
                let snapshots: Vec<_> = (0..3_000).step_by(2).map(|ep| (ep, vec![7; 12])).collect();
                let a = batched.write_batch(0, version, deltas.clone(), snapshots.clone());
                let b = publish_one_by_one(&single, version, deltas, snapshots);
                assert!(!a.failed_deltas.is_empty());
                assert_eq!(a, b);
            }
            for s in 0..5 {
                assert_eq!(
                    batched.shard_contents(s),
                    single.shard_contents(s),
                    "shard {s}"
                );
            }
            assert_eq!(batched.per_shard_queries(), single.per_shard_queries());
        }

        #[test]
        fn a_batch_takes_each_shard_lock_once() {
            let db = TeDatabase::with_replication(8, 2);
            let before = db.write_locks();
            db.put(&snap(1), vec![1]);
            assert_eq!(db.write_locks() - before, 2, "one lock per replica");

            let deltas = (0..100_000).map(|ep| (ep, vec![1; 24])).collect();
            let snapshots = (0..100_000).map(|ep| (ep, vec![2; 40])).collect();
            let before = db.write_locks();
            let out = db.write_batch(0, 1, deltas, snapshots);
            assert_eq!(out, BatchOutcome::default());
            let taken = db.write_locks() - before;
            // Each shard once for the entries, then the version record's
            // two replicas.
            assert!(taken <= 8 + 2, "{taken} write-lock acquisitions");
        }

        #[test]
        fn readers_never_see_a_version_before_its_listed_deltas() {
            // Agents POLL (version, then changelog) and then read the
            // listed deltas while a 100k-endpoint batch publishes; a
            // version must never be visible before the deltas it lists.
            const ENDPOINTS: u64 = 100_000;
            const VERSIONS: u64 = 2;
            let db = TeDatabase::with_replication(4, 2);
            let published = AtomicBool::new(false);
            let checked = AtomicU64::new(0);
            std::thread::scope(|scope| {
                for reader in 0..2u64 {
                    let (db, published, checked) = (&db, &published, &checked);
                    scope.spawn(move || {
                        let mut ep = reader;
                        loop {
                            let last_pass = published.load(Ordering::Acquire);
                            ep = (ep * 48_271 + 11) % ENDPOINTS;
                            if let Some(v) = db.latest_version() {
                                let log = db.changelog(ep).expect("a published endpoint has a log");
                                for &x in log.versions.iter().filter(|&&x| x <= v) {
                                    assert!(
                                        db.fetch(&delta(ep, x)).is_some(),
                                        "version {v} visible before endpoint {ep}'s delta {x}"
                                    );
                                    checked.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            if last_pass {
                                break;
                            }
                        }
                    });
                }
                for version in 1..=VERSIONS {
                    let deltas = (0..ENDPOINTS)
                        .map(|ep| (ep, vec![version as u8; 16]))
                        .collect();
                    db.write_batch(0, version, deltas, Vec::new());
                }
                published.store(true, Ordering::Release);
            });
            assert!(
                checked.load(Ordering::Relaxed) > 0,
                "readers checked listed deltas"
            );
        }
    }
}
