//! `path_map` and its key index under every writer: the map's own
//! operations, the endpoint agent's install paths and the kernel's
//! instance teardown, against a `BTreeMap` model — and the cost of a
//! one-instance install on a host full of other instances' paths.

use megate_hoststack::{
    EndpointAgent, HostMaps, InstanceId, MapError, PathInstall, PathKey, PathMap, PathMapWrites,
    SimKernel,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const INSTANCES: u64 = 8;
const DSTS: u8 = 6;
/// Under `INSTANCES × DSTS`, so runs reach `MapError::Full`.
const CAPACITY: usize = 24;

type Model = BTreeMap<PathKey, Vec<u32>>;

fn dst(d: u8) -> [u8; 4] {
    [10, 0, 0, d]
}

/// The destinations whose bit is set in `mask`, each with a hop list
/// that tells the writes of different steps apart.
fn installs(instance: u64, mask: u8, hop: u32) -> Vec<PathInstall> {
    (0..DSTS)
        .filter(|d| mask & (1 << d) != 0)
        .map(|d| PathInstall {
            instance: InstanceId(instance),
            dst_ip: dst(d),
            hops: vec![hop, d as u32],
        })
        .collect()
}

/// The map's capacity rule: a new key is refused when the map is full.
fn model_update(model: &mut Model, key: PathKey, hops: Vec<u32>) -> Result<(), MapError> {
    if !model.contains_key(&key) && model.len() >= CAPACITY {
        return Err(MapError::Full);
    }
    model.insert(key, hops);
    Ok(())
}

fn model_install(model: &mut Model, paths: &[PathInstall]) -> usize {
    paths
        .iter()
        .filter(|p| model_update(model, (p.instance, p.dst_ip), p.hops.clone()).is_ok())
        .count()
}

/// Table contents equal the model, and the key index equals the
/// table's sorted key set.
fn check(map: &PathMap, model: &Model, step: &str) -> Result<(), TestCaseError> {
    let mut table = map.snapshot();
    table.sort();
    let want: Vec<(PathKey, Vec<u32>)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
    prop_assert_eq!(&table, &want, "table after {}", step);
    let keys: Vec<PathKey> = model.keys().copied().collect();
    prop_assert_eq!(map.keys(), keys, "key index after {}", step);
    prop_assert_eq!(map.len(), model.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of every `path_map` writer leave the table
    /// equal to the model and the key index equal to the table's keys
    /// after every step, `Full` rejections included.
    #[test]
    fn table_and_key_index_follow_the_model(
        ops in proptest::collection::vec(
            ((0u8..10, 0u64..INSTANCES), (0u8..(1 << DSTS), 0u8..(1 << DSTS), 0u32..1000)),
            1..80,
        ),
    ) {
        let mut maps = HostMaps::new();
        maps.path_map = PathMap::new("path_map_model", CAPACITY);
        let kernel = SimKernel::with_maps(maps.clone());
        let mut agent = EndpointAgent::new(maps.clone());
        let map = &maps.path_map;
        let mut model = Model::new();

        for (n, ((kind, i), (mask, mask2, hop))) in ops.into_iter().enumerate() {
            let instance = InstanceId(i);
            let d = mask % DSTS;
            let step = match kind {
                0 => {
                    let key = (instance, dst(d));
                    prop_assert_eq!(
                        map.update(key, vec![hop]),
                        model_update(&mut model, key, vec![hop])
                    );
                    "update"
                }
                1 => {
                    let key = (instance, dst(d));
                    prop_assert_eq!(
                        map.delete(&key),
                        model.remove(&key).ok_or(MapError::NotFound)
                    );
                    "delete"
                }
                2 => {
                    let keep = |dst: &[u8; 4]| mask & (1 << dst[3]) != 0;
                    let before = model.len();
                    model.retain(|k, _| k.0 != instance || keep(&k.1));
                    prop_assert_eq!(map.retain_instance(instance, keep), before - model.len());
                    "retain_instance"
                }
                3 => {
                    let mut drained = map.drain();
                    drained.sort();
                    let want: Vec<_> = std::mem::take(&mut model).into_iter().collect();
                    prop_assert_eq!(drained, want);
                    "drain"
                }
                4 => {
                    // Two instances in one config.
                    let mut paths = installs(i, mask, hop);
                    paths.extend(installs((i + 3) % INSTANCES, mask2, hop));
                    prop_assert_eq!(
                        agent.install_config(n as u64, &paths),
                        model_install(&mut model, &paths)
                    );
                    "install_config"
                }
                5 => {
                    let paths = installs(i, mask, hop);
                    model.retain(|k, _| {
                        k.0 != instance || paths.iter().any(|p| p.dst_ip == k.1)
                    });
                    prop_assert_eq!(
                        agent.install_snapshot(n as u64, instance, &paths),
                        model_install(&mut model, &paths)
                    );
                    "install_snapshot"
                }
                6 => {
                    let changed = installs(i, mask, hop);
                    let other = InstanceId((i + 1) % INSTANCES);
                    let removed: Vec<PathKey> = (0..DSTS)
                        .filter(|d| mask2 & (1 << d) != 0)
                        .map(|d| (other, dst(d)))
                        .collect();
                    for key in &removed {
                        model.remove(key);
                    }
                    prop_assert_eq!(
                        agent.apply_delta(n as u64, &changed, &removed),
                        model_install(&mut model, &changed)
                    );
                    "apply_delta"
                }
                7 => {
                    agent.degrade();
                    model.clear();
                    "degrade"
                }
                8 => {
                    agent.flush_paths();
                    model.clear();
                    "flush_paths"
                }
                _ => {
                    let before = model.len();
                    model.retain(|k, _| k.0 != instance);
                    // No process or flow of the instance exists, so its
                    // paths are all the teardown removes.
                    prop_assert_eq!(kernel.decommission_instance(instance), before - model.len());
                    "decommission_instance"
                }
            };
            check(map, &model, step)?;
        }
    }
}

/// A snapshot install writes only what changed, counted in the map:
/// re-installing the same snapshot writes no entry, changing one
/// destination's hops writes one, dropping one destination deletes one.
/// The return value still counts every entry that holds its path.
#[test]
fn install_snapshot_writes_only_what_changed() {
    let kernel = SimKernel::new();
    let map = kernel.maps().path_map.clone();
    let mut agent = EndpointAgent::new(kernel.maps().clone());
    let instance = InstanceId(3);
    let since = |before: PathMapWrites| {
        let now = map.writes();
        (now.updated - before.updated, now.deleted - before.deleted)
    };

    let paths = installs(3, 0b1111, 7);
    let w = map.writes();
    assert_eq!(agent.install_snapshot(1, instance, &paths), 4);
    assert_eq!(since(w), (4, 0), "a first install writes every entry");

    let w = map.writes();
    assert_eq!(agent.install_snapshot(2, instance, &paths), 4);
    assert_eq!(since(w), (0, 0), "an identical re-install writes nothing");

    let mut changed = paths.clone();
    changed[2].hops.push(99);
    let w = map.writes();
    assert_eq!(agent.install_snapshot(3, instance, &changed), 4);
    assert_eq!(since(w), (1, 0), "one destination's hops changed");

    let dropped = changed[..3].to_vec();
    let w = map.writes();
    assert_eq!(agent.install_snapshot(4, instance, &dropped), 3);
    assert_eq!(since(w), (0, 1), "one destination dropped");

    let mut table = map.snapshot();
    table.sort();
    let want: Vec<(PathKey, Vec<u32>)> = dropped
        .iter()
        .map(|p| ((p.instance, p.dst_ip), p.hops.clone()))
        .collect();
    assert_eq!(table, want);
    assert_eq!(agent.config_version(), 4);
}

/// Installing one instance's snapshot costs the same on a host holding
/// 100 000 paths of other instances as on an empty one: the install
/// visits its own entries, not the map. (Scanning the map, as the
/// install used to, puts this ratio in the thousands.)
#[test]
fn install_snapshot_work_is_independent_of_foreign_entries() {
    const FOREIGN: u64 = 100_000;
    const INSTALLS: u64 = 2_000;
    let target = InstanceId(FOREIGN / 8);

    let time_installs = |foreign: u64| -> Duration {
        let kernel = SimKernel::new();
        let map = &kernel.maps().path_map;
        // Four paths per foreign instance, ids on both sides of the
        // target's.
        for n in 0..foreign {
            let id = n / 4 + u64::from(n / 4 >= target.0);
            map.update((InstanceId(id), dst((n % 4) as u8)), vec![1, 2, 3])
                .expect("path_map holds the foreign entries");
        }
        let mut agent = EndpointAgent::new(kernel.maps().clone());
        // Alternate two snapshots, so every install withdraws one
        // destination and adds another.
        let snapshots = [installs(target.0, 0b0111, 7), installs(target.0, 0b1110, 9)];
        // The best of a few runs: scheduling noise only ever adds time.
        (0..5)
            .map(|_| {
                let t = Instant::now();
                for v in 0..INSTALLS {
                    agent.install_snapshot(v, target, &snapshots[(v % 2) as usize]);
                }
                t.elapsed()
            })
            .min()
            .expect("five runs")
    };

    let empty = time_installs(0);
    let full = time_installs(FOREIGN);
    let ratio = full.as_secs_f64() / empty.as_secs_f64();
    assert!(
        ratio <= 5.0,
        "{INSTALLS} installs took {full:?} beside {FOREIGN} foreign entries and {empty:?} on \
         an empty map: ratio {ratio:.1}"
    );
}
