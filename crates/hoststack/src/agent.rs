//! The endpoint agent: the user-space process on every end host.
//!
//! "In each end host, there is an endpoint agent, which is used for the
//! interaction between the controller and endpoint" (§5.1). Its two
//! jobs:
//!
//! * **Flow readout** — periodically (once per TE interval) join
//!   `inf_map ⨝ traffic_map` into instance-level flow records
//!   `(ins_id, volume)` and reset the counters;
//! * **Path installation** — when a new TE configuration version is
//!   pulled from the TE database (§3.2), write the per-instance paths
//!   into `path_map` so the TC program starts labelling packets.
//!
//! The agent is deliberately ignorant of *how* configurations arrive —
//! the bottom-up pull loop lives in `megate-tedb` / the core crate.

use crate::kernel::InstanceId;
use crate::programs::HostMaps;
use megate_packet::FiveTuple;
use std::collections::HashMap;

/// One instance-level flow record reported to the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRecord {
    /// Originating virtual instance.
    pub instance: InstanceId,
    /// The flow's five-tuple.
    pub tuple: FiveTuple,
    /// Bytes observed during the TE interval.
    pub bytes: u64,
}

/// A path to install for an instance's traffic toward a destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathInstall {
    /// The instance whose packets get this path.
    pub instance: InstanceId,
    /// Destination address the path applies to.
    pub dst_ip: [u8; 4],
    /// SR hop list (site ids along the WAN).
    pub hops: Vec<u32>,
}

/// The user-space endpoint agent of one host.
#[derive(Debug, Clone)]
pub struct EndpointAgent {
    maps: HostMaps,
    config_version: u64,
    degraded: bool,
    /// Flight-recorder identity: the endpoint id this agent serves,
    /// stamped on [`megate_obs::trace::Stage::Install`] events so a
    /// propagation dump can follow one endpoint end to end. 0 (the
    /// default) means "unidentified" — events still record.
    ident: u64,
}

impl EndpointAgent {
    /// An agent sharing the host's eBPF maps.
    pub fn new(maps: HostMaps) -> Self {
        Self {
            maps,
            config_version: 0,
            degraded: false,
            ident: 0,
        }
    }

    /// Sets the agent's flight-recorder identity (its endpoint id).
    pub fn set_identity(&mut self, endpoint: u64) {
        self.ident = endpoint;
    }

    /// The agent's flight-recorder identity.
    pub fn identity(&self) -> u64 {
        self.ident
    }

    /// The TE configuration version currently installed.
    pub fn config_version(&self) -> u64 {
        self.config_version
    }

    /// Whether the agent has degraded to site-level/ECMP forwarding
    /// because its configuration went stale past the TTL.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Graceful degradation: stop steering on stale state. Flushes the
    /// SR `path_map` (egress falls back to site-level/ECMP forwarding —
    /// suboptimal but correct) and resets the local version to 0, so
    /// the next successful pull rebuilds full state from a cold start
    /// (complete delta replay or snapshot) rather than patching an
    /// emptied map.
    pub fn degrade(&mut self) {
        self.flush_paths();
        self.config_version = 0;
        self.degraded = true;
    }

    /// Reads and resets the interval's flow statistics, joined to
    /// instance ids. Flows that cannot be attributed to an instance
    /// (no `inf_map` entry) are returned with their tuple but dropped
    /// from the instance report, mirroring the paper's join of
    /// `inf_map` and `traffic_map`.
    pub fn collect_flows(&self) -> Vec<FlowRecord> {
        let counters = self.maps.traffic_map.drain();
        let mut out = Vec::with_capacity(counters.len());
        for (tuple, bytes) in counters {
            if let Some(instance) = self.maps.inf_map.lookup(&tuple) {
                out.push(FlowRecord {
                    instance,
                    tuple,
                    bytes,
                });
            }
        }
        // Deterministic report order.
        out.sort_by_key(|a| (a.instance, a.tuple));
        out
    }

    /// Aggregates a flow report to per-instance volumes — the
    /// `(ins_id, volume)` tuples the backend stores.
    pub fn per_instance_volume(records: &[FlowRecord]) -> HashMap<InstanceId, u64> {
        let mut m = HashMap::new();
        for r in records {
            *m.entry(r.instance).or_insert(0) += r.bytes;
        }
        m
    }

    /// Installs a new TE configuration: replaces the paths of every
    /// instance mentioned and bumps the local version. Returns how many
    /// entries now hold their path, including those that already did
    /// and so were not rewritten (map-full failures are skipped and
    /// counted out of the return value).
    pub fn install_config(&mut self, version: u64, paths: &[PathInstall]) -> usize {
        let mut written = 0;
        for p in paths {
            if self
                .maps
                .path_map
                .update_from((p.instance, p.dst_ip), &p.hops)
                .is_ok()
            {
                written += 1;
            }
        }
        self.config_version = version;
        self.degraded = false;
        megate_obs::trace::record(
            megate_obs::trace::Stage::Install,
            version,
            self.ident,
            written as u64,
        );
        written
    }

    /// Installs a *full snapshot* for one instance: every previously
    /// installed path of that instance that the snapshot does not
    /// mention is withdrawn, then the snapshot's paths are written —
    /// leaving `path_map` exactly as if the instance had been
    /// configured from scratch. Entries of other instances are
    /// untouched, and so are the instance's entries that already hold
    /// their path: re-installing an unchanged snapshot writes nothing.
    /// Returns how many entries now hold their path, as
    /// [`install_config`](Self::install_config) does.
    pub fn install_snapshot(
        &mut self,
        version: u64,
        instance: InstanceId,
        paths: &[PathInstall],
    ) -> usize {
        let mut keep: Vec<[u8; 4]> = paths.iter().map(|p| p.dst_ip).collect();
        keep.sort_unstable();
        self.maps
            .path_map
            .retain_instance(instance, |dst| keep.binary_search(dst).is_ok());
        self.install_config(version, paths)
    }

    /// Applies a configuration *delta* in place against the installed
    /// `path_map`: upserts the changed paths, withdraws the removed
    /// destinations, bumps the local version. Starting from the state a
    /// full install of the delta's base version would leave, the result
    /// is identical to a full install of `version` — the equivalence
    /// the control-loop tests assert. Returns entries written.
    pub fn apply_delta(
        &mut self,
        version: u64,
        changed: &[PathInstall],
        removed: &[(InstanceId, [u8; 4])],
    ) -> usize {
        for key in removed {
            let _ = self.maps.path_map.delete(key);
        }
        self.install_config(version, changed)
    }

    /// Removes all installed paths (used when an instance is
    /// decommissioned or on agent restart).
    pub fn flush_paths(&self) {
        let _ = self.maps.path_map.drain();
    }

    /// Access to the shared maps (tests, kernel wiring).
    pub fn maps(&self) -> &HostMaps {
        &self.maps
    }
}

/// One `path_map` entry as returned by snapshots: the `(instance,
/// destination)` key and its SR hop list.
pub type PathMapEntry = (crate::maps::PathKey, Vec<u32>);

/// Registers a fresh instance lifecycle on a kernel: process start +
/// first connection. Convenience for simulations that bring up many
/// endpoints.
pub fn bring_up_instance(
    kernel: &crate::kernel::SimKernel,
    instance: InstanceId,
    pid: crate::kernel::Pid,
    tuples: &[FiveTuple],
) -> Result<(), crate::maps::MapError> {
    kernel.spawn_process(instance, pid)?;
    for &t in tuples {
        kernel.open_connection(pid, t)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Pid, SimKernel};
    use megate_packet::{MegaTeFrameSpec, Proto};

    fn tuple(sp: u16) -> FiveTuple {
        FiveTuple {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 0, 1, 1],
            proto: Proto::Tcp,
            src_port: sp,
            dst_port: 80,
        }
    }

    fn run_frames(kernel: &SimKernel, t: FiveTuple, n: usize) {
        for _ in 0..n {
            let mut f = MegaTeFrameSpec::simple(t, 1, None).build();
            kernel.tc_egress(&mut f);
        }
    }

    #[test]
    fn collect_joins_and_resets() {
        let kernel = SimKernel::new();
        let agent = EndpointAgent::new(kernel.maps().clone());
        bring_up_instance(&kernel, InstanceId(1), Pid(100), &[tuple(1)]).unwrap();
        run_frames(&kernel, tuple(1), 3);

        let recs = agent.collect_flows();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].instance, InstanceId(1));
        assert!(recs[0].bytes > 0);
        // Second collection sees nothing: counters were reset.
        assert!(agent.collect_flows().is_empty());
    }

    #[test]
    fn unattributed_flows_excluded_from_report() {
        let kernel = SimKernel::new();
        let agent = EndpointAgent::new(kernel.maps().clone());
        run_frames(&kernel, tuple(9), 2); // no execve/conntrack seen
        assert!(agent.collect_flows().is_empty());
    }

    #[test]
    fn per_instance_volume_sums_flows() {
        let kernel = SimKernel::new();
        let agent = EndpointAgent::new(kernel.maps().clone());
        bring_up_instance(&kernel, InstanceId(1), Pid(100), &[tuple(1), tuple(2)]).unwrap();
        run_frames(&kernel, tuple(1), 2);
        run_frames(&kernel, tuple(2), 3);
        let recs = agent.collect_flows();
        let vol = EndpointAgent::per_instance_volume(&recs);
        assert_eq!(vol.len(), 1);
        assert!(vol[&InstanceId(1)] > 0);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn install_config_bumps_version_and_activates_sr() {
        let kernel = SimKernel::new();
        let mut agent = EndpointAgent::new(kernel.maps().clone());
        bring_up_instance(&kernel, InstanceId(4), Pid(5), &[tuple(7)]).unwrap();

        assert_eq!(agent.config_version(), 0);
        let n = agent.install_config(
            3,
            &[PathInstall {
                instance: InstanceId(4),
                dst_ip: tuple(7).dst_ip,
                hops: vec![2, 6],
            }],
        );
        assert_eq!(n, 1);
        assert_eq!(agent.config_version(), 3);

        let mut f = MegaTeFrameSpec::simple(tuple(7), 1, None).build();
        let v = kernel.tc_egress(&mut f);
        assert_eq!(v, crate::kernel::TcVerdict::PassWithSr);
    }

    #[test]
    fn install_snapshot_withdraws_unmentioned_paths() {
        let kernel = SimKernel::new();
        let mut agent = EndpointAgent::new(kernel.maps().clone());
        let ins = InstanceId(4);
        agent.install_config(
            1,
            &[
                PathInstall {
                    instance: ins,
                    dst_ip: [10, 0, 0, 1],
                    hops: vec![2],
                },
                PathInstall {
                    instance: ins,
                    dst_ip: [10, 0, 0, 2],
                    hops: vec![3],
                },
            ],
        );
        // Another instance's entry must survive the snapshot install.
        agent.install_config(
            1,
            &[PathInstall {
                instance: InstanceId(9),
                dst_ip: [10, 0, 0, 1],
                hops: vec![7],
            }],
        );
        let n = agent.install_snapshot(
            2,
            ins,
            &[PathInstall {
                instance: ins,
                dst_ip: [10, 0, 0, 2],
                hops: vec![5],
            }],
        );
        assert_eq!(n, 1);
        assert_eq!(agent.config_version(), 2);
        let map = agent.maps().path_map.clone();
        assert_eq!(map.lookup(&(ins, [10, 0, 0, 1])), None, "withdrawn");
        assert_eq!(map.lookup(&(ins, [10, 0, 0, 2])), Some(vec![5]));
        assert_eq!(map.lookup(&(InstanceId(9), [10, 0, 0, 1])), Some(vec![7]));
    }

    #[test]
    fn delta_application_matches_snapshot_install() {
        let mk = |paths: &[PathInstall]| {
            let kernel = SimKernel::new();
            let mut agent = EndpointAgent::new(kernel.maps().clone());
            agent.install_config(1, paths);
            agent
        };
        let ins = InstanceId(4);
        let v1 = [
            PathInstall {
                instance: ins,
                dst_ip: [10, 0, 0, 1],
                hops: vec![2],
            },
            PathInstall {
                instance: ins,
                dst_ip: [10, 0, 0, 2],
                hops: vec![3, 4],
            },
        ];
        let v2 = [
            PathInstall {
                instance: ins,
                dst_ip: [10, 0, 0, 2],
                hops: vec![9],
            },
            PathInstall {
                instance: ins,
                dst_ip: [10, 0, 0, 3],
                hops: vec![1],
            },
        ];
        // Agent A: full snapshot install of v2.
        let mut a = mk(&v1);
        a.install_snapshot(2, ins, &v2);
        // Agent B: delta from v1 to v2.
        let mut b = mk(&v1);
        b.apply_delta(2, &v2, &[(ins, [10, 0, 0, 1])]);
        let sort = |mut v: Vec<PathMapEntry>| {
            v.sort();
            v
        };
        assert_eq!(
            sort(a.maps().path_map.snapshot()),
            sort(b.maps().path_map.snapshot()),
            "delta-applied state must equal snapshot install"
        );
        assert_eq!(a.config_version(), b.config_version());
    }

    #[test]
    fn flush_paths_disables_sr() {
        let kernel = SimKernel::new();
        let mut agent = EndpointAgent::new(kernel.maps().clone());
        bring_up_instance(&kernel, InstanceId(4), Pid(5), &[tuple(7)]).unwrap();
        agent.install_config(
            1,
            &[PathInstall {
                instance: InstanceId(4),
                dst_ip: tuple(7).dst_ip,
                hops: vec![2],
            }],
        );
        agent.flush_paths();
        let mut f = MegaTeFrameSpec::simple(tuple(7), 1, None).build();
        assert_eq!(kernel.tc_egress(&mut f), crate::kernel::TcVerdict::Pass);
    }

    #[test]
    fn degrade_flushes_paths_and_recovers_on_install() {
        let kernel = SimKernel::new();
        let mut agent = EndpointAgent::new(kernel.maps().clone());
        bring_up_instance(&kernel, InstanceId(4), Pid(5), &[tuple(7)]).unwrap();
        agent.install_config(
            5,
            &[PathInstall {
                instance: InstanceId(4),
                dst_ip: tuple(7).dst_ip,
                hops: vec![2],
            }],
        );
        assert!(!agent.is_degraded());
        agent.degrade();
        assert!(agent.is_degraded());
        assert_eq!(agent.config_version(), 0, "cold restart for the next pull");
        assert!(
            agent.maps().path_map.snapshot().is_empty(),
            "no SR steering while degraded"
        );
        // A fresh install (any successful pull) clears degradation.
        agent.install_config(
            6,
            &[PathInstall {
                instance: InstanceId(4),
                dst_ip: tuple(7).dst_ip,
                hops: vec![2],
            }],
        );
        assert!(!agent.is_degraded());
        assert_eq!(agent.config_version(), 6);
    }
}
