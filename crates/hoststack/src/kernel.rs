//! The simulated kernel: hook points and event dispatch.
//!
//! [`SimKernel`] stands in for the Linux kernel of one end host. It
//! fires the same three hooks the paper attaches eBPF programs to, with
//! the same event payloads, and runs the programs in
//! [`crate::programs`] against shared [`crate::maps::EbpfMap`]s.

use crate::maps::MapError;
use crate::programs::{self, HostMaps};
use megate_packet::WireError;
use std::fmt;

/// A process identifier on the simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// A virtual instance (container/VM) identifier — the paper's `ins_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ins{}", self.0)
    }
}

/// Events observable from the kernel (for tests and tracing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelEvent {
    /// `sys_enter_execve` fired for a process of an instance.
    Execve {
        /// The process that called execve.
        pid: Pid,
        /// The instance that owns it.
        instance: InstanceId,
    },
    /// `ctnetlink_conntrack_event` fired for a new connection.
    Conntrack {
        /// The process that opened the connection.
        pid: Pid,
    },
    /// A frame traversed the TC egress hook.
    TcEgress {
        /// Outcome of the egress program chain.
        verdict: TcVerdict,
    },
}

/// Outcome of the TC egress program chain for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcVerdict {
    /// Frame passed unchanged (no path installed / not attributable).
    Pass,
    /// Frame passed with a MegaTE SR header inserted.
    PassWithSr,
    /// Frame was not a parseable VXLAN frame; passed untouched.
    NotVxlan,
}

/// Per-host counters the TC programs maintain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcStats {
    /// Frames seen at egress.
    pub frames: u64,
    /// Frames that received an SR header.
    pub sr_inserted: u64,
    /// Frames attributed to an instance (inf_map hit).
    pub attributed: u64,
    /// Non-first fragments resolved via frag_map.
    pub fragments_resolved: u64,
    /// Map-full or lookup-miss events (accounting dropped, frame still
    /// forwarded — eBPF programs never drop on map pressure here).
    pub accounting_misses: u64,
}

/// The simulated kernel of one end host.
///
/// ```
/// use megate_hoststack::{SimKernel, InstanceId, Pid, TcVerdict};
/// use megate_packet::{FiveTuple, MegaTeFrameSpec, Proto};
///
/// let kernel = SimKernel::new();
/// let tuple = FiveTuple {
///     src_ip: [10, 0, 0, 1], dst_ip: [10, 0, 0, 2],
///     proto: Proto::Udp, src_port: 5000, dst_port: 443,
/// };
/// kernel.spawn_process(InstanceId(7), Pid(100)).unwrap();   // execve hook
/// kernel.open_connection(Pid(100), tuple).unwrap();         // conntrack hook
/// kernel.maps().path_map.update((InstanceId(7), tuple.dst_ip), vec![3, 9]).unwrap();
///
/// let mut frame = MegaTeFrameSpec::simple(tuple, 1, None).build();
/// assert_eq!(kernel.tc_egress(&mut frame), TcVerdict::PassWithSr);
/// ```
#[derive(Debug, Clone)]
pub struct SimKernel {
    maps: HostMaps,
    stats: std::sync::Arc<parking_lot::Mutex<TcStats>>,
}

impl Default for SimKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl SimKernel {
    /// A kernel with default map sizes.
    pub fn new() -> Self {
        Self::with_maps(HostMaps::new())
    }

    /// A kernel over externally created maps (shared with an agent).
    pub fn with_maps(maps: HostMaps) -> Self {
        Self {
            maps,
            stats: std::sync::Arc::new(parking_lot::Mutex::new(TcStats::default())),
        }
    }

    /// The host's shared eBPF maps.
    pub fn maps(&self) -> &HostMaps {
        &self.maps
    }

    /// Counters maintained by the TC programs.
    pub fn stats(&self) -> TcStats {
        *self.stats.lock()
    }

    /// Simulates an instance starting a process: fires the
    /// `sys_enter_execve` tracepoint, which records `pid → ins_id`.
    pub fn spawn_process(&self, instance: InstanceId, pid: Pid) -> Result<(), MapError> {
        programs::on_execve(&self.maps, pid, instance)
    }

    /// Simulates a process opening a connection: fires the conntrack
    /// kprobe, which records `5tuple → pid` and joins it with `env_map`
    /// into `inf_map: 5tuple → ins_id`.
    pub fn open_connection(
        &self,
        pid: Pid,
        tuple: megate_packet::FiveTuple,
    ) -> Result<(), MapError> {
        programs::on_conntrack(&self.maps, pid, tuple)
    }

    /// Simulates an instance being decommissioned (§1: virtual
    /// instances are "dynamically provisioned and decommissioned"):
    /// removes every map entry attributed to it — its processes from
    /// `env_map`, its flows from `contk_map`/`inf_map`/`traffic_map`,
    /// and its installed paths — so a recycled five-tuple can never be
    /// attributed to a dead instance. Returns the number of entries
    /// removed.
    pub fn decommission_instance(&self, instance: InstanceId) -> usize {
        let mut removed = 0;
        for (pid, ins) in self.maps.env_map.snapshot() {
            if ins == instance && self.maps.env_map.delete(&pid).is_ok() {
                removed += 1;
            }
        }
        for (tuple, ins) in self.maps.inf_map.snapshot() {
            if ins == instance {
                if self.maps.inf_map.delete(&tuple).is_ok() {
                    removed += 1;
                }
                if self.maps.contk_map.delete(&tuple).is_ok() {
                    removed += 1;
                }
                if self.maps.traffic_map.delete(&tuple).is_ok() {
                    removed += 1;
                }
            }
        }
        removed + self.maps.path_map.retain_instance(instance, |_| false)
    }

    /// Runs the TC egress chain on a frame: flow collection then SR
    /// insertion. The frame may grow in place (SR splice). Malformed
    /// frames pass untouched — an eBPF program must never wedge the
    /// datapath.
    pub fn tc_egress(&self, frame: &mut Vec<u8>) -> TcVerdict {
        let mut stats = self.stats.lock();
        stats.frames += 1;
        let verdict = match programs::tc_egress_chain(&self.maps, frame, &mut stats) {
            Ok(v) => v,
            Err(WireError::Truncated) | Err(WireError::Malformed) => TcVerdict::NotVxlan,
        };
        if verdict == TcVerdict::PassWithSr {
            stats.sr_inserted += 1;
        }
        verdict
    }

    /// Runs the batched TC egress fast path: parses the whole batch
    /// into flat descriptors in one pass, then hands it to
    /// [`programs::process_batch`] against the worker's
    /// [`CpuShard`](crate::batch::CpuShard).
    ///
    /// Accounting lands in the shard, not the shared maps — call
    /// [`sync_cpu`](Self::sync_cpu) to merge. Frames may grow in place
    /// (vectorized SR splice).
    pub fn tc_egress_batch(
        &self,
        batch: &mut megate_packet::FrameBatch,
        cpu: &mut crate::batch::CpuShard,
    ) -> crate::batch::BatchSummary {
        let parse = megate_obs::span("hoststack.batch.parse");
        let mut descs = std::mem::take(&mut cpu.descs);
        megate_packet::parse_batch(batch, &mut descs);
        drop(parse);
        let summary = programs::process_batch(&self.maps, batch, &descs, cpu);
        cpu.descs = descs;
        summary
    }

    /// The sync tick for one worker core: merges the shard's
    /// accumulated flow bytes, fragment seeds, and telemetry into the
    /// shared maps, and folds its counters into the kernel-wide
    /// [`TcStats`]. Returns the merged delta.
    pub fn sync_cpu(&self, cpu: &mut crate::batch::CpuShard) -> TcStats {
        let delta = cpu.merge_into(&self.maps);
        let mut stats = self.stats.lock();
        stats.frames += delta.frames;
        stats.sr_inserted += delta.sr_inserted;
        stats.attributed += delta.attributed;
        stats.fragments_resolved += delta.fragments_resolved;
        stats.accounting_misses += delta.accounting_misses;
        delta
    }

    /// Runs the TC ingress chain on a received frame: strips the MegaTE
    /// SR header (restoring a standard VXLAN frame for the guest) and
    /// bills ingress traffic. Malformed frames pass untouched.
    pub fn tc_ingress(&self, frame: &mut Vec<u8>) -> TcVerdict {
        let mut stats = self.stats.lock();
        stats.frames += 1;
        match programs::tc_ingress_chain(&self.maps, frame, &mut stats) {
            Ok(v) => v,
            Err(WireError::Truncated) | Err(WireError::Malformed) => TcVerdict::NotVxlan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use megate_packet::{FiveTuple, MegaTeFrameSpec, Proto};

    fn tuple(port: u16) -> FiveTuple {
        FiveTuple {
            src_ip: [10, 0, 0, 1],
            dst_ip: [10, 9, 9, 9],
            proto: Proto::Udp,
            src_port: port,
            dst_port: 443,
        }
    }

    #[test]
    fn instance_identification_joins_maps() {
        let k = SimKernel::new();
        k.spawn_process(InstanceId(55), Pid(1000)).unwrap();
        k.open_connection(Pid(1000), tuple(1)).unwrap();
        assert_eq!(k.maps().inf_map.lookup(&tuple(1)), Some(InstanceId(55)));
    }

    #[test]
    fn connection_from_unknown_pid_skips_inf_map() {
        let k = SimKernel::new();
        // No execve seen for this pid: contk_map gets the entry but
        // inf_map cannot be joined.
        k.open_connection(Pid(77), tuple(2)).unwrap();
        assert_eq!(k.maps().contk_map.lookup(&tuple(2)), Some(Pid(77)));
        assert_eq!(k.maps().inf_map.lookup(&tuple(2)), None);
    }

    #[test]
    fn tc_egress_accounts_traffic() {
        let k = SimKernel::new();
        let mut frame = MegaTeFrameSpec::simple(tuple(3), 1, None).build();
        let v = k.tc_egress(&mut frame);
        assert_eq!(v, TcVerdict::Pass);
        let bytes = k.maps().traffic_map.lookup(&tuple(3)).unwrap();
        assert!(bytes > 0);
        assert_eq!(k.stats().frames, 1);
    }

    #[test]
    fn tc_egress_inserts_sr_when_path_installed() {
        let k = SimKernel::new();
        k.spawn_process(InstanceId(7), Pid(1)).unwrap();
        k.open_connection(Pid(1), tuple(4)).unwrap();
        k.maps()
            .path_map
            .update((InstanceId(7), tuple(4).dst_ip), vec![3, 1, 4])
            .unwrap();
        let mut frame = MegaTeFrameSpec::simple(tuple(4), 1, None).build();
        let v = k.tc_egress(&mut frame);
        assert_eq!(v, TcVerdict::PassWithSr);
        let parsed = megate_packet::parse_megate_frame(&frame).unwrap();
        assert_eq!(parsed.sr.unwrap().1, vec![3, 1, 4]);
        assert_eq!(k.stats().sr_inserted, 1);
    }

    #[test]
    fn decommission_scrubs_every_map() {
        let k = SimKernel::new();
        k.spawn_process(InstanceId(7), Pid(1)).unwrap();
        k.open_connection(Pid(1), tuple(1)).unwrap();
        k.maps()
            .path_map
            .update((InstanceId(7), tuple(1).dst_ip), vec![2])
            .unwrap();
        let mut frame = MegaTeFrameSpec::simple(tuple(1), 1, None).build();
        k.tc_egress(&mut frame); // fills traffic_map

        // Another instance stays untouched.
        k.spawn_process(InstanceId(8), Pid(2)).unwrap();
        k.open_connection(Pid(2), tuple(2)).unwrap();

        let removed = k.decommission_instance(InstanceId(7));
        assert!(removed >= 4, "env+inf+contk+traffic+path, got {removed}");
        assert_eq!(k.maps().env_map.lookup(&Pid(1)), None);
        assert_eq!(k.maps().inf_map.lookup(&tuple(1)), None);
        assert_eq!(k.maps().traffic_map.lookup(&tuple(1)), None);
        assert_eq!(
            k.maps().path_map.lookup(&(InstanceId(7), tuple(1).dst_ip)),
            None
        );
        // Instance 8 unaffected.
        assert_eq!(k.maps().inf_map.lookup(&tuple(2)), Some(InstanceId(8)));
    }

    #[test]
    fn recycled_tuple_not_attributed_to_dead_instance() {
        let k = SimKernel::new();
        k.spawn_process(InstanceId(7), Pid(1)).unwrap();
        k.open_connection(Pid(1), tuple(3)).unwrap();
        k.decommission_instance(InstanceId(7));
        // A new instance reuses the same five-tuple.
        k.spawn_process(InstanceId(9), Pid(3)).unwrap();
        k.open_connection(Pid(3), tuple(3)).unwrap();
        assert_eq!(k.maps().inf_map.lookup(&tuple(3)), Some(InstanceId(9)));
    }

    #[test]
    fn ingress_strips_sr_and_bills_traffic() {
        let k = SimKernel::new();
        let mut frame = MegaTeFrameSpec::simple(tuple(9), 1, Some(vec![3, 4])).build();
        let v = k.tc_ingress(&mut frame);
        assert_eq!(v, TcVerdict::PassWithSr);
        let parsed = megate_packet::parse_megate_frame(&frame).unwrap();
        assert!(parsed.sr.is_none(), "SR stripped before guest delivery");
        assert!(k.maps().traffic_map.lookup(&tuple(9)).unwrap() > 0);
        // Plain frames pass and still get billed.
        let mut plain = MegaTeFrameSpec::simple(tuple(9), 1, None).build();
        assert_eq!(k.tc_ingress(&mut plain), TcVerdict::Pass);
    }

    #[test]
    fn garbage_frames_pass_untouched() {
        let k = SimKernel::new();
        let mut junk = vec![0xAAu8; 40];
        let before = junk.clone();
        assert_eq!(k.tc_egress(&mut junk), TcVerdict::NotVxlan);
        assert_eq!(junk, before);
    }
}
