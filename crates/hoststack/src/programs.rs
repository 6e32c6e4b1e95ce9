//! The eBPF programs of Figure 6, as plain functions over shared maps.
//!
//! | Hook | Program | Maps touched |
//! |---|---|---|
//! | `sys_enter_execve` tracepoint | [`on_execve`] | `env_map` |
//! | `ctnetlink_conntrack_event` kprobe | [`on_conntrack`] | `contk_map`, `env_map` → `inf_map` |
//! | TC egress | [`tc_egress_chain`] | `traffic_map`, `frag_map`, `inf_map`, `path_map` |

use crate::batch::{BatchSummary, CpuShard};
use crate::kernel::{InstanceId, Pid, TcStats, TcVerdict};
use crate::maps::{EbpfMap, MapError, PathMap};
use megate_packet::{
    insert_sr_header, parse_megate_frame, srheader::MAX_HOPS, FiveTuple, FlowKey, FrameBatch,
    FrameDescriptor, Result as WireResult,
};

/// The per-host map set with the names and roles of Figure 6.
#[derive(Debug, Clone)]
pub struct HostMaps {
    /// `pid → ins_id`, filled at execve time.
    pub env_map: EbpfMap<Pid, InstanceId>,
    /// `5tuple → pid`, filled at connection setup.
    pub contk_map: EbpfMap<FiveTuple, Pid>,
    /// `5tuple → ins_id`, the join of the two above — instance
    /// identification (§5.1).
    pub inf_map: EbpfMap<FiveTuple, InstanceId>,
    /// `5tuple → bytes`, instance-level flow collection.
    pub traffic_map: EbpfMap<FiveTuple, u64>,
    /// `ipid → 5tuple`, resolving non-first IP fragments.
    pub frag_map: EbpfMap<u16, FiveTuple>,
    /// `(ins_id, dst_ip) → SR hop list`, the TE decision installed by
    /// the endpoint agent. The paper keys by instance; the destination
    /// address disambiguates instances talking to several remote sites.
    pub path_map: PathMap,
    /// Perf-event ring: per-event telemetry (new flows, SR insertions,
    /// accounting misses) streamed to user space.
    pub telemetry: crate::ringbuf::RingBuffer,
    /// Process-wide TC-chain counters, mirroring the per-call
    /// [`TcStats`] so fleet-level totals are visible without threading
    /// stats structs up through the simulation.
    pub(crate) tc_metrics: TcMetrics,
}

/// Counter handles for the TC chains, resolved once at map-set
/// construction so the per-packet path never touches the registry.
#[derive(Debug, Clone)]
pub(crate) struct TcMetrics {
    /// `hoststack.accounting_misses`: frames whose bytes could not be
    /// billed (map pressure or orphan fragments).
    accounting_misses: megate_obs::Counter,
    /// `hoststack.frag_orphans`: non-first fragments with no
    /// `frag_map` entry (subset of the misses above).
    frag_orphans: megate_obs::Counter,
    /// `hoststack.frag_resolved`: non-first fragments billed via
    /// `frag_map`.
    frag_resolved: megate_obs::Counter,
    /// `hoststack.sr_inserted`: frames that left with a fresh SR header.
    sr_inserted: megate_obs::Counter,
}

impl TcMetrics {
    fn new() -> Self {
        Self {
            accounting_misses: megate_obs::counter("hoststack.accounting_misses"),
            frag_orphans: megate_obs::counter("hoststack.frag_orphans"),
            frag_resolved: megate_obs::counter("hoststack.frag_resolved"),
            sr_inserted: megate_obs::counter("hoststack.sr_inserted"),
        }
    }

    /// Folds a shard's accumulated counters in at sync-tick time — the
    /// batched path touches these process-wide counters once per merge,
    /// not once per frame.
    pub(crate) fn add_batch(&self, stats: &TcStats, frag_orphans: u64) {
        self.accounting_misses.add(stats.accounting_misses);
        self.frag_resolved.add(stats.fragments_resolved);
        self.frag_orphans.add(frag_orphans);
        self.sr_inserted.add(stats.sr_inserted);
    }
}

impl Default for HostMaps {
    fn default() -> Self {
        Self::new()
    }
}

impl HostMaps {
    /// Maps with production-like size bounds.
    pub fn new() -> Self {
        Self {
            env_map: EbpfMap::new("env_map", 65_536),
            contk_map: EbpfMap::new("contk_map", 262_144),
            inf_map: EbpfMap::new("inf_map", 262_144),
            traffic_map: EbpfMap::new_lru("traffic_map", 262_144),
            frag_map: EbpfMap::new_lru("frag_map", 16_384),
            path_map: PathMap::new("path_map", 262_144),
            telemetry: crate::ringbuf::RingBuffer::new(65_536),
            tc_metrics: TcMetrics::new(),
        }
    }
}

/// `tracepoint:syscalls/sys_enter_execve`: record which instance owns
/// the process.
pub fn on_execve(maps: &HostMaps, pid: Pid, instance: InstanceId) -> Result<(), MapError> {
    maps.env_map.update(pid, instance)
}

/// `kprobe:ctnetlink_conntrack_event`: record the connection's owner
/// pid, then join `env_map ⨝ contk_map → inf_map` so every five-tuple
/// maps to its originating instance.
pub fn on_conntrack(maps: &HostMaps, pid: Pid, tuple: FiveTuple) -> Result<(), MapError> {
    maps.contk_map.update(tuple, pid)?;
    if let Some(instance) = maps.env_map.lookup(&pid) {
        maps.inf_map.update(tuple, instance)?;
    }
    Ok(())
}

/// The TC egress chain: flow collection then SR insertion.
///
/// Flow collection (§5.1): bill the inner IPv4 length to the flow's
/// five-tuple in `traffic_map`. First fragments seed `frag_map`
/// (`ipid → 5tuple`); later fragments resolve through it.
///
/// SR insertion (§5.2): if `inf_map` attributes the flow to an instance
/// and `path_map` holds a TE path for it, splice the SR header after
/// the VXLAN header and set the VXLAN reserved-field flag.
pub fn tc_egress_chain(
    maps: &HostMaps,
    frame: &mut Vec<u8>,
    stats: &mut TcStats,
) -> WireResult<TcVerdict> {
    let parsed = parse_megate_frame(frame)?;

    // --- Flow collection ---
    let tuple = match parsed.inner_flow {
        FlowKey::Tuple {
            tuple,
            first_fragment,
            ipid,
        } => {
            if first_fragment {
                // Seed frag_map so follow-on fragments resolve. Best
                // effort: on map pressure the fragment accounting is
                // lost but the frame is still forwarded.
                if maps.frag_map.update(ipid, tuple).is_err() {
                    stats.accounting_misses += 1;
                    maps.tc_metrics.accounting_misses.inc();
                }
            }
            Some(tuple)
        }
        FlowKey::Fragment { ipid } => match maps.frag_map.lookup(&ipid) {
            Some(t) => {
                stats.fragments_resolved += 1;
                maps.tc_metrics.frag_resolved.inc();
                Some(t)
            }
            None => {
                stats.accounting_misses += 1;
                maps.tc_metrics.accounting_misses.inc();
                maps.tc_metrics.frag_orphans.inc();
                None
            }
        },
    };
    if let Some(t) = tuple {
        let first_sighting = maps.traffic_map.lookup(&t).is_none();
        if maps
            .traffic_map
            .upsert_with(t, 0, |v| *v += parsed.inner_ip_len as u64)
            .is_err()
        {
            stats.accounting_misses += 1;
            maps.tc_metrics.accounting_misses.inc();
            maps.telemetry
                .publish(crate::ringbuf::TelemetryEvent::AccountingMiss);
        } else if first_sighting {
            maps.telemetry
                .publish(crate::ringbuf::TelemetryEvent::NewFlow { tuple: t });
        }
    }

    // --- SR insertion ---
    let Some(t) = tuple else {
        return Ok(TcVerdict::Pass);
    };
    if parsed.sr.is_some() {
        // Already labelled (shouldn't happen on egress) — leave as is.
        return Ok(TcVerdict::Pass);
    }
    let Some(instance) = maps.inf_map.lookup(&t) else {
        return Ok(TcVerdict::Pass);
    };
    stats.attributed += 1;
    let Some(hops) = maps.path_map.lookup(&(instance, t.dst_ip)) else {
        return Ok(TcVerdict::Pass);
    };
    insert_sr_header(frame, &hops)?;
    maps.tc_metrics.sr_inserted.inc();
    maps.telemetry
        .publish(crate::ringbuf::TelemetryEvent::SrInserted {
            instance,
            hops: hops.len() as u8,
        });
    Ok(TcVerdict::PassWithSr)
}

/// The batched TC egress fast path: one map-lookup pass per batch,
/// shard-local accounting, vectorized SR insertion.
///
/// Semantically this is [`tc_egress_chain`] applied to every frame of
/// the batch, restructured for multi-core throughput (DESIGN.md §5d):
///
/// 1. **Collect** — resolve each descriptor's billing tuple and
///    accumulate bytes into the shard-local `traffic` map. First
///    fragments seed the shard's fragment overlay; non-first fragments
///    resolve through the overlay first (preserving in-order semantics
///    within the worker), then the shared `frag_map`.
/// 2. **Lookup** — a memoized pass over `inf_map`/`path_map`: each
///    distinct tuple (or `(instance, dst)` pair) is looked up at most
///    once per *sync epoch*, however many frames or batches share it.
///    The caches are dropped at merge time, so a changed TE path is
///    picked up on the next epoch — the same granularity at which the
///    shard publishes its accounting.
/// 3. **SR** — all insertions applied in one gather/scatter rebuild of
///    the arena ([`FrameBatch::apply_sr`]), byte-identical to serial
///    [`insert_sr_header`] calls.
///
/// Nothing is written to the shared maps here; that happens on the sync
/// tick ([`CpuShard::merge_into`]). Because flow accounting is
/// additive, the post-merge `traffic_map` state is identical to the
/// single-frame path's (`tests/dataplane_batch.rs` asserts it
/// bitwise). Non-VXLAN noise frames are counted and passed untouched,
/// like the single-frame path's `NotVxlan` verdict.
pub fn process_batch(
    maps: &HostMaps,
    batch: &mut FrameBatch,
    descs: &[FrameDescriptor],
    cpu: &mut CpuShard,
) -> BatchSummary {
    debug_assert_eq!(
        batch.len(),
        descs.len(),
        "descriptor array must match batch"
    );
    let mut summary = BatchSummary {
        frames: descs.len(),
        ..BatchSummary::default()
    };
    cpu.stats.frames += descs.len() as u64;

    // --- Stage 1: flow collection into the shard-local accumulators ---
    let collect = megate_obs::span("hoststack.batch.collect");
    cpu.tuples.clear();
    for desc in descs {
        if !desc.vxlan {
            cpu.tuples.push(None);
            continue;
        }
        summary.vxlan_frames += 1;
        let tuple = match desc.flow {
            Some(FlowKey::Tuple {
                tuple,
                first_fragment,
                ipid,
            }) => {
                if first_fragment {
                    // Seed the shard-local overlay; the shared frag_map
                    // gets it on the next sync tick.
                    cpu.frag.insert(ipid, tuple);
                }
                Some(tuple)
            }
            Some(FlowKey::Fragment { ipid }) => {
                // Overlay first: a first fragment seen earlier on this
                // worker (even in this very batch) must resolve, just
                // as it would frame-by-frame.
                match cpu
                    .frag
                    .get(&ipid)
                    .copied()
                    .or_else(|| maps.frag_map.lookup(&ipid))
                {
                    Some(t) => {
                        summary.fragments_resolved += 1;
                        cpu.stats.fragments_resolved += 1;
                        Some(t)
                    }
                    None => {
                        summary.accounting_misses += 1;
                        cpu.stats.accounting_misses += 1;
                        cpu.frag_orphans += 1;
                        None
                    }
                }
            }
            None => None,
        };
        if let Some(t) = tuple {
            *cpu.traffic.entry(t).or_insert(0) += desc.inner_ip_len as u64;
        }
        cpu.tuples.push(tuple);
    }
    drop(collect);

    // --- Stage 2: memoized lookup pass over inf_map/path_map ---
    // The shard caches persist across batches within the sync epoch and
    // are invalidated at merge time, so control-plane updates become
    // visible at epoch granularity (§5d).
    let lookup = megate_obs::span("hoststack.batch.lookup");
    let mut sr_keys: Vec<Option<(InstanceId, [u8; 4])>> = vec![None; descs.len()];
    for (i, desc) in descs.iter().enumerate() {
        let Some(t) = cpu.tuples[i] else { continue };
        if desc.has_sr {
            // Already labelled — leave as is (same as the serial path).
            continue;
        }
        let instance = *cpu
            .inf_cache
            .entry(t)
            .or_insert_with(|| maps.inf_map.lookup(&t));
        let Some(instance) = instance else { continue };
        summary.attributed += 1;
        cpu.stats.attributed += 1;
        let key = (instance, t.dst_ip);
        let hops = cpu
            .path_cache
            .entry(key)
            .or_insert_with(|| maps.path_map.lookup(&key));
        if hops.as_ref().is_some_and(|h| h.len() <= MAX_HOPS) {
            sr_keys[i] = Some(key);
        }
    }
    drop(lookup);

    // --- Stage 3: vectorized SR insertion ---
    let sr_span = megate_obs::span("hoststack.batch.sr");
    let plans: Vec<Option<&[u32]>> = sr_keys
        .iter()
        .map(|k| k.and_then(|key| cpu.path_cache.get(&key).and_then(|v| v.as_deref())))
        .collect();
    // All plan targets were pre-validated above, so this cannot fail.
    let inserted = batch
        .apply_sr(descs, &plans)
        .expect("pre-validated SR plans");
    summary.sr_inserted = inserted;
    cpu.stats.sr_inserted += inserted as u64;
    for key in sr_keys.into_iter().flatten() {
        let hops = cpu.path_cache[&key].as_ref().map_or(0, Vec::len);
        cpu.events.push(crate::ringbuf::TelemetryEvent::SrInserted {
            instance: key.0,
            hops: hops as u8,
        });
    }
    drop(sr_span);
    summary
}

/// The TC ingress program at the destination host: if the frame carries
/// a (fully walked) MegaTE SR header, strip it and clear the VXLAN flag
/// so the guest sees a standard VXLAN frame; also bill ingress traffic
/// so both ends report the flow.
pub fn tc_ingress_chain(
    maps: &HostMaps,
    frame: &mut Vec<u8>,
    stats: &mut TcStats,
) -> WireResult<TcVerdict> {
    let parsed = parse_megate_frame(frame)?;
    if let FlowKey::Tuple { tuple, .. } = parsed.inner_flow {
        if maps
            .traffic_map
            .upsert_with(tuple, 0, |v| *v += parsed.inner_ip_len as u64)
            .is_err()
        {
            stats.accounting_misses += 1;
            maps.tc_metrics.accounting_misses.inc();
        }
    }
    if parsed.sr.is_some() {
        megate_packet::strip_sr_header(frame)?;
        return Ok(TcVerdict::PassWithSr); // SR was present and removed
    }
    Ok(TcVerdict::Pass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use megate_packet::{MegaTeFrameSpec, Proto};

    fn tuple() -> FiveTuple {
        FiveTuple {
            src_ip: [172, 16, 0, 2],
            dst_ip: [172, 31, 0, 9],
            proto: Proto::Udp,
            src_port: 9999,
            dst_port: 53,
        }
    }

    #[test]
    fn fragmented_datagram_billed_to_one_tuple() {
        let maps = HostMaps::new();
        let mut stats = TcStats::default();
        // First fragment (offset 0, MF set).
        let mut spec = MegaTeFrameSpec::simple(tuple(), 3, None);
        spec.inner_ipid = 0xAA55;
        spec.inner_fragment = (0, true);
        spec.payload_len = 100;
        let mut f1 = spec.build();
        tc_egress_chain(&maps, &mut f1, &mut stats).unwrap();
        // Second fragment (offset > 0) — no ports inside.
        let mut spec2 = MegaTeFrameSpec::simple(tuple(), 3, None);
        spec2.inner_ipid = 0xAA55;
        spec2.inner_fragment = (1480, false);
        spec2.payload_len = 60;
        let mut f2 = spec2.build();
        tc_egress_chain(&maps, &mut f2, &mut stats).unwrap();

        assert_eq!(stats.fragments_resolved, 1);
        let total = maps.traffic_map.lookup(&tuple()).unwrap();
        // Both fragments' inner IP lengths accumulate on the same tuple.
        assert!(total > 160, "total {total}");
        assert_eq!(maps.traffic_map.len(), 1);
    }

    #[test]
    fn orphan_fragment_counts_as_miss() {
        let maps = HostMaps::new();
        let mut stats = TcStats::default();
        let mut spec = MegaTeFrameSpec::simple(tuple(), 3, None);
        spec.inner_ipid = 0x0101;
        spec.inner_fragment = (2960, false);
        let mut f = spec.build();
        tc_egress_chain(&maps, &mut f, &mut stats).unwrap();
        assert_eq!(stats.accounting_misses, 1);
        assert!(maps.traffic_map.is_empty());
    }

    #[test]
    fn no_path_means_plain_pass_but_attribution_counted() {
        let maps = HostMaps::new();
        let mut stats = TcStats::default();
        on_execve(&maps, Pid(5), InstanceId(99)).unwrap();
        on_conntrack(&maps, Pid(5), tuple()).unwrap();
        let mut f = MegaTeFrameSpec::simple(tuple(), 3, None).build();
        let v = tc_egress_chain(&maps, &mut f, &mut stats).unwrap();
        assert_eq!(v, TcVerdict::Pass);
        assert_eq!(stats.attributed, 1);
    }

    #[test]
    fn full_traffic_map_never_blocks_forwarding() {
        let maps = HostMaps {
            traffic_map: EbpfMap::new("tiny", 1),
            ..HostMaps::new()
        };
        let mut stats = TcStats::default();
        let mut t2 = tuple();
        t2.src_port = 1;
        let mut f1 = MegaTeFrameSpec::simple(tuple(), 3, None).build();
        let mut f2 = MegaTeFrameSpec::simple(t2, 3, None).build();
        assert_eq!(
            tc_egress_chain(&maps, &mut f1, &mut stats).unwrap(),
            TcVerdict::Pass
        );
        assert_eq!(
            tc_egress_chain(&maps, &mut f2, &mut stats).unwrap(),
            TcVerdict::Pass
        );
        assert_eq!(stats.accounting_misses, 1); // second flow not billed
    }

    #[test]
    fn telemetry_ring_sees_flow_and_sr_events() {
        let maps = HostMaps::new();
        let mut stats = TcStats::default();
        on_execve(&maps, Pid(5), InstanceId(99)).unwrap();
        on_conntrack(&maps, Pid(5), tuple()).unwrap();
        maps.path_map
            .update((InstanceId(99), tuple().dst_ip), vec![1, 2])
            .unwrap();

        let mut f = MegaTeFrameSpec::simple(tuple(), 3, None).build();
        tc_egress_chain(&maps, &mut f, &mut stats).unwrap();
        // Second frame of the same flow: no NewFlow event.
        let mut f2 = MegaTeFrameSpec::simple(tuple(), 3, None).build();
        tc_egress_chain(&maps, &mut f2, &mut stats).unwrap();

        let events = maps.telemetry.drain();
        let new_flows = events
            .iter()
            .filter(|e| matches!(e, crate::ringbuf::TelemetryEvent::NewFlow { .. }))
            .count();
        let sr = events
            .iter()
            .filter(|e| matches!(e, crate::ringbuf::TelemetryEvent::SrInserted { .. }))
            .count();
        assert_eq!(new_flows, 1, "one NewFlow for two frames of one flow");
        assert_eq!(sr, 2, "every labelled frame reports an SR insertion");
    }

    #[test]
    fn sr_not_reinserted_when_already_present() {
        let maps = HostMaps::new();
        let mut stats = TcStats::default();
        on_execve(&maps, Pid(5), InstanceId(99)).unwrap();
        on_conntrack(&maps, Pid(5), tuple()).unwrap();
        maps.path_map
            .update((InstanceId(99), tuple().dst_ip), vec![1])
            .unwrap();
        let mut f = MegaTeFrameSpec::simple(tuple(), 3, Some(vec![7, 8])).build();
        let v = tc_egress_chain(&maps, &mut f, &mut stats).unwrap();
        assert_eq!(v, TcVerdict::Pass);
        let parsed = parse_megate_frame(&f).unwrap();
        assert_eq!(parsed.sr.unwrap().1, vec![7, 8], "original SR kept");
    }
}
