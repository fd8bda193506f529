//! Automated data-server failover for replicated segment homes.
//!
//! Data servers beacon one another with RaTP heartbeats
//! ([`RatpNode::send_heartbeat`]) on a fixed real-time tick. Each tick
//! also charges the node's virtual clock one beacon interval: an
//! otherwise idle system (zero cost model, no workload traffic) would
//! never advance virtual time, and a failure detector that compares
//! virtual stamps needs silence to *accumulate*. Because detection runs
//! entirely in virtual time, a monitor thread stalled by a loaded CI
//! machine cannot manufacture silence — real-time stalls simply do not
//! advance the clock.
//!
//! For every replicated segment, the **first backup** (and only it — a
//! single deterministic successor, so two backups never race to promote)
//! watches the primary with a [`FailureDetector`]. When the beacon gap
//! exceeds the budget it double-checks with a bounded verification call:
//! the primary's transport answers even when its own monitor thread is
//! busy, so a merely-slow primary is never deposed. Only then does the
//! backup promote itself — locally first ([`DsmServer::promote_segment`]
//! flips who answers home probes, which is what actually re-homes
//! in-flight client traffic), then in the naming directory, so a later
//! restart of the dead ex-primary resyncs into its demoted role instead
//! of waking up believing it still owns the segment.

use clouds_dsm::proto::{self, DsmRequest};
use clouds_dsm::{ports, DsmServer};
use clouds_naming::NameClient;
use clouds_ra::SysName;
use clouds_ratp::{CallError, FailureDetector, RatpNode};
use clouds_simnet::{NodeId, Vt};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tunables for the failover monitor on a data server. The cadence is
/// fixed (the associated constants); only the jitter allowance varies
/// with the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Worst-case extra delivery delay the detector absorbs (chaos
    /// schedules jitter frames by up to `horizon / 32`).
    pub max_jitter: Vt,
}

impl FailoverConfig {
    /// Virtual-time beacon period; also the quantum charged to the
    /// node's clock per real-time tick.
    pub const BEACON_INTERVAL: Vt = Vt::from_millis(5);
    /// Consecutive beacon losses the detector tolerates.
    pub const MISSED_BEACONS: u64 = 2;
    /// Real-time period of the monitor loop.
    pub const TICK: Duration = Duration::from_millis(5);
    /// Retry budget for the verification call to a suspected-dead
    /// primary. Deliberately small: the call *blocks the monitor loop*,
    /// so its wall time (`VERIFY_RETRIES` × the node's RaTP retry
    /// interval) both delays the promotion and widens the worst-case
    /// measured gap. False-positive safety comes from the silence
    /// re-check after the call, not from a long retry budget.
    pub const VERIFY_RETRIES: u32 = 4;

    /// The fixed cadence sized for `max_jitter` of network delay.
    pub fn for_jitter(max_jitter: Vt) -> FailoverConfig {
        FailoverConfig { max_jitter }
    }

    /// The failure detector this configuration implies.
    pub fn detector(&self) -> FailureDetector {
        FailureDetector::tolerant(Self::BEACON_INTERVAL, Self::MISSED_BEACONS, self.max_jitter)
    }
}

/// Spawn the monitor loop; flipping the returned flag stops it after at
/// most one more tick.
pub(crate) fn spawn_monitor(
    ratp: Arc<RatpNode>,
    dsm: Arc<DsmServer>,
    peers: Vec<NodeId>,
    naming_server: NodeId,
    config: FailoverConfig,
) -> Arc<AtomicBool> {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    std::thread::Builder::new()
        .name(format!("failover-{}", ratp.node_id().0))
        .spawn(move || monitor_loop(&ratp, &dsm, &peers, naming_server, config, &stop_flag))
        .expect("spawn failover monitor");
    stop
}

/// Refresh every replicated segment's membership view from the naming
/// directory. Returns `true` only when every lookup reached a verdict —
/// an adopted set, or `NotFound` for a segment the directory never knew
/// (nothing could have re-homed it through the directory). Any
/// transport failure returns `false`: the caller must keep the server
/// fenced and retry, or a rebooted ex-primary would resume serving on a
/// stale pre-crash view in which it is still primary.
pub(crate) fn refresh_replica_views(dsm: &DsmServer, naming: &NameClient) -> bool {
    let mut all_refreshed = true;
    for (seg, _, _) in dsm.replicated_segments() {
        match naming.lookup_replicas(seg) {
            Ok(set) => {
                let mut members = vec![set.primary_node()];
                members.extend(set.backup_nodes());
                dsm.adopt_replica_config(seg, members, set.epoch);
            }
            Err(clouds_naming::NameError::NotFound(_)) => {}
            Err(_) => all_refreshed = false,
        }
    }
    all_refreshed
}

fn monitor_loop(
    ratp: &Arc<RatpNode>,
    dsm: &Arc<DsmServer>,
    peers: &[NodeId],
    naming_server: NodeId,
    config: FailoverConfig,
    stop: &AtomicBool,
) {
    let detector = config.detector();
    let naming = NameClient::new(ratp, naming_server);
    let gap_hist = ratp.obs().histogram("core.failover.gap");
    let false_alarms = ratp.obs().counter("core.failover.false_alarms");
    let me = ratp.node_id();
    // Promotions applied locally but not yet recorded in the naming
    // directory (its host may be briefly unreachable): retried each tick.
    let mut pending: Vec<(SysName, u64)> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock monitor tick, until it runs on virtual time"
        )]
        std::thread::sleep(FailoverConfig::TICK);
        ratp.clock().charge(FailoverConfig::BEACON_INTERVAL);
        for &peer in peers {
            ratp.send_heartbeat(peer);
        }
        // A restart that could not reach the directory leaves the
        // server fenced ([`crate::node::DataServer::resync_replicas`]);
        // finish the resync here, where naming calls are already
        // retried every tick. While fenced, skip the promotion sweep
        // too — promoting on a stale pre-crash view could depose the
        // wrong node.
        if dsm.is_recovering() {
            // A wiped-but-not-replayed store means the machine has not
            // rebooted yet: its replica map is empty placeholder state,
            // and "refreshing" zero segments must not lift the fence.
            // Replay is the restart path's job; stand by until then.
            if dsm.needs_replay() || !refresh_replica_views(dsm, &naming) {
                continue;
            }
            dsm.finish_recovery();
        }
        let now = ratp.clock().now();
        for (seg, members, epoch) in dsm.replicated_segments() {
            if members.get(1) != Some(&me) {
                continue; // only the first backup may promote
            }
            let primary = members[0];
            let last = ratp.last_heartbeat(primary);
            if !detector.is_dead(last, now) {
                continue;
            }
            if verify_alive(ratp, primary, seg, FailoverConfig::VERIFY_RETRIES) {
                false_alarms.inc();
                continue;
            }
            // Second chance: the verify call burned several retry
            // intervals of real time. A live primary that merely lost a
            // beacon run to a lossy link will almost surely have landed
            // a fresh one meanwhile; a dead one stays silent. Requiring
            // the silence to *persist* through verification makes a
            // false promotion need an unbroken loss streak across both
            // windows — vanishingly unlikely even at chaos loss rates.
            if ratp.last_heartbeat(primary) > last {
                false_alarms.inc();
                continue;
            }
            // The availability gap this failover leaves: virtual silence
            // observed at the detection decision. Bounded by the
            // detector budget plus one verification window (a preceding
            // verify may have delayed this tick) plus a tick's quantum
            // of granularity; total unavailability adds the final
            // verification window on top.
            gap_hist.record(last.map_or(Vt::ZERO, |l| now.saturating_sub(l)));
            let next_epoch = epoch + 1;
            if dsm.promote_segment(seg, next_epoch).is_ok() {
                pending.push((seg, next_epoch));
            }
        }
        pending.retain(|&(seg, epoch)| match naming.promote(seg, me, epoch) {
            Ok(_) => false,
            // Never registered with the directory: nothing to re-home.
            Err(clouds_naming::NameError::NotFound(_)) => false,
            Err(_) => true, // directory unreachable: retry next tick
        });
    }
}

/// Is the suspected primary actually answering? Any reply — even an
/// error — proves the node's transport is alive, in which case the
/// silence was a beacon pathology and promotion would be a split brain.
fn verify_alive(ratp: &Arc<RatpNode>, primary: NodeId, seg: SysName, retries: u32) -> bool {
    match ratp.call_with_budget(
        primary,
        ports::DSM_SERVER,
        proto::encode(&DsmRequest::SegmentLen { seg }),
        retries,
    ) {
        Ok(_) | Err(CallError::ServiceNotFound(_)) => true,
        Err(_) => false,
    }
}
