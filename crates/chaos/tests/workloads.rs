//! Whole-system chaos workloads: each test runs a real workload on a
//! freshly booted system while a seeded [`FaultSchedule`] crashes nodes,
//! opens partitions and degrades links, then checks system-wide
//! invariants after the schedule heals. Failures panic with a seed that
//! replays the exact schedule (`CHAOS_SEED=0x… cargo test -p
//! clouds-chaos <test>`).
//!
//! Tuning via environment: `CHAOS_SCHEDULES` (runs per workload),
//! `CHAOS_SEED` (replay one), `CHAOS_HORIZON_MS`, `CHAOS_BASE_SEED`.

#![allow(
    clippy::disallowed_methods,
    reason = "fault schedules are paced, and convergence awaited, in real time"
)]

use clouds::prelude::*;
use clouds::{decode_args, encode_result};
use clouds_chaos::{arm_flight_recorder, run_chaos, ChaosConfig, Pacer};
use clouds_consistency::{ConsistencyRuntime, CpOptions};
use clouds_pet::{resilient_invoke, PetOptions, ReplicatedObject};
use clouds_ratp::RatpConfig;
use clouds_simnet::{CostModel, FaultSchedule, Network, NodeId};
use std::time::Duration;

/// Real-time budget the pacer gets to sweep one schedule to its horizon.
const PACER_BUDGET: Duration = Duration::from_millis(250);

/// Server RaTP settings with a starvation-proof failure detector. The
/// default ~3 s retransmission budget doubles as "the peer is dead":
/// on an oversubscribed host (CI runners, `cargo test --workspace` on a
/// small machine) a merely *starved* thread can stay silent that long,
/// the DSM then reclaims its dirty page and a committed update is
/// clobbered — a genuine availability-over-consistency trade that chaos
/// runs must not trip by accident. Schedules heal within
/// [`PACER_BUDGET`] of real time, so the longer budget never slows a
/// healthy run; it only raises the bar for declaring a node dead.
fn patient_ratp() -> RatpConfig {
    RatpConfig {
        retry_interval: Duration::from_millis(15),
        max_retries: 800,
    }
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// Workload 1: ledger records through the consistency runtime.
// Invariant family: committed-durable / uncommitted-invisible.
// ---------------------------------------------------------------------------

/// The full_system ledger, reduced to its essentials: a persistent
/// linked list plus a count, written under gcp semantics.
struct Ledger;

impl ObjectCode for Ledger {
    fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
        ctx.persistent().write_u64(0, 0)
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "record" => {
                let (item, qty): (String, u64) = decode_args(args)?;
                let count = ctx.persistent().read_u64(0)?;
                let node = ctx.persistent().heap_alloc(64)?;
                let head = ctx.persistent().read_u64(8)?;
                let encoded = clouds_codec::to_bytes(&(item, qty))
                    .map_err(|e| CloudsError::BadArguments(e.to_string()))?;
                ctx.persistent()
                    .heap_write(node, &(encoded.len() as u64).to_le_bytes())?;
                ctx.persistent().heap_write(node + 8, &encoded)?;
                ctx.persistent()
                    .heap_write(node + 48, &head.to_le_bytes())?;
                ctx.persistent().write_u64(8, node)?;
                ctx.persistent().write_u64(0, count + 1)?;
                encode_result(&(count + 1))
            }
            "count" => encode_result(&ctx.persistent().read_u64(0)?),
            "dump" => {
                let mut items: Vec<(String, u64)> = Vec::new();
                let mut cursor = ctx.persistent().read_u64(8)?;
                while cursor != 0 {
                    // A list torn by a lost update can loop back on
                    // itself; report it instead of walking it forever
                    // (and collecting items until the host runs out of
                    // memory).
                    if items.len() > 64 {
                        return Err(CloudsError::Application(
                            "ledger list does not terminate".into(),
                        ));
                    }
                    let len = u64::from_le_bytes(
                        ctx.persistent()
                            .heap_read(cursor, 8)?
                            .try_into()
                            .expect("8"),
                    );
                    let raw = ctx.persistent().heap_read(cursor + 8, len as usize)?;
                    items.push(
                        clouds_codec::from_bytes(&raw)
                            .map_err(|e| CloudsError::BadArguments(e.to_string()))?,
                    );
                    cursor = u64::from_le_bytes(
                        ctx.persistent()
                            .heap_read(cursor + 48, 8)?
                            .try_into()
                            .expect("8"),
                    );
                }
                encode_result(&items)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn label(&self, entry: &str) -> OperationLabel {
        match entry {
            "record" => OperationLabel::Gcp,
            _ => OperationLabel::S,
        }
    }
}

#[test]
fn ledger_commits_survive_chaos() {
    let cfg = ChaosConfig::from_env(13);
    // 2 compute servers + 2 data servers, all crashable.
    let nodes = [NodeId(1), NodeId(2), NodeId(100), NodeId(101)];
    run_chaos("ledger", &cfg, &nodes, |schedule: &FaultSchedule| {
        let cluster = Cluster::builder()
            .compute_servers(2)
            .data_servers(2)
            .workstations(0)
            .cost_model(CostModel::zero())
            .seed(schedule.seed)
            .server_ratp_config(patient_ratp())
            .build()
            .map_err(err("cluster boot"))?;
        arm_flight_recorder(cluster.trace_sink().clone(), cluster.registries());
        cluster
            .register_class("ledger", Ledger)
            .map_err(err("register class"))?;
        let runtime = ConsistencyRuntime::install(&cluster);
        let obj = cluster
            .create_object("ledger", "ChaosLedger")
            .map_err(err("create object"))?;

        let net = cluster.network().clone();
        net.set_schedule(schedule);
        let pacer = Pacer::drive(&net, cfg.horizon, PACER_BUDGET);

        // Short lock waits and few retries: a record blocked by a fault is
        // allowed to fail — the invariants cover both outcomes.
        let opts = CpOptions {
            lock_wait_ms: 150,
            max_retries: 3,
        };
        let mut attempted = Vec::new();
        let mut confirmed = Vec::new();
        for i in 0..5u64 {
            let item = format!("item-{i}");
            attempted.push(item.clone());
            let args = clouds::encode_args(&(item.clone(), i + 1)).map_err(err("encode"))?;
            if runtime
                .invoke(
                    cluster.compute((i % 2) as usize),
                    OperationLabel::Gcp,
                    obj,
                    "record",
                    &args,
                    &opts,
                )
                .is_ok()
            {
                confirmed.push(item);
            }
        }
        pacer.finish();

        // Post-heal reads are S-labeled (no locks) and must succeed.
        let unit = clouds::encode_args(&()).map_err(err("encode"))?;
        let dump: Vec<(String, u64)> = decode_args(
            &cluster
                .compute(0)
                .invoke(obj, "dump", &unit, None)
                .map_err(err("post-heal dump"))?,
        )
        .map_err(err("decode dump"))?;
        let count: u64 = decode_args(
            &cluster
                .compute(0)
                .invoke(obj, "count", &unit, None)
                .map_err(err("post-heal count"))?,
        )
        .map_err(err("decode count"))?;

        // Invariants: the count matches the list; no record is ever
        // duplicated; every confirmed record is durable; nothing appears
        // that was never attempted.
        if count as usize != dump.len() {
            return Err(format!(
                "count {count} disagrees with dump length {} — torn commit",
                dump.len()
            ));
        }
        let names: Vec<&String> = dump.iter().map(|(n, _)| n).collect();
        for name in &names {
            if names.iter().filter(|n| ***n == **name).count() > 1 {
                return Err(format!("record {name} appears more than once"));
            }
            if !attempted.contains(name) {
                return Err(format!("phantom record {name} was never attempted"));
            }
        }
        for item in &confirmed {
            if !names.contains(&item) {
                return Err(format!("confirmed record {item} lost after heal"));
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Workload 2: DSM writers on dedicated pages.
// Invariant family: one-copy semantics + no lost write-backs.
// ---------------------------------------------------------------------------

mod dsm_bed {
    use clouds_dsm::{DsmClientPartition, DsmServer};
    use clouds_ra::{AddressSpace, PageCache, Partition};
    use clouds_ratp::{RatpConfig, RatpNode};
    use clouds_simnet::{Network, NodeId};
    use std::sync::Arc;
    use std::time::Duration;

    pub fn server(net: &Network, id: NodeId) -> Arc<DsmServer> {
        let ratp = RatpNode::spawn(
            net.register(id).expect("register data server"),
            // Same starvation-proof budget as `patient_ratp`: recalls
            // must not declare a starved writer dead on a loaded host.
            RatpConfig {
                retry_interval: Duration::from_millis(15),
                max_retries: 800,
            },
        );
        DsmServer::install(&ratp)
    }

    pub fn client(net: &Network, id: NodeId, data: Vec<NodeId>) -> Arc<DsmClientPartition> {
        client_with_frames(net, id, data, 16)
    }

    /// [`client`] with a page cache of `frames` frames.
    pub fn client_with_frames(
        net: &Network,
        id: NodeId,
        data: Vec<NodeId>,
        frames: usize,
    ) -> Arc<DsmClientPartition> {
        let cfg = RatpConfig {
            retry_interval: Duration::from_millis(5),
            max_retries: 2_400,
        };
        install(net, id, data, cfg, frames)
    }

    pub fn client_with(
        net: &Network,
        id: NodeId,
        data: Vec<NodeId>,
        cfg: RatpConfig,
    ) -> Arc<DsmClientPartition> {
        install(net, id, data, cfg, 16)
    }

    fn install(
        net: &Network,
        id: NodeId,
        data: Vec<NodeId>,
        cfg: RatpConfig,
        frames: usize,
    ) -> Arc<DsmClientPartition> {
        let ratp = RatpNode::spawn(net.register(id).expect("register client"), cfg);
        DsmClientPartition::install(&ratp, Arc::new(PageCache::new(frames)), data)
    }

    /// Counter `name` in `obs`'s node registry.
    pub fn counted(obs: &clouds_obs::NodeObs, name: &str) -> u64 {
        obs.registry().counter_value(name)
    }

    pub fn space(
        part: &Arc<DsmClientPartition>,
        seg: clouds_ra::SysName,
        pages: u64,
    ) -> AddressSpace {
        let mut s = AddressSpace::new(
            Arc::clone(part.cache()),
            Arc::clone(part) as Arc<dyn Partition>,
        );
        s.map(0, seg, 0, pages * clouds_ra::PAGE_SIZE as u64, true)
            .expect("map segment");
        s
    }
}

#[test]
fn dsm_writes_survive_chaos() {
    use clouds_ra::{Partition as _, PAGE_SIZE};
    let cfg = ChaosConfig::from_env(13);
    const WRITERS: usize = 2;
    const ROUNDS: u64 = 8;
    let data_node = NodeId(100);
    // Writers and the data server are all crashable.
    let nodes = [NodeId(1), NodeId(2), data_node];
    run_chaos("dsm", &cfg, &nodes, |schedule: &FaultSchedule| {
        let net = Network::with_seed(CostModel::zero(), schedule.seed);
        let server = dsm_bed::server(&net, data_node);
        let seg = SysName::from_parts(31, 1);
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| dsm_bed::client(&net, NodeId(1 + w as u32), vec![data_node]))
            .collect();
        writers[0]
            .create_segment(seg, WRITERS as u64 * PAGE_SIZE as u64)
            .map_err(err("create segment"))?;
        let spaces: Vec<_> = writers
            .iter()
            .map(|c| dsm_bed::space(c, seg, WRITERS as u64))
            .collect();

        net.set_schedule(schedule);
        let pacer = Pacer::drive(&net, cfg.horizon, PACER_BUDGET);

        // Each writer owns one page and writes strictly increasing round
        // numbers, confirming durability with an explicit flush. A write
        // or flush interrupted by a fault is allowed to fail.
        let mut attempted = [0u64; WRITERS];
        let mut confirmed = [0u64; WRITERS];
        let mut confirmed_flushes = 0u64;
        for round in 1..=ROUNDS {
            for (w, space) in spaces.iter().enumerate() {
                let addr = w as u64 * PAGE_SIZE as u64;
                if space.write_u64(addr, round).is_ok() {
                    attempted[w] = round;
                    if space.flush().is_ok() {
                        confirmed[w] = round;
                        confirmed_flushes += 1;
                    }
                }
            }
        }
        pacer.finish();

        // Two fresh clients: every page readable, both agree (one-copy),
        // and the value is the last confirmed write or a later attempted
        // one — never older than confirmed, never invented.
        let fresh_a = dsm_bed::client(&net, NodeId(11), vec![data_node]);
        let fresh_b = dsm_bed::client(&net, NodeId(12), vec![data_node]);
        let sa = dsm_bed::space(&fresh_a, seg, WRITERS as u64);
        let sb = dsm_bed::space(&fresh_b, seg, WRITERS as u64);
        for w in 0..WRITERS {
            let addr = w as u64 * PAGE_SIZE as u64;
            let va = sa.read_u64(addr).map_err(err("post-heal read"))?;
            if va < confirmed[w] || va > attempted[w] {
                return Err(format!(
                    "page {w}: read {va}, confirmed {} attempted {} — lost write-back",
                    confirmed[w], attempted[w]
                ));
            }
            let vb = sb.read_u64(addr).map_err(err("post-heal read"))?;
            if vb != va {
                return Err(format!(
                    "page {w}: fresh clients disagree ({va} vs {vb}) — one-copy violated"
                ));
            }
        }
        // Exclusive-ownership probe: the directory must still be able to
        // reclaim every page for a new exclusive writer.
        for w in 0..WRITERS {
            let addr = w as u64 * PAGE_SIZE as u64;
            let probe = 1_000 + w as u64;
            sa.write_u64(addr, probe).map_err(err("post-heal write"))?;
            sa.flush().map_err(err("post-heal flush"))?;
            let got = sb.read_u64(addr).map_err(err("post-heal read"))?;
            if got != probe {
                return Err(format!(
                    "page {w}: probe write read back {got}, want {probe} — stale exclusive copy"
                ));
            }
        }
        // Stats cross-check: every confirmed flush put a dirty page on
        // the server, so the server must account at least that many
        // write-backs.
        let write_backs = dsm_bed::counted(server.obs(), "dsm.server.write_backs");
        if write_backs < confirmed_flushes {
            return Err(format!(
                "server write_backs {write_backs} < confirmed flushes {confirmed_flushes}"
            ));
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Workload 2b: DSM sequential scanner with read-ahead vs a batch-flushing
// writer. Invariant family: one-copy semantics under speculative grants +
// no lost write-backs through `WriteBackBatch`.
// ---------------------------------------------------------------------------

#[test]
fn dsm_read_ahead_scan_survives_chaos() {
    use clouds_ra::{Partition as _, PAGE_SIZE};
    let cfg = ChaosConfig::from_env(21);
    const PAGES: u64 = 16;
    const ROUNDS: u64 = 6;
    let data_node = NodeId(100);
    let nodes = [NodeId(1), NodeId(2), data_node];
    run_chaos("dsm-scan", &cfg, &nodes, |schedule: &FaultSchedule| {
        let net = Network::with_seed(CostModel::zero(), schedule.seed);
        let server = dsm_bed::server(&net, data_node);
        let seg = SysName::from_parts(31, 2);
        let writer = dsm_bed::client(&net, NodeId(1), vec![data_node]);
        // The scanner's cache holds 6 of the 16 pages — less than one
        // read-ahead window — so every sweep runs the full-cache path:
        // make room, ask only for what fits, and ship the victims'
        // releases on the fetch, whose retransmissions under loss and
        // duplication must re-apply that list harmlessly.
        let scanner = dsm_bed::client_with_frames(&net, NodeId(2), vec![data_node], 6);
        writer
            .create_segment(seg, PAGES * PAGE_SIZE as u64)
            .map_err(err("create segment"))?;
        let ws = dsm_bed::space(&writer, seg, PAGES);
        let ss = dsm_bed::space(&scanner, seg, PAGES);

        net.set_schedule(schedule);
        let pacer = Pacer::drive(&net, cfg.horizon, PACER_BUDGET);

        // The writer stamps every page with `round*1000 + page` and
        // flushes the whole set — a coalesced `WriteBackBatch` when more
        // than one write landed. The scanner then sweeps the segment
        // sequentially, so its faults ride the read-ahead window and the
        // server's speculative multi-page grants race the writer's
        // recalls. Every observed value must decode to a round between
        // the page's last confirmed flush and its last applied write.
        let mut attempted = [0u64; PAGES as usize];
        let mut confirmed = [0u64; PAGES as usize];
        let mut confirmed_batch_flushes = 0u64;
        for round in 1..=ROUNDS {
            let mut wrote = Vec::new();
            for page in 0..PAGES {
                let addr = page * PAGE_SIZE as u64;
                if ws.write_u64(addr, round * 1000 + page).is_ok() {
                    attempted[page as usize] = round;
                    wrote.push(page as usize);
                }
            }
            if !wrote.is_empty() && ws.flush().is_ok() {
                for &page in &wrote {
                    confirmed[page] = round;
                }
                if wrote.len() > 1 {
                    confirmed_batch_flushes += 1;
                }
            }
            for page in 0..PAGES {
                let Ok(v) = ss.read_u64(page * PAGE_SIZE as u64) else {
                    break; // fault mid-scan: sequentiality is gone anyway
                };
                let (r, p) = (v / 1000, v % 1000);
                if v != 0 && p != page {
                    return Err(format!("page {page}: read foreign stamp {v}"));
                }
                if r < confirmed[page as usize] || r > attempted[page as usize] {
                    return Err(format!(
                        "page {page}: scanner read round {r}, confirmed {} attempted {} \
                         — speculative grant leaked a stale or lost page",
                        confirmed[page as usize], attempted[page as usize]
                    ));
                }
            }
        }
        pacer.finish();

        // Post-heal: two fresh clients sweep sequentially (read-ahead
        // engages from page 1) and must agree page-for-page on a value
        // inside the [confirmed, attempted] window.
        let fresh_a = dsm_bed::client_with_frames(&net, NodeId(11), vec![data_node], 6);
        let fresh_b = dsm_bed::client(&net, NodeId(12), vec![data_node]);
        let sa = dsm_bed::space(&fresh_a, seg, PAGES);
        let sb = dsm_bed::space(&fresh_b, seg, PAGES);
        for page in 0..PAGES {
            let addr = page * PAGE_SIZE as u64;
            let va = sa.read_u64(addr).map_err(err("post-heal read"))?;
            let r = va / 1000;
            if r < confirmed[page as usize] || r > attempted[page as usize] {
                return Err(format!(
                    "page {page}: post-heal round {r}, confirmed {} attempted {} — lost write-back",
                    confirmed[page as usize], attempted[page as usize]
                ));
            }
            let vb = sb.read_u64(addr).map_err(err("post-heal read"))?;
            if vb != va {
                return Err(format!(
                    "page {page}: fresh clients disagree ({va} vs {vb}) — one-copy violated"
                ));
            }
        }
        // The sweep above was sequential from a cold cache, so the
        // read-ahead detector must have fired at least once.
        let cache = fresh_a.cache().stats();
        if cache.prefetch_installs == 0 {
            return Err(format!("fresh sequential sweep never batched: {cache:?}"));
        }
        // Its cache is as small as the scanner's, so past the sixth
        // page the sweep evicted, and those releases rode on fetches.
        if dsm_bed::counted(fresh_a.obs(), "dsm.client.releases_piggybacked") == 0 {
            return Err("cache-bound sweep never released on a fetch".into());
        }
        // Stats cross-check: every confirmed multi-page flush went out as
        // a coalesced batch the server accounted for.
        let batch_write_backs = dsm_bed::counted(server.obs(), "dsm.server.batch_write_backs");
        if batch_write_backs < confirmed_batch_flushes {
            return Err(format!(
                "server batch_write_backs {batch_write_backs} < confirmed batch flushes \
                 {confirmed_batch_flushes}"
            ));
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Workload 3: PET resilient invocations on a replicated object.
// Invariant family: quorum commit + replica agreement.
// ---------------------------------------------------------------------------

/// Replicated tally whose whole state lives in one page, so every commit
/// propagates the complete state and any torn page image is detectable:
/// offset 0 = sum, offset 8 = op count, offsets 16.. = op ids.
struct Tally;

impl ObjectCode for Tally {
    fn construct(&self, ctx: &mut Invocation<'_>) -> Result<(), CloudsError> {
        ctx.persistent().write_u64(0, 0)?;
        ctx.persistent().write_u64(8, 0)
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "apply" => {
                let (id, qty): (u64, u64) = decode_args(args)?;
                let sum = ctx.persistent().read_u64(0)?;
                let n = ctx.persistent().read_u64(8)?;
                ctx.persistent().write_u64(16 + n * 8, id)?;
                ctx.persistent().write_u64(8, n + 1)?;
                ctx.persistent().write_u64(0, sum + qty)?;
                encode_result(&(sum + qty))
            }
            "peek" => {
                let sum = ctx.persistent().read_u64(0)?;
                let n = ctx.persistent().read_u64(8)?;
                let mut ids = Vec::new();
                for i in 0..n {
                    ids.push(ctx.persistent().read_u64(16 + i * 8)?);
                }
                encode_result(&(sum, ids))
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }

    fn label(&self, entry: &str) -> OperationLabel {
        match entry {
            "apply" => OperationLabel::Gcp,
            _ => OperationLabel::S,
        }
    }
}

#[test]
fn pet_replicas_agree_after_chaos() {
    let cfg = ChaosConfig::from_env(13);
    // Only data servers are crashable: a compute server that dies while
    // holding replica locks can never release them (no lock leases yet),
    // which would wedge the workload rather than test it.
    let nodes = [NodeId(100), NodeId(101), NodeId(102)];
    run_chaos("pet", &cfg, &nodes, |schedule: &FaultSchedule| {
        let cluster = Cluster::builder()
            .compute_servers(3)
            .data_servers(3)
            .workstations(0)
            .cost_model(CostModel::zero())
            .seed(schedule.seed)
            .server_ratp_config(patient_ratp())
            .build()
            .map_err(err("cluster boot"))?;
        arm_flight_recorder(cluster.trace_sink().clone(), cluster.registries());
        cluster
            .register_class("tally", Tally)
            .map_err(err("register class"))?;
        let _runtime = ConsistencyRuntime::install(&cluster);
        let robj =
            ReplicatedObject::create(cluster.compute(0), "tally", 3).map_err(err("replicate"))?;
        let quorum = robj.degree() / 2 + 1;
        let opts = PetOptions {
            pets: 2,
            write_quorum: None,
            lock_wait_ms: 500,
        };

        let net = cluster.network().clone();
        net.set_schedule(schedule);
        let pacer = Pacer::drive(&net, cfg.horizon, PACER_BUDGET);

        let qty = |id: u64| id + 1;
        let mut attempted = Vec::new();
        for id in 0..3u64 {
            attempted.push(id);
            let args = clouds::encode_args(&(id, qty(id))).map_err(err("encode"))?;
            if let Ok(outcome) = resilient_invoke(cluster.computes(), &robj, "apply", &args, &opts)
            {
                if outcome.committed_replicas.len() < quorum {
                    return Err(format!(
                        "confirmed commit reached only {} replicas (quorum {quorum})",
                        outcome.committed_replicas.len()
                    ));
                }
            }
        }
        pacer.finish();

        // Post-heal, a fault-free resilient invocation must succeed and
        // reach a quorum.
        let final_id = 99u64;
        attempted.push(final_id);
        let args = clouds::encode_args(&(final_id, qty(final_id))).map_err(err("encode"))?;
        let final_outcome = resilient_invoke(cluster.computes(), &robj, "apply", &args, &opts)
            .map_err(err("post-heal resilient invoke"))?;
        if final_outcome.committed_replicas.len() < quorum {
            return Err(format!(
                "post-heal commit reached only {} replicas (quorum {quorum})",
                final_outcome.committed_replicas.len()
            ));
        }

        // Every replica the final commit reached holds the complete state
        // page: internally consistent, no duplicated or phantom ops, and
        // byte-for-byte agreement across the quorum.
        let unit = clouds::encode_args(&()).map_err(err("encode"))?;
        let mut views: Vec<(u64, Vec<u64>)> = Vec::new();
        for &r in &final_outcome.committed_replicas {
            let view: (u64, Vec<u64>) = decode_args(
                &cluster
                    .compute(0)
                    .invoke(robj.replica(r).sysname, "peek", &unit, None)
                    .map_err(err("post-heal peek"))?,
            )
            .map_err(err("decode peek"))?;
            let (sum, ids) = &view;
            let mut dedup = ids.clone();
            dedup.sort_unstable();
            dedup.dedup();
            if dedup.len() != ids.len() {
                return Err(format!("replica {r}: duplicated op ids {ids:?}"));
            }
            for id in ids {
                if !attempted.contains(id) {
                    return Err(format!("replica {r}: phantom op id {id}"));
                }
            }
            if *sum != ids.iter().map(|&id| qty(id)).sum::<u64>() {
                return Err(format!(
                    "replica {r}: sum {sum} inconsistent with ops {ids:?} — torn page"
                ));
            }
            if !ids.contains(&final_id) {
                return Err(format!("replica {r}: missing the post-heal commit"));
            }
            views.push(view);
        }
        if views.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("quorum replicas disagree after heal: {views:?}"));
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Workload 4: raw RaTP transactions.
// Invariant family: at-most-once handler execution.
// ---------------------------------------------------------------------------

#[test]
fn ratp_executes_at_most_once_under_chaos() {
    use bytes::Bytes;
    use clouds_ratp::{RatpConfig, RatpNode, Request};
    use parking_lot::Mutex;
    use std::sync::Arc;

    let cfg = ChaosConfig::from_env(13);
    const PORT: u16 = 40;
    const CALLS: u64 = 30;
    let nodes = [NodeId(1), NodeId(2)];
    run_chaos("ratp", &cfg, &nodes, |schedule: &FaultSchedule| {
        let net = Network::with_seed(CostModel::zero(), schedule.seed);
        let ratp_cfg = RatpConfig {
            retry_interval: Duration::from_millis(5),
            max_retries: 400,
        };
        let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), ratp_cfg.clone());
        let server = RatpNode::spawn(net.register(NodeId(2)).unwrap(), ratp_cfg);
        let executed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&executed);
        server.register_service(PORT, move |req: Request| {
            let id = u64::from_le_bytes(req.payload[..8].try_into().expect("8-byte id"));
            log.lock().push(id);
            Bytes::copy_from_slice(&id.to_le_bytes())
        });

        net.set_schedule(schedule);
        let pacer = Pacer::drive(&net, cfg.horizon, PACER_BUDGET);

        // Each id is sent in exactly one transaction; retransmission,
        // duplication and reordering inside that transaction must never
        // re-execute the handler.
        let mut confirmed = Vec::new();
        for id in 0..CALLS {
            let payload = Bytes::copy_from_slice(&id.to_le_bytes());
            if let Ok(reply) = client.call(NodeId(2), PORT, payload) {
                let echoed = u64::from_le_bytes(reply[..8].try_into().expect("8-byte reply"));
                if echoed != id {
                    return Err(format!(
                        "call {id} answered with {echoed} — crossed replies"
                    ));
                }
                confirmed.push(id);
            }
        }
        pacer.finish();

        // Post-heal the transport must work again.
        let last = 0xFFFFu64;
        client
            .call(NodeId(2), PORT, Bytes::copy_from_slice(&last.to_le_bytes()))
            .map_err(err("post-heal call"))?;

        let log = executed.lock();
        for id in (0..CALLS).chain([last]) {
            let hits = log.iter().filter(|&&e| e == id).count();
            if hits > 1 {
                return Err(format!(
                    "request {id} executed {hits} times — at-most-once broken"
                ));
            }
            if confirmed.contains(&id) && hits == 0 {
                return Err(format!("request {id} confirmed but never executed"));
            }
        }
        for e in log.iter() {
            if *e >= CALLS && *e != last {
                return Err(format!(
                    "phantom request id {e:#x} executed — corrupted frame accepted"
                ));
            }
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Workload 5: replicated segment home, primary data-server crash while a
// seeded schedule degrades every link. Invariant family: committed-durable
// across promotion + bounded availability gap + one-copy after re-homing.
// ---------------------------------------------------------------------------

#[test]
fn dsm_failover_under_data_server_crash() {
    use clouds::node::DataServer;
    use clouds::FailoverConfig;
    use clouds_naming::NameClient;
    use clouds_ra::PAGE_SIZE;
    use clouds_simnet::Vt;
    use std::time::Instant;

    let cfg = ChaosConfig::from_env(13);
    const PAGES: u64 = 2;
    const ROUNDS_BEFORE: u64 = 6;
    const ROUNDS_AFTER: u64 = 4;
    let data_nodes = [NodeId(100), NodeId(101), NodeId(102)];
    let primary = data_nodes[1];
    // Clients ride out any loss window (200 × 5 ms) but abandon a dead
    // home within a second, handing control to the failover retry layer
    // (re-resolve, bounded probes) instead of pinning on the corpse.
    let failover_client = RatpConfig {
        retry_interval: Duration::from_millis(5),
        max_retries: 200,
    };
    // The schedule gets *no* crash-eligible nodes: it degrades links
    // (loss, jitter, reorder, duplication, corruption) while the harness
    // itself reboot-crashes the primary mid-schedule. Schedule-driven
    // crash windows heal within the pacer sweep — faster than the
    // deliberately skeptical verify-before-promote concludes — so a
    // deterministic crash is the only way to pin an actual promotion at
    // every seed; the schedule's job is to make detection, mirroring and
    // re-homing survive hostile links.
    run_chaos("dsm-failover", &cfg, &[], |schedule: &FaultSchedule| {
        let net = Network::with_seed(CostModel::zero(), schedule.seed);
        let sink = std::sync::Arc::new(clouds_obs::TraceSink::default());
        let datas: Vec<DataServer> = data_nodes
            .iter()
            .map(|&node| DataServer::boot(&net, node, patient_ratp(), data_nodes[0], &sink))
            .collect();
        // Beacons are virtual-time stamped; the schedule jitters frames
        // by at most horizon/32, so a detector sized for exactly that
        // jitter never deposes a live primary.
        let failover = FailoverConfig::for_jitter(Vt::from_nanos(cfg.horizon.as_nanos() / 32));
        for (i, ds) in datas.iter().enumerate() {
            let peers: Vec<NodeId> = data_nodes
                .iter()
                .copied()
                .filter(|&n| n != data_nodes[i])
                .collect();
            ds.start_failover(peers, data_nodes[0], failover);
        }

        let writer = dsm_bed::client_with(
            &net,
            NodeId(1),
            data_nodes.to_vec(),
            failover_client.clone(),
        );
        let seg = SysName::from_parts(31, 5);
        let members = [primary, data_nodes[2], data_nodes[0]];
        writer
            .create_replicated_segment(seg, PAGES * PAGE_SIZE as u64, &members)
            .map_err(err("create replicated segment"))?;
        NameClient::new(writer.ratp(), data_nodes[0])
            .register_replicas(seg, members[0], &members[1..])
            .map_err(err("register replicas"))?;
        let space = dsm_bed::space(&writer, seg, PAGES);

        net.set_schedule(schedule);
        let pacer = Pacer::drive(&net, cfg.horizon, PACER_BUDGET);

        // Strictly increasing round numbers per page; an Ok flush is a
        // *commit* — the primary acked only after every replica confirmed
        // the mirrored write-back — and must survive the crash below. A
        // write or flush interrupted by a link fault is allowed to fail.
        let mut attempted = [0u64; PAGES as usize];
        let mut confirmed = [0u64; PAGES as usize];
        for round in 1..=ROUNDS_BEFORE {
            for page in 0..PAGES as usize {
                let addr = page as u64 * PAGE_SIZE as u64;
                if space.write_u64(addr, round).is_ok() {
                    attempted[page] = round;
                    if space.flush().is_ok() {
                        confirmed[page] = round;
                    }
                }
            }
        }

        // Reboot-crash the primary mid-schedule: volatile state (grants,
        // replica views, transport) dies, the store survives.
        datas[1].crash(&net);

        // Ride-through read while links are still hostile: a fresh
        // client's probes must find the promoted backup and serve every
        // committed byte — the availability gap is the failover budget,
        // not "until someone restarts the machine".
        let rider = dsm_bed::client_with(
            &net,
            NodeId(11),
            data_nodes.to_vec(),
            failover_client.clone(),
        );
        let ride = dsm_bed::space(&rider, seg, PAGES);
        for page in 0..PAGES as usize {
            let addr = page as u64 * PAGE_SIZE as u64;
            let v = ride.read_u64(addr).map_err(err("ride-through read"))?;
            if v < confirmed[page] || v > attempted[page] {
                return Err(format!(
                    "page {page}: ride-through read {v}, confirmed {} attempted {} — \
                     committed write lost across promotion",
                    confirmed[page], attempted[page]
                ));
            }
        }

        pacer.finish();

        // The naming directory must converge on the re-homed set (the
        // monitor retries the directory update each tick; links are
        // healed now, so this is quick).
        let naming = datas[0].naming().expect("node 100 hosts naming");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(set) = naming.replica_set(seg) {
                if set.primary_node() == data_nodes[2] && set.epoch == 2 {
                    break;
                }
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "directory never re-homed to {}: {:?}",
                    data_nodes[2].0,
                    naming.replica_set(seg)
                ));
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        // Reboot the ex-primary: it resyncs its demoted view from the
        // directory before serving again (split-brain prevention), then
        // catches up through mirror pushes as writes resume.
        datas[1].restart(&net);
        let applied = || dsm_bed::counted(datas[1].dsm().obs(), "dsm.server.mirror_applies");
        let applied_before = applied();
        for round in ROUNDS_BEFORE + 1..=ROUNDS_BEFORE + ROUNDS_AFTER {
            for page in 0..PAGES as usize {
                let addr = page as u64 * PAGE_SIZE as u64;
                space
                    .write_u64(addr, round)
                    .map_err(err("post-failover write"))?;
                space.flush().map_err(err("post-failover flush"))?;
                attempted[page] = round;
                confirmed[page] = round;
            }
        }
        if applied() <= applied_before {
            return Err("restarted ex-primary never caught a mirror push".into());
        }
        drop(space);
        drop(writer);

        // One-copy after re-homing: fresh clients agree on every page
        // and an exclusive probe through the new home reaches them all.
        let fresh_a = dsm_bed::client_with(
            &net,
            NodeId(12),
            data_nodes.to_vec(),
            failover_client.clone(),
        );
        let fresh_b = dsm_bed::client_with(
            &net,
            NodeId(13),
            data_nodes.to_vec(),
            failover_client.clone(),
        );
        let sa = dsm_bed::space(&fresh_a, seg, PAGES);
        let sb = dsm_bed::space(&fresh_b, seg, PAGES);
        for (page, &committed) in confirmed.iter().enumerate() {
            let addr = page as u64 * PAGE_SIZE as u64;
            let va = sa.read_u64(addr).map_err(err("post-heal read"))?;
            if va != committed {
                return Err(format!(
                    "page {page}: read {va}, want committed {committed}"
                ));
            }
            let vb = sb.read_u64(addr).map_err(err("post-heal read"))?;
            if vb != va {
                return Err(format!(
                    "page {page}: fresh clients disagree ({va} vs {vb}) — one-copy violated"
                ));
            }
            let probe = 1_000 + page as u64;
            sa.write_u64(addr, probe).map_err(err("post-heal write"))?;
            sa.flush().map_err(err("post-heal flush"))?;
            let got = sb.read_u64(addr).map_err(err("post-heal read"))?;
            if got != probe {
                return Err(format!(
                    "page {page}: probe read back {got}, want {probe} — stale copy after re-homing"
                ));
            }
        }

        // Exactly one promotion happened, on the first backup, and the
        // availability gap it measured stays within the detector budget,
        // plus one verification window (a verify call aborted by a
        // late-landing beacon delays the detection tick by its wall
        // time), plus a few beacon quanta of scan granularity and skew.
        let verify_window = Vt::from_nanos(patient_ratp().retry_interval.as_nanos() as u64)
            .mul(u64::from(FailoverConfig::VERIFY_RETRIES));
        let bound =
            failover.detector().budget() + verify_window + FailoverConfig::BEACON_INTERVAL.mul(6);
        let mut promotions = 0;
        for ds in &datas {
            let gap = ds
                .ratp()
                .obs()
                .registry()
                .histogram_summary("core.failover.gap");
            promotions += gap.count;
            if gap.count > 0 && gap.max > bound {
                return Err(format!(
                    "node {}: availability gap {} exceeds budget bound {bound}",
                    ds.node_id().0,
                    gap.max
                ));
            }
        }
        if promotions != 1 {
            return Err(format!("{promotions} promotions recorded, want exactly 1"));
        }
        for ds in &datas {
            ds.stop_failover();
        }
        Ok(())
    });
}

// ---------------------------------------------------------------------------
// Workload 6: a data server crashes mid-2PC and loses its *entire* memory —
// the append-only log is the only survivor. Invariant family:
// committed-durable from log replay alone + presumed abort for undecided
// intents + one-copy after recovery.
// ---------------------------------------------------------------------------

#[test]
fn data_server_recovers_from_log_mid_commit() {
    use bytes::Bytes;
    use clouds::node::DataServer;
    use clouds_dsm::proto::{self, ports, CommitReply, CommitRequest, WireWriteBack};
    use clouds_dsm::{LockMode, LockOutcome, LockReply, LockRequest};
    use clouds_ra::{Partition as _, PAGE_SIZE};

    let cfg = ChaosConfig::from_env(13);
    const PAGES: u64 = 2;
    const TXNS_BEFORE: u64 = 5;
    let data_nodes = [NodeId(100), NodeId(101)];
    let home = data_nodes[1]; // participant homing the segment (crash target)
                              // Like workload 5, the schedule gets no crash-eligible nodes: it
                              // degrades every link while the harness reboot-crashes the
                              // participant at the worst moment — after the commit decision is
                              // durable but before the Commit message lands.
    run_chaos("dsm-recovery", &cfg, &[], |schedule: &FaultSchedule| {
        let net = Network::with_seed(CostModel::zero(), schedule.seed);
        let sink = std::sync::Arc::new(clouds_obs::TraceSink::default());
        let datas: Vec<DataServer> = data_nodes
            .iter()
            .map(|&node| DataServer::boot(&net, node, patient_ratp(), data_nodes[0], &sink))
            .collect();
        // The outcome registry lives on the first data server; the
        // participant under test homes the segment on the second.
        let participant = datas[1].dsm();

        let writer = dsm_bed::client(&net, NodeId(1), vec![home]);
        let seg = SysName::from_parts(31, 6);
        // The poison txn's segment: a prepare that names a page another
        // txn's intent stages resolves that intent first, so two intents
        // never stage one page.
        let poison_seg = SysName::from_parts(31, 7);
        for s in [seg, poison_seg] {
            writer
                .create_segment(s, PAGES * PAGE_SIZE as u64)
                .map_err(err("create segment"))?;
        }

        // The coordinator is the test itself, speaking the 2PC wire
        // protocol through the writer's transport.
        let call = |node: NodeId, req: &CommitRequest| -> Result<CommitReply, String> {
            let payload = Bytes::from(clouds_codec::to_bytes(req).map_err(err("encode 2pc"))?);
            let reply = writer
                .ratp()
                .call(node, ports::COMMIT, payload)
                .map_err(|e| format!("2pc call: {e}"))?;
            clouds_codec::from_bytes(&reply).map_err(err("decode 2pc"))
        };
        let decide = |txn: u64, commit: bool| {
            let settled = vec![];
            CommitRequest::Decide {
                txn,
                commit,
                settled,
            }
        };
        // Every transaction stamps both pages of `seg` with its id: after
        // any recovery the segment must hold exactly the last *decided*
        // transaction's images on every page.
        let images = |seg: SysName, txn: u64| -> Vec<WireWriteBack> {
            (0..PAGES)
                .map(|page| {
                    let mut data = vec![0u8; PAGE_SIZE];
                    data[..8].copy_from_slice(&txn.to_le_bytes());
                    data[8..16].copy_from_slice(&page.to_le_bytes());
                    WireWriteBack {
                        seg,
                        page: page as u32,
                        data: data.into(),
                    }
                })
                .collect()
        };

        net.set_schedule(schedule);
        let pacer = Pacer::drive(&net, cfg.horizon, PACER_BUDGET);

        // Warm-up transactions under hostile links. Any phase may fail;
        // a logged verdict is a *decision* and recovery must honor it,
        // so nothing after this loop depends on which commits landed.
        for txn in 1..=TXNS_BEFORE {
            if !matches!(
                call(
                    home,
                    &CommitRequest::Prepare {
                        txn,
                        pages: images(seg, txn)
                    }
                ),
                Ok(CommitReply::Ok)
            ) {
                continue;
            }
            if !matches!(
                call(data_nodes[0], &decide(txn, true)),
                Ok(CommitReply::Committed)
            ) {
                continue;
            }
            // The writer never faults a page in: it holds no copy, as a
            // `Commit`'s sender must.
            let _ = call(home, &CommitRequest::Commit { txn });
        }

        // The crash transaction: prepared, decided committed — and the
        // participant dies before any Commit message reaches it. Its
        // images must still survive, reconstructed from the intent
        // record in the log plus the registry's verdict.
        let crash_txn = TXNS_BEFORE + 1;
        match call(
            home,
            &CommitRequest::Prepare {
                txn: crash_txn,
                pages: images(seg, crash_txn),
            },
        ) {
            Ok(CommitReply::Ok) => {}
            other => return Err(format!("crash-txn prepare: {other:?}")),
        }
        match call(data_nodes[0], &decide(crash_txn, true)) {
            Ok(CommitReply::Committed) => {}
            other => return Err(format!("crash-txn decide: {other:?}")),
        }
        // A second intent with *no* verdict: recovery decides abort —
        // its poison images must never become visible.
        let poison_txn = crash_txn + 1;
        match call(
            home,
            &CommitRequest::Prepare {
                txn: poison_txn,
                pages: images(poison_seg, 0xDEAD),
            },
        ) {
            Ok(CommitReply::Ok) => {}
            other => return Err(format!("poison prepare: {other:?}")),
        }

        // The machine dies: the log's index, staged transactions,
        // replica views, transport state — all DRAM — are gone. Only the
        // log media survives.
        datas[1].crash(&net);
        if !participant.log().intents().is_empty() {
            return Err("the crash kept the staged table".into());
        }

        // Reboot while links are still hostile: replay is local, and the
        // participant's outcome queries ride the patient transport.
        datas[1].restart(&net);
        let staged = participant.log().intents().len();
        if staged < 2 {
            return Err(format!(
                "replay re-staged {staged} intents, want at least the crash and poison txns"
            ));
        }
        // Touch each segment as a cp-thread's lock does, a shared hold
        // taken with no wait and given back: it resolves the segment's
        // intents, asking the registry over the still hostile links.
        let touch = |seg: SysName| -> Result<(), String> {
            let owner = u64::MAX;
            let acquire = LockRequest::Acquire {
                seg,
                mode: LockMode::Shared,
                owner,
                wait_ms: 0,
            };
            match proto::decode(&participant.serve_lock_wire(&proto::encode(&acquire))) {
                Ok(LockReply::Acquired(LockOutcome::Granted)) => {
                    let release = LockRequest::Release { seg, owner };
                    participant.serve_lock_wire(&proto::encode(&release));
                    Ok(())
                }
                other => Err(format!("touch of {seg}: {other:?}")),
            }
        };
        touch(seg)?;
        touch(poison_seg)?;
        if !participant.log().intents().is_empty() {
            return Err(format!(
                "{} intents still staged after the touches",
                participant.log().intents().len()
            ));
        }
        let stamp = |seg: SysName| {
            let read = participant.log().read_page(seg, 0);
            read.map(|page| page.map(|(_, image)| image[..8].to_vec()))
        };
        if stamp(seg) != Ok(Some(crash_txn.to_le_bytes().to_vec())) {
            return Err(format!(
                "the decided txn is not installed: {:?}",
                stamp(seg)
            ));
        }
        if stamp(poison_seg) != Ok(None) {
            return Err(format!(
                "the undecided txn is installed: {:?}",
                stamp(poison_seg)
            ));
        }
        pacer.finish();

        // Committed-durable from the log alone: both pages hold exactly
        // the decided crash transaction's stamps — not the poison images,
        // not any older round — and two fresh clients agree (one-copy).
        let fresh_a = dsm_bed::client(&net, NodeId(11), vec![home]);
        let fresh_b = dsm_bed::client(&net, NodeId(12), vec![home]);
        let sa = dsm_bed::space(&fresh_a, seg, PAGES);
        let sb = dsm_bed::space(&fresh_b, seg, PAGES);
        for page in 0..PAGES {
            let addr = page * PAGE_SIZE as u64;
            let va = sa.read_u64(addr).map_err(err("post-heal read"))?;
            if va != crash_txn {
                return Err(format!(
                    "page {page}: read txn {va}, want decided txn {crash_txn} — \
                     commit lost (or aborted intent leaked) across the crash"
                ));
            }
            let stamp = sa.read_u64(addr + 8).map_err(err("post-heal read"))?;
            if stamp != page {
                return Err(format!(
                    "page {page}: foreign page stamp {stamp} — torn install"
                ));
            }
            let vb = sb.read_u64(addr).map_err(err("post-heal read"))?;
            if vb != va {
                return Err(format!(
                    "page {page}: fresh clients disagree ({va} vs {vb}) — one-copy violated"
                ));
            }
        }
        let poisoned = dsm_bed::space(&fresh_a, poison_seg, PAGES);
        for page in 0..PAGES {
            let stamp = poisoned
                .read_u64(page * PAGE_SIZE as u64)
                .map_err(err("post-heal read"))?;
            if stamp != 0 {
                return Err(format!(
                    "poison page {page}: read {stamp:#x}, want 0 — an aborted intent leaked"
                ));
            }
        }

        // The recovery actually went through the log: the replay
        // histogram on the crashed node must account the restart.
        let replay = datas[1]
            .ratp()
            .obs()
            .registry()
            .histogram_summary("store.replay");
        if replay.count < 1 {
            return Err("restart never recorded a store.replay sample".into());
        }

        // Finally the *registry host* loses its memory too: the commit
        // decision itself must be reconstructible from its log, and answer
        // a later abort proposal.
        datas[0].crash(&net);
        if !datas[0].dsm().log().outcomes().is_empty() {
            return Err("the registry host's crash kept its outcomes".into());
        }
        datas[0].restart(&net);
        let outcomes = datas[0].dsm().log().outcomes().len();
        if outcomes < 1 {
            return Err(format!(
                "registry host replayed {outcomes} outcomes, want at least the decided txn"
            ));
        }
        match call(data_nodes[0], &decide(crash_txn, false)) {
            Ok(CommitReply::Committed) => {}
            other => {
                return Err(format!(
                    "decided txn {crash_txn} answered {other:?} after registry-host crash"
                ))
            }
        }
        Ok(())
    });
}
