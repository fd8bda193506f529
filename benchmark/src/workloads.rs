//! The five workloads: cluster boot + prewarm, applying one generated
//! op at a public entry point with its result checked against a
//! harness-side model, the closed loop, and the end-of-run checks.

use crate::gen::{
    initial_stamp, initial_value, key_names, page_word, Op, Workload, ACCOUNTS, KV_KEYS,
    OPENING_BALANCE, PAGES_PER_OP, SCAN_PAGES,
};
use crate::objects::{page_checksum, Account, Pages, Session};
use crate::stats::median;
use crate::yardstick::{self, Mix, Reading, Yardstick};
use clouds::prelude::*;
use clouds::OperationLabel;
use clouds_consistency::{ConsistencyRuntime, CpOptions};
use clouds_dsm::ports;
use clouds_simnet::VirtualClock;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// User name of the paging object.
const PAGES_NAME: &str = "pages";
/// Frames of the compute server's cache in the paging workloads: a
/// quarter of the object's 512 pages, so a cyclic scan never hits.
const PAGING_CACHE_FRAMES: usize = 128;

/// Public entry point an op is applied at (the two top rungs of the
/// telescoped trace; the lower rungs live in `trace.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `Workstation::run_wait` (kv, paging) or
    /// `ConsistencyRuntime::invoke` (ledger): what the timed run uses.
    Top,
    /// `ComputeServer::invoke`, as an s-thread.
    Invoke,
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many ops (fixed-count runs: counts repeat exactly).
    Ops(u64),
    /// At the first op boundary past this much wall time.
    After(Duration),
}

impl Stop {
    pub fn reached(self, ops_done: u64, started: Instant) -> bool {
        match self {
            Stop::Ops(n) => ops_done >= n,
            Stop::After(d) => started.elapsed() >= d,
        }
    }
}

/// One booted cluster with its objects and the harness's model of what
/// they must contain.
pub struct Bed {
    pub workload: Workload,
    pub cluster: Cluster,
    pub runtime: Option<Arc<ConsistencyRuntime>>,
    /// User names (kv keys); empty for the other workloads.
    names: Vec<String>,
    objects: Vec<SysName>,
    /// kv values / page stamps / account balances the program must hold.
    model: Vec<u64>,
    /// Ops applied through the consistency runtime (must all commit).
    cp_ops: u64,
}

/// One slice of a closed loop: the ops between two yardsticks.
struct Slice {
    /// Index into `wall_ns` of the slice's first completed op.
    first_op: usize,
    /// The yardstick timed just before the slice.
    yard: Reading,
    /// Wall time of the slice itself (yardsticks excluded), ns.
    dur_ns: u64,
}

/// What one closed loop measured.
pub struct LoopResult {
    pub attempted: u64,
    pub failed: u64,
    /// Ops that returned a wrong value (a correctness failure).
    pub wrong: u64,
    pub model_elapsed_ns: u64,
    /// Per-op latency on the wall clock as measured, ns (successful
    /// ops only, in completion order).
    pub wall_ns: Vec<u64>,
    /// Per-op latency on the driving node's virtual clock, ns.
    pub model_ns: Vec<u64>,
    slices: Vec<Slice>,
    /// The yardstick timed after the last slice.
    last_yard: Reading,
    /// The yardstick kinds this workload is scaled by.
    mix: Mix,
}

impl LoopResult {
    /// `(ops, raw duration ns, host-speed factor)` of each slice.
    fn slice_stats(&self) -> impl Iterator<Item = (usize, u64, f64)> + '_ {
        self.slices.iter().enumerate().map(|(i, s)| {
            let next = self.slices.get(i + 1);
            let ops = next.map_or(self.wall_ns.len(), |n| n.first_op) - s.first_op;
            let yard_after = next.map_or(self.last_yard, |n| n.yard);
            (
                ops,
                s.dur_ns,
                yardstick::factor(self.mix, s.yard, yard_after),
            )
        })
    }

    /// Per-op latencies corrected for host speed (see `yardstick.rs`), ns.
    pub fn corrected_ns(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.wall_ns.len());
        let mut next_op = 0;
        for (ops, _, factor) in self.slice_stats() {
            out.extend(
                self.wall_ns[next_op..next_op + ops]
                    .iter()
                    .map(|ns| (*ns as f64 * factor) as u64),
            );
            next_op += ops;
        }
        out
    }

    /// Throughput corrected for host speed: the median over slices of
    /// the slice's rate at reference speed.
    pub fn corrected_ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .slice_stats()
            .filter(|(_, dur_ns, _)| *dur_ns > 0)
            .map(|(ops, dur_ns, factor)| ops as f64 / (dur_ns as f64 / 1e9 * factor))
            .collect();
        median(&rates)
    }

    /// Throughput as measured: ops over the time spent in slices.
    pub fn raw_ops_per_s(&self) -> f64 {
        let in_slices: u64 = self.slices.iter().map(|s| s.dur_ns).sum();
        self.wall_ns.len() as f64 / (in_slices.max(1) as f64 / 1e9)
    }

    /// Median host-speed factor of the loop's slices: 1 = the host ran
    /// at its quiet-state reference speed, 0.7 = 30 % slower.
    pub fn host_factor(&self) -> f64 {
        let factors: Vec<f64> = self.slice_stats().map(|(_, _, factor)| factor).collect();
        median(&factors)
    }

    /// Median yardstick of the loop (under the workload's mix), µs.
    pub fn yardstick_us(&self) -> f64 {
        let yards: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.yard)
            .chain([self.last_yard])
            .map(|reading| reading.ns(self.mix) / 1e3)
            .collect();
        median(&yards)
    }
}

impl Bed {
    /// Boot the cluster of `workload`, create its objects from the
    /// seeded inputs and prewarm them. This whole function is what
    /// `setup_s` times.
    pub fn boot(workload: Workload, seed: u64) -> Result<Bed, CloudsError> {
        let builder = Cluster::builder().compute_servers(1).seed(seed);
        let cluster = match workload {
            Workload::KvGet | Workload::KvPut => builder.data_servers(1).workstations(1),
            Workload::PageScan | Workload::PageFlush => builder
                .data_servers(1)
                .workstations(1)
                .cache_frames(PAGING_CACHE_FRAMES),
            Workload::Ledger2pc => builder.data_servers(2).workstations(0),
        }
        .build()?;
        let cs = cluster.compute(0).clone();
        let mut bed = Bed {
            workload,
            runtime: None,
            names: Vec::new(),
            objects: Vec::new(),
            model: Vec::new(),
            cp_ops: 0,
            cluster,
        };
        match workload {
            Workload::KvGet | Workload::KvPut => {
                bed.cluster.register_class("session", Session)?;
                bed.names = key_names(seed);
                for (k, name) in bed.names.iter().enumerate() {
                    let obj = bed.cluster.create_object("session", name)?;
                    let value = initial_value(seed, k);
                    cs.invoke(obj, "put", &encode_args(&value)?, None)?;
                    bed.objects.push(obj);
                    bed.model.push(value);
                }
                // Touch every key once through the workstation, so the
                // timed window sees the steady state.
                for k in 0..KV_KEYS {
                    bed.apply(Op::Get { key: k }, Entry::Top)?;
                }
            }
            Workload::PageScan | Workload::PageFlush => {
                bed.cluster.register_class("pages", Pages)?;
                bed.objects
                    .push(bed.cluster.create_object("pages", PAGES_NAME)?);
                bed.model = vec![0; SCAN_PAGES as usize];
                for first in (0..SCAN_PAGES).step_by(PAGES_PER_OP as usize) {
                    let stamp = initial_stamp(seed, first);
                    bed.apply(Op::Fill { first, stamp }, Entry::Invoke)?;
                }
                // One op through the workstation warms that hop and the
                // name lookup; paging itself stays cold by design.
                bed.apply(Op::Scan { first: 0 }, Entry::Top)?;
            }
            Workload::Ledger2pc => {
                bed.cluster.register_class("account", Account)?;
                bed.runtime = Some(ConsistencyRuntime::install(&bed.cluster));
                for i in 0..ACCOUNTS {
                    let home = bed.cluster.data_server(i % 2).node_id();
                    let obj =
                        cs.create_object("account", Some(&format!("acct-{i}")), Some(home))?;
                    cs.invoke(obj, "open", &encode_args(&OPENING_BALANCE)?, None)?;
                    bed.objects.push(obj);
                    bed.model.push(OPENING_BALANCE);
                }
                // One transfer in each direction warms locks, prepare
                // and commit on both data servers.
                for (from, to) in [(0, 1), (1, 0)] {
                    bed.apply(
                        Op::Transfer {
                            from,
                            to,
                            amount: 1,
                        },
                        Entry::Top,
                    )?;
                }
            }
        }
        Ok(bed)
    }

    /// The virtual clock `model_*` metrics are read from: the node the
    /// client drives (workstation, or compute server for the ledger).
    pub fn driving_clock(&self) -> Arc<VirtualClock> {
        let node = match self.workload {
            Workload::Ledger2pc => self.cluster.compute(0).node_id(),
            _ => self.cluster.workstation(0).node_id(),
        };
        self.cluster
            .network()
            .clock(node)
            .expect("driving node is registered")
    }

    fn page_window_checksum(&self, first: u32) -> u64 {
        (first..first + PAGES_PER_OP).fold(0u64, |sum, page| {
            sum.wrapping_add(page_checksum(page_word(self.model[page as usize], page)))
        })
    }

    /// Apply one op at `entry` and check what it returned against the
    /// model. `Err` is a failed op; `Ok(false)` a wrong answer.
    pub fn apply(&mut self, op: Op, entry: Entry) -> Result<bool, CloudsError> {
        let (target, args) = match op {
            Op::Get { key } => (key, encode_args(&())?),
            Op::Put { key, value } => (key, encode_args(&value)?),
            Op::Scan { first } => (0, encode_args(&(first, PAGES_PER_OP))?),
            Op::Fill { first, stamp } => (0, encode_args(&(first, PAGES_PER_OP, stamp))?),
            Op::Transfer { from, to, amount } => (from, encode_args(&(self.objects[to], amount))?),
        };
        let cs = self.cluster.compute(0);
        let reply = match (entry, self.workload) {
            (Entry::Top, Workload::Ledger2pc) => {
                self.cp_ops += 1;
                self.runtime
                    .as_ref()
                    .expect("ledger has a runtime")
                    .invoke(
                        cs,
                        OperationLabel::Gcp,
                        self.objects[target],
                        op.entry(),
                        &args,
                        &CpOptions::default(),
                    )?
            }
            (Entry::Top, _) => {
                let name = match self.workload {
                    Workload::KvGet | Workload::KvPut => self.names[target].as_str(),
                    _ => PAGES_NAME,
                };
                // `Workstation::run_wait` minus its own `encode_args`
                // (the arguments are encoded above, once, for every
                // entry point alike).
                self.cluster
                    .workstation(0)
                    .spawn(name, op.entry(), args)
                    .join()?
            }
            (Entry::Invoke, _) => cs.invoke(self.objects[target], op.entry(), &args, None)?,
        };
        Ok(match op {
            Op::Get { key } => decode_args::<u64>(&reply)? == self.model[key],
            Op::Put { key, value } => {
                self.model[key] = value;
                decode_args::<u64>(&reply)? == value
            }
            Op::Scan { first } => decode_args::<u64>(&reply)? == self.page_window_checksum(first),
            Op::Fill { first, stamp } => {
                // Acked: from here on the pages must read back `stamp`,
                // crash or no crash.
                for page in first..first + PAGES_PER_OP {
                    self.model[page as usize] = stamp;
                }
                true
            }
            Op::Transfer { from, to, amount } => {
                self.model[from] -= amount;
                self.model[to] += amount;
                decode_args::<u64>(&reply)? == self.model[from]
            }
        })
    }

    /// Closed loop, one client: the next op is issued when the previous
    /// one returned. The loop runs in slices with a yardstick between
    /// them, so its wall times can be corrected for host speed.
    pub fn run_loop(&mut self, ops: &mut impl Iterator<Item = Op>, stop: Stop) -> LoopResult {
        let clock = self.driving_clock();
        let mut yard = Yardstick::new();
        let mut out = LoopResult {
            attempted: 0,
            failed: 0,
            wrong: 0,
            model_elapsed_ns: 0,
            wall_ns: Vec::new(),
            model_ns: Vec::new(),
            slices: Vec::new(),
            last_yard: Reading::default(),
            mix: self.workload.yardstick_mix(),
        };
        let started = Instant::now();
        let model_started = clock.now();
        let mut stopping = false;
        while !stopping {
            let yard_before = yard.measure();
            let first_op = out.wall_ns.len();
            let slice_started = Instant::now();
            while !stopping && slice_started.elapsed() < yardstick::SLICE {
                let op = ops.next().expect("op streams are infinite");
                let v0 = clock.now();
                let t0 = Instant::now();
                let result = self.apply(op, Entry::Top);
                let wall = t0.elapsed();
                let model = clock.now().saturating_sub(v0);
                out.attempted += 1;
                match result {
                    Ok(right) => {
                        out.wrong += u64::from(!right);
                        out.wall_ns.push(wall.as_nanos() as u64);
                        out.model_ns.push(model.as_nanos());
                    }
                    Err(e) => {
                        if out.failed == 0 {
                            eprintln!("{}: op {} failed: {e}", self.workload.name(), out.attempted);
                        }
                        out.failed += 1;
                    }
                }
                stopping = stop.reached(out.attempted, started);
            }
            out.slices.push(Slice {
                first_op,
                yard: yard_before,
                dur_ns: slice_started.elapsed().as_nanos() as u64,
            });
        }
        out.last_yard = yard.measure();
        out.model_elapsed_ns = clock.now().saturating_sub(model_started).as_nanos();
        out
    }

    /// End-of-run correctness checks. Returns the list of violations
    /// (empty = correct) and, for `page_flush`, the wall time and record
    /// count of the data server's crash replay.
    pub fn final_check(&mut self) -> (Vec<String>, Option<(Duration, u64)>) {
        let mut bad = Vec::new();
        let mut replay = None;
        let cs = self.cluster.compute(0).clone();
        let read_u64 = |obj: SysName, entry: &str| -> Result<u64, CloudsError> {
            decode_args(&cs.invoke(obj, entry, &encode_args(&())?, None)?)
        };
        match self.workload {
            Workload::KvGet | Workload::KvPut => {
                for (k, &obj) in self.objects.iter().enumerate() {
                    match read_u64(obj, "get") {
                        Ok(v) if v == self.model[k] => {}
                        other => bad.push(format!(
                            "key {} holds {other:?}, last put was {}",
                            self.names[k], self.model[k]
                        )),
                    }
                }
            }
            Workload::PageScan => {}
            Workload::PageFlush => {
                // Power-fail both machines: the compute server loses its
                // frames, the data server everything but the log. What
                // the re-scan reads is rebuilt from replayed log bytes
                // only, and must be every page's last *acked* stamp.
                let ds_registry = Arc::clone(self.cluster.data_server(0).ratp().obs().registry());
                let records_before = ds_registry.counter("store.replay.records").get();
                self.cluster.crash_compute(0);
                self.cluster.crash_data_server(0);
                let t0 = Instant::now();
                self.cluster.restart_data_server(0);
                let took = t0.elapsed();
                self.cluster.restart_compute(0);
                let records = ds_registry.counter("store.replay.records").get() - records_before;
                replay = Some((took, records));
                for first in (0..SCAN_PAGES).step_by(PAGES_PER_OP as usize) {
                    match self.apply(Op::Scan { first }, Entry::Invoke) {
                        Ok(true) => {}
                        other => bad.push(format!(
                            "after crash+replay, pages {first}..{} read back {other:?}",
                            first + PAGES_PER_OP
                        )),
                    }
                }
            }
            Workload::Ledger2pc => {
                let mut total = 0u64;
                for (i, &obj) in self.objects.iter().enumerate() {
                    match read_u64(obj, "balance") {
                        Ok(v) => {
                            total += v;
                            if v != self.model[i] {
                                bad.push(format!("account {i} holds {v}, model {}", self.model[i]));
                            }
                        }
                        Err(e) => bad.push(format!("account {i} unreadable: {e}")),
                    }
                }
                if total != ACCOUNTS as u64 * OPENING_BALANCE {
                    bad.push(format!("total balance {total} not conserved"));
                }
                let stats = self.runtime.as_ref().expect("ledger has a runtime").stats();
                if stats.commits != self.cp_ops || stats.failures != 0 {
                    bad.push(format!("{} gcp ops but {stats:?}", self.cp_ops));
                }
            }
        }
        (bad, replay)
    }

    /// Stop the cluster's threads and break the service → node
    /// reference cycles, so a dropped bed really frees its memory (a
    /// run boots several beds to take the median set-up time).
    pub fn teardown(self) {
        let mut nodes = Vec::new();
        for c in self.cluster.computes() {
            nodes.push(Arc::clone(c.ratp()));
        }
        for d in self.cluster.data_servers() {
            d.stop_failover();
            nodes.push(Arc::clone(d.ratp()));
        }
        for w in self.cluster.workstations() {
            nodes.push(Arc::clone(w.ratp()));
        }
        for node in nodes {
            for port in ports::DSM_SERVER..=ports::COMMIT {
                node.unregister_service(port);
            }
            node.shutdown();
        }
    }
}
