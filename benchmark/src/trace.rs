//! The traced run: harness-side spans around every call the harness
//! makes, and the telescoped self-time table built from them.
//!
//! The workload's seeded op stream is replayed at successively lower
//! public entry points — top entry → `ComputeServer::invoke` → raw
//! `AddressSpace` over the `DsmClientPartition` → `DsmServer::serve_wire`
//! → `LogStore::append`. A layer's self time is its pass's median minus
//! the next-lower pass's median, so the column sums to the top-level
//! median by construction. Spans are buffered in memory and written as
//! JSONL once the passes are over; spans *inside* the crates are a later
//! issue.

use crate::gen::{page_word, Op, OpStream, Workload, ACCOUNTS, KV_KEYS, PAGES_PER_OP, SCAN_PAGES};
use crate::metrics::Values;
use crate::stats::median;
use crate::workloads::{Bed, Entry, Stop};
use clouds_codec::PageBytes;
use clouds_dsm::proto::{self, DsmReply, DsmRequest, WireMode, WireWriteBack};
use clouds_dsm::DsmServer;
use clouds_ra::{AddressSpace, Partition, SysName, PAGE_SIZE};
use clouds_simnet::NodeId;
use clouds_store::{LogConfig, LogRecord, LogStore};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Entry points of the telescope, top first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rung {
    Top,
    Invoke,
    Raw,
    Server,
    Store,
}

const RUNGS: [Rung; 5] = [
    Rung::Top,
    Rung::Invoke,
    Rung::Raw,
    Rung::Server,
    Rung::Store,
];

impl Rung {
    fn layer(self, workload: Workload) -> &'static str {
        match (self, workload) {
            (Rung::Top, Workload::Ledger2pc) => "consistency",
            (Rung::Top, _) => "core.workstation",
            (Rung::Invoke, _) => "core.compute",
            (Rung::Raw, _) => "ra+dsm.client",
            (Rung::Server, _) => "dsm.server",
            (Rung::Store, _) => "store",
        }
    }
}

/// One harness-side span. `parent` is the index of the enclosing span
/// in the same file, `-1` for an op's root span.
struct Span {
    req: u64,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: i64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(
        &mut self,
        req: u64,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(-1, |p| p as i64),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    fn jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"req\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.req, s.layer, s.name, s.start_ns, s.end_ns, s.parent
            );
        }
        out
    }
}

/// Where in the shadow address space a workload's op lands.
const SHADOW_STRIDE: u64 = 0x1000_0000;

/// State the three lower rungs replay against: shadow segments with the
/// geometry and placement of the workload's objects (the rungs below
/// `ComputeServer::invoke` have no objects, only pages).
struct Shadow {
    /// Raw rung: segments mapped at `i * SHADOW_STRIDE` over the compute
    /// server's own cache and DSM partition.
    space: AddressSpace,
    /// Server rung: `(home server, segment)` per shadow object.
    wire: Vec<(Arc<DsmServer>, SysName)>,
    /// Requester id the server rung speaks as (no such node exists, so
    /// the server never tries to recall from it: every copy is released
    /// before the next op needs it).
    wire_src: NodeId,
    /// Store rung: a log of its own.
    log: LogStore,
    next_version: u64,
}

impl Shadow {
    fn build(bed: &Bed) -> Shadow {
        let (count, pages) = match bed.workload {
            Workload::KvGet | Workload::KvPut => (KV_KEYS, 1),
            Workload::PageScan | Workload::PageFlush => (1, SCAN_PAGES),
            Workload::Ledger2pc => (ACCOUNTS, 1),
        };
        let len = u64::from(pages) * PAGE_SIZE as u64;
        let cs = bed.cluster.compute(0);
        let servers = bed.cluster.data_servers();
        let mut space = AddressSpace::new(
            Arc::clone(cs.kernel().page_cache()),
            Arc::clone(cs.dsm()) as Arc<dyn Partition>,
        );
        let mut wire = Vec::with_capacity(count);
        for i in 0..count {
            let home = &servers[i % servers.len()];
            let raw_seg = SysName::from_parts(0xBE7C, 2 * i as u64);
            let wire_seg = SysName::from_parts(0xBE7C, 2 * i as u64 + 1);
            for seg in [raw_seg, wire_seg] {
                cs.dsm()
                    .create_segment_at(seg, len, home.node_id())
                    .expect("shadow segment");
            }
            space
                .map(i as u64 * SHADOW_STRIDE, raw_seg, 0, len, true)
                .expect("shadow mapping");
            wire.push((Arc::clone(home.dsm()), wire_seg));
        }
        let mut shadow = Shadow {
            space,
            wire,
            wire_src: NodeId(9_999),
            log: LogStore::new(LogConfig::default()),
            next_version: 1,
        };
        if matches!(bed.workload, Workload::PageScan | Workload::PageFlush) {
            // Never-written pages are served as zero-fill grants, which
            // the workload's preloaded object never sees; materialize
            // the shadow pages first.
            for first in (0..SCAN_PAGES).step_by(PAGES_PER_OP as usize) {
                let fill = Op::Fill { first, stamp: 1 };
                shadow.raw(fill, &mut |_, f| f());
                shadow.server(fill, &mut |_, f| f());
            }
        }
        shadow
    }

    /// Raw rung: the op's page accesses through `AddressSpace`.
    fn raw(&mut self, op: Op, call: &mut dyn FnMut(&'static str, &mut dyn FnMut())) {
        let space = &self.space;
        let base = |i: usize| i as u64 * SHADOW_STRIDE;
        match op {
            Op::Get { key } => call("read_u64", &mut || {
                space.read_u64(base(key)).expect("shadow read");
            }),
            Op::Put { key, value } => {
                call("write_u64", &mut || {
                    space.write_u64(base(key), value).expect("shadow write")
                });
                call("flush", &mut || space.flush().expect("shadow flush"));
            }
            Op::Scan { first } => {
                for page in first..first + PAGES_PER_OP {
                    call("read_page", &mut || {
                        space
                            .read(u64::from(page) * PAGE_SIZE as u64, PAGE_SIZE)
                            .expect("shadow read");
                    });
                }
            }
            Op::Fill { first, stamp } => {
                for page in first..first + PAGES_PER_OP {
                    let image = page_word(stamp, page).to_le_bytes().repeat(PAGE_SIZE / 8);
                    call("write_page", &mut || {
                        space
                            .write(u64::from(page) * PAGE_SIZE as u64, &image)
                            .expect("shadow write");
                    });
                }
                call("flush", &mut || space.flush().expect("shadow flush"));
            }
            Op::Transfer { from, to, amount } => {
                for (i, name) in [(from, "debit"), (to, "credit")] {
                    call(name, &mut || {
                        let v = space.read_u64(base(i)).expect("shadow read");
                        space
                            .write_u64(base(i), v.wrapping_add(amount))
                            .expect("shadow write");
                    });
                }
                call("flush", &mut || space.flush().expect("shadow flush"));
            }
        }
    }

    /// Server rung: the wire requests the op's paging turns into, served
    /// in-process by the home data server.
    fn server(&mut self, op: Op, call: &mut dyn FnMut(&'static str, &mut dyn FnMut())) {
        let src = self.wire_src;
        let serve = |server: &DsmServer, req: &DsmRequest| -> DsmReply {
            let reply = server.serve_wire(src, &proto::encode(req));
            proto::decode_shared(&reply).expect("server reply decodes")
        };
        let image = |word: u64| PageBytes::from(word.to_le_bytes().repeat(PAGE_SIZE / 8));
        // Fetch one page as a client would: fetch, acknowledge the
        // install, and (the cache being a quarter of the segment) give
        // the copy up again before the scan comes back round.
        let fetch = |server: &DsmServer, seg: SysName, page: u32, mode: WireMode| {
            let DsmReply::Page { grant_seq, .. } =
                serve(server, &DsmRequest::FetchPage { seg, page, mode })
            else {
                panic!("shadow fetch of page {page} not granted");
            };
            serve(
                server,
                &DsmRequest::InstallAck {
                    seg,
                    page,
                    grant_seq,
                },
            );
            serve(server, &DsmRequest::ReleasePage { seg, page });
        };
        let write_back = |server: &DsmServer, req: &DsmRequest| {
            let reply = serve(server, req);
            assert!(
                matches!(reply, DsmReply::Ok | DsmReply::WriteBackResults { .. }),
                "shadow write-back refused: {reply:?}"
            );
        };
        let dirty = |seg: SysName, page: u32, word: u64| WireWriteBack {
            seg,
            page,
            data: image(word),
        };
        match op {
            Op::Get { .. } => {} // a hot read never reaches the server
            Op::Put { key, value } => {
                // A flush of one dirty page is a plain `WriteBack`.
                let (server, seg) = &self.wire[key];
                let req = DsmRequest::WriteBack {
                    seg: *seg,
                    page: 0,
                    data: image(value),
                    release: false,
                };
                call("write_back", &mut || write_back(server, &req));
            }
            Op::Scan { first } => {
                let (server, seg) = &self.wire[0];
                for page in first..first + PAGES_PER_OP {
                    call("fetch_read", &mut || {
                        fetch(server, *seg, page, WireMode::Read)
                    });
                }
            }
            Op::Fill { first, stamp } => {
                let (server, seg) = &self.wire[0];
                for page in first..first + PAGES_PER_OP {
                    call("fetch_write", &mut || {
                        fetch(server, *seg, page, WireMode::Write)
                    });
                }
                let req = DsmRequest::WriteBackBatch {
                    pages: (first..first + PAGES_PER_OP)
                        .map(|page| dirty(*seg, page, page_word(stamp, page)))
                        .collect(),
                };
                call("write_back_batch", &mut || write_back(server, &req));
            }
            Op::Transfer { from, to, amount } => {
                // A flush of two dirty pages homed on two servers is one
                // single-page batch per home.
                for i in [from, to] {
                    let (server, seg) = &self.wire[i];
                    let req = DsmRequest::WriteBackBatch {
                        pages: vec![dirty(*seg, 0, amount)],
                    };
                    call("write_back", &mut || write_back(server, &req));
                }
            }
        }
    }

    /// Store rung: the log appends the op's write-backs end in.
    fn store(&mut self, op: Op, call: &mut dyn FnMut(&'static str, &mut dyn FnMut())) {
        let mut append = |seg: SysName, page: u32, word: u64| {
            let version = self.next_version;
            self.next_version += 1;
            let log = &self.log;
            call("append", &mut || {
                log.append(LogRecord::PageWrite {
                    seg,
                    page,
                    version,
                    data: word.to_le_bytes().repeat(PAGE_SIZE / 8),
                });
            });
        };
        match op {
            Op::Get { .. } | Op::Scan { .. } => {}
            Op::Put { key, value } => append(self.wire[key].1, 0, value),
            Op::Fill { first, stamp } => {
                for page in first..first + PAGES_PER_OP {
                    append(self.wire[0].1, page, page_word(stamp, page));
                }
            }
            Op::Transfer { from, to, amount } => {
                append(self.wire[from].1, 0, amount);
                append(self.wire[to].1, 0, amount);
            }
        }
    }
}

/// Self time per layer from the five pass medians (top first), µs. The
/// top rung's own share is the workstation hop, or — for the ledger,
/// which enters at `ConsistencyRuntime::invoke` — the consistency layer.
pub fn self_times(medians_us: [f64; 5], ledger: bool) -> [(&'static str, f64); 6] {
    let [top, invoke, raw, server, store] = medians_us;
    let (ws_hop, consistency) = if ledger {
        (0.0, top - invoke)
    } else {
        (top - invoke, 0.0)
    };
    [
        ("trace.self_us.ws_hop", ws_hop),
        ("trace.self_us.consistency", consistency),
        ("trace.self_us.invoke", invoke - raw),
        ("trace.self_us.dsm_client_transport", raw - server),
        ("trace.self_us.dsm_server", server - store),
        ("trace.self_us.store", store),
    ]
}

/// Ops each rung replays before the next rung replays the same ops.
/// Interleaving the rungs in short turns makes them share whatever
/// speed the host has at the time; a turn is one full cycle of the
/// paging workloads over their segment, so every rung's scans stay as
/// cold as the timed run's.
const TURN: usize = (SCAN_PAGES / PAGES_PER_OP) as usize;

/// Replay the op stream on `bed` at the five rungs, turn by turn, until
/// `stop` (which counts ops per rung); fill in the `trace.*` metrics and
/// write the spans out. The spans of one op share its `req` across the
/// rungs. Returns how many ops of the two object-level rungs failed or
/// answered wrongly (they are checked like the timed run's).
pub fn telescope(
    values: &mut Values,
    bed: &mut Bed,
    seed: u64,
    stop: Stop,
    untraced_p50_us: f64,
) -> u64 {
    let workload = bed.workload;
    let mut shadow = Shadow::build(bed);
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut durations_us: [Vec<f64>; 5] = Default::default();
    let mut bad_ops = 0u64;
    let mut stream = OpStream::new(workload, seed).enumerate();
    let started = Instant::now();
    while !stop.reached(durations_us[0].len() as u64, started) {
        let turn: Vec<(usize, Op)> = stream.by_ref().take(TURN).collect();
        for (slot, rung) in RUNGS.into_iter().enumerate() {
            let layer = rung.layer(workload);
            for &(index, op) in &turn {
                let req = index as u64;
                let root = tracer.open(req, layer, op.entry(), None);
                // Child span around each call of a multi-call rung.
                let mut call = |name: &'static str, f: &mut dyn FnMut()| {
                    let id = tracer.open(req, layer, name, Some(root));
                    f();
                    tracer.close(id);
                };
                match rung {
                    Rung::Top => {
                        bad_ops += u64::from(!matches!(bed.apply(op, Entry::Top), Ok(true)))
                    }
                    Rung::Invoke => {
                        bad_ops += u64::from(!matches!(bed.apply(op, Entry::Invoke), Ok(true)));
                    }
                    Rung::Raw => shadow.raw(op, &mut call),
                    Rung::Server => shadow.server(op, &mut call),
                    Rung::Store => shadow.store(op, &mut call),
                }
                durations_us[slot].push(tracer.close(root) as f64 / 1e3);
            }
        }
    }
    let medians_us = durations_us.map(|d| median(&d));

    let selfs = self_times(medians_us, workload == Workload::Ledger2pc);
    let sum: f64 = selfs.iter().map(|(_, v)| v).sum();
    for (name, v) in selfs {
        values.insert(name, v);
    }
    let top = medians_us[0];
    values.insert(
        "trace.sum_over_total",
        if top > 0.0 { sum / top } else { 0.0 },
    );
    values.insert(
        "trace.overhead_ratio",
        if untraced_p50_us > 0.0 {
            top / untraced_p50_us
        } else {
            0.0
        },
    );

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.jsonl())) {
        Ok(()) => eprintln!(
            "{}: {} spans written to {}",
            workload.name(),
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
    bad_ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telescoped_self_times_sum_to_the_top_level_median() {
        for ledger in [false, true] {
            let medians = [913.25, 640.5, 402.125, 77.0, 12.5];
            let selfs = self_times(medians, ledger);
            let sum: f64 = selfs.iter().map(|(_, v)| v).sum();
            assert!(
                (sum - medians[0]).abs() < 1e-9,
                "sum {sum} != top {}",
                medians[0]
            );
            let get = |name: &str| selfs.iter().find(|(n, _)| *n == name).expect(name).1;
            let (hop, cons) = (
                get("trace.self_us.ws_hop"),
                get("trace.self_us.consistency"),
            );
            assert_eq!(if ledger { hop } else { cons }, 0.0);
            assert_eq!(get("trace.self_us.store"), 12.5);
        }
        // A lower pass slower than the one above it shows as negative
        // self time rather than being hidden; the sum still telescopes.
        let selfs = self_times([10.0, 12.0, 3.0, 2.0, 1.0], false);
        assert!((selfs.iter().map(|(_, v)| v).sum::<f64>() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn spans_serialize_with_parent_links() {
        let mut t = Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        };
        let root = t.open(7, "store", "fill", None);
        let child = t.open(7, "store", "append", Some(root));
        t.close(child);
        t.close(root);
        let text = t.jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"req\":7,\"layer\":\"store\",\"name\":\"fill\","));
        assert!(lines[0].ends_with("\"parent\":-1}"));
        assert!(lines[1].ends_with("\"parent\":0}"));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
    }
}
