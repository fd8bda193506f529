//! One thread body: however a Clouds thread is started, an s-thread ends
//! with the flush of its dirty pages, and the flush's outcome is the
//! thread's. An acknowledged s-thread is a durable one (§2.2).

use clouds::object::ObjectMeta;
use clouds::prelude::*;
use clouds_dsm::DsmServer;
use clouds_ratp::RatpConfig;
use clouds_simnet::{CostModel, Network, NodeId};
use std::sync::Arc;
use std::time::Duration;

/// The first word of segment `seg` in a data server's log (0 if never
/// written; `seg` must be live).
fn stored(dsm: &DsmServer, seg: SysName) -> u64 {
    dsm.log().segment_len(seg).expect("segment live");
    dsm.log().read_page(seg, 0).map_or(0, |(_, page)| {
        u64::from_le_bytes(page[..8].try_into().unwrap())
    })
}

/// A one-word cell. `put` writes its argument; `put_async` has a child
/// thread do the `put` and reports what the data server held the
/// moment the child's handle returned, before this thread's own flush
/// could mask a missing one.
struct Cell {
    dsm: Arc<DsmServer>,
}

impl ObjectCode for Cell {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "put" => {
                let v: u64 = decode_args(args)?;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&())
            }
            "put_async" => {
                let (seg, v): (SysName, u64) = decode_args(args)?;
                ctx.invoke_async(ctx.object(), "put", &encode_args(&v)?)
                    .join()?;
                encode_result(&stored(&self.dsm, seg))
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

#[test]
fn every_thread_start_returns_after_its_write_is_durable() {
    let cluster = Cluster::builder()
        .cost_model(CostModel::zero())
        .build()
        .unwrap();
    let dsm = Arc::clone(cluster.data_server(0).dsm());
    cluster
        .register_class(
            "cell",
            Cell {
                dsm: Arc::clone(&dsm),
            },
        )
        .unwrap();
    let obj = cluster.create_object("cell", "C").unwrap();
    let cs = cluster.compute(0);
    let ws = cluster.workstation(0);
    let seg = ObjectMeta::load(&**cs.object_manager().partition(), obj)
        .unwrap()
        .data_seg;

    type Path<'a> = Box<dyn Fn(u64) -> Result<u64, CloudsError> + 'a>;
    let paths: [(&str, Path); 4] = [
        (
            "Workstation::spawn",
            Box::new(|v| {
                ws.spawn("C", "put", encode_args(&v)?).join()?;
                Ok(stored(&dsm, seg))
            }),
        ),
        (
            "ComputeServer::start_thread",
            Box::new(|v| {
                cs.start_thread(obj, "put", encode_args(&v)?, None).join()?;
                Ok(stored(&dsm, seg))
            }),
        ),
        (
            "Invocation::invoke_async",
            Box::new(|v| {
                let args = encode_args(&(seg, v))?;
                decode_args(&cs.invoke(obj, "put_async", &args, None)?)
            }),
        ),
        (
            "ComputeServer::invoke",
            Box::new(|v| {
                cs.invoke(obj, "put", &encode_args(&v)?, None)?;
                Ok(stored(&dsm, seg))
            }),
        ),
    ];
    for (i, (path, run)) in paths.iter().enumerate() {
        let v = 100 + i as u64;
        assert_eq!(
            run(v).unwrap(),
            v,
            "{path}: returned before its write reached the data server"
        );
    }
}

/// Writes its argument, then cuts its compute server off from its data
/// server, so the end-of-thread flush cannot land.
struct CutAfterWrite {
    net: Network,
    compute: NodeId,
    data: NodeId,
}

impl ObjectCode for CutAfterWrite {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "put_then_cut" => {
                ctx.persistent().write_u64(0, decode_args(args)?)?;
                self.net.partition(&[self.compute], &[self.data]);
                encode_result(&())
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

#[test]
fn a_flush_that_cannot_land_fails_the_workstation_thread() {
    // A small server budget, so the write-back gives up quickly.
    let cluster = Cluster::builder()
        .cost_model(CostModel::zero())
        .server_ratp_config(RatpConfig {
            retry_interval: Duration::from_millis(2),
            max_retries: 10,
        })
        .build()
        .unwrap();
    let ds = cluster.data_server(0);
    cluster
        .register_class(
            "cut",
            CutAfterWrite {
                net: cluster.network().clone(),
                compute: cluster.compute(0).node_id(),
                data: ds.node_id(),
            },
        )
        .unwrap();
    let obj = cluster.create_object("cut", "X").unwrap();
    let seg = ObjectMeta::load(&**cluster.compute(0).object_manager().partition(), obj)
        .unwrap()
        .data_seg;

    let result = cluster
        .workstation(0)
        .spawn("X", "put_then_cut", encode_args(&7u64).unwrap())
        .join();
    assert!(
        result.is_err(),
        "a thread whose write never reached a data server was acknowledged: {result:?}"
    );
    assert_eq!(stored(ds.dsm(), seg), 0);
}
