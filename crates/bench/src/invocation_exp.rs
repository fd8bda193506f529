//! E3 — object invocation costs (§4.3 ¶4).
//!
//! Paper: "Object invocation costs vary widely depending upon whether
//! the object is currently in memory or have to be fetched from a data
//! server. The maximum cost for a null invocation is 103 ms while the
//! minimum cost is 8 ms. Note that due to locality the average costs is
//! much closer to the minimum than the maximum."

use clouds::prelude::*;
use clouds_simnet::Vt;

/// Measured invocation costs (virtual time).
#[derive(Debug, Clone, Copy)]
pub struct InvocationResults {
    /// Null invocation with the object activated and resident (min).
    pub hot: Vt,
    /// Null invocation with nothing resident: header + code demand-paged
    /// from the data server (max).
    pub cold: Vt,
    /// Mean over a locality-weighted mix (19 hot : 1 cold).
    pub mixed_mean: Vt,
}

/// The null object: one entry point that does nothing.
struct Null;

impl ObjectCode for Null {
    fn dispatch(&self, entry: &str, _ctx: &mut Invocation<'_>, _args: &[u8]) -> EntryResult {
        match entry {
            "nop" => encode_result(&()),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

fn cluster() -> (Cluster, SysName) {
    let cluster = Cluster::builder()
        .compute_servers(1)
        .data_servers(1)
        .workstations(0)
        .build()
        .expect("cluster boots");
    cluster
        .register_class("null", Null)
        .expect("class registers");
    let obj = cluster.create_object("null", "Null01").expect("object");
    (cluster, obj)
}

fn invoke_vt(cluster: &Cluster, obj: SysName) -> Vt {
    let clock = cluster
        .network()
        .clock(cluster.compute(0).node_id())
        .expect("clock");
    let before = clock.now();
    cluster
        .compute(0)
        .invoke(obj, "nop", &clouds::encode_args(&()).expect("args"), None)
        .expect("invocation");
    clock.now() - before
}

/// Hot null invocation: activation cached, everything resident.
pub fn hot(cluster: &Cluster, obj: SysName) -> Vt {
    // Warm up once, then measure.
    invoke_vt(cluster, obj);
    invoke_vt(cluster, obj)
}

/// Cold null invocation: drop the activation so header + code pages are
/// demand-paged from the data server again.
pub fn cold(cluster: &Cluster, obj: SysName) -> Vt {
    cluster.compute(0).object_manager().deactivate(obj);
    cluster.compute(0).dsm().forget_home(obj);
    invoke_vt(cluster, obj)
}

/// Run the whole E3 suite.
pub fn run() -> InvocationResults {
    let (cluster, obj) = cluster();
    let hot_t = hot(&cluster, obj);
    let cold_t = cold(&cluster, obj);
    // Locality mix: 1 cold in 20 ("average much closer to the minimum").
    let mut total = Vt::ZERO;
    let mixes = 20u64;
    for i in 0..mixes {
        if i % 20 == 0 {
            cluster.compute(0).object_manager().deactivate(obj);
        }
        total += invoke_vt(&cluster, obj);
    }
    InvocationResults {
        hot: hot_t,
        cold: cold_t,
        mixed_mean: Vt::from_nanos(total.as_nanos() / mixes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_matches_paper_shape() {
        let r = run();
        // Paper min: 8 ms. Ours is 2×(context switch + stack remap).
        assert_eq!(r.hot, Vt::from_micros(8000), "hot {}", r.hot);
        // Paper max: 103 ms. Ours must be an order of magnitude above
        // hot, in the ~100 ms band (header + 8 code pages over RaTP).
        assert!(r.cold >= Vt::from_millis(60), "cold {}", r.cold);
        assert!(r.cold <= Vt::from_millis(160), "cold {}", r.cold);
        // Locality pulls the mean near the minimum.
        let hot_ns = r.hot.as_nanos() as f64;
        let cold_ns = r.cold.as_nanos() as f64;
        let mean_ns = r.mixed_mean.as_nanos() as f64;
        assert!(
            (mean_ns - hot_ns) < 0.25 * (cold_ns - hot_ns),
            "mean {} not close to min {}",
            r.mixed_mean,
            r.hot
        );
    }
}
