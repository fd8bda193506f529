//! E5 — the consistency spectrum (§5.2.1).
//!
//! The paper offers three thread kinds instead of mandating one
//! atomicity level: s-threads (no guarantees, no overhead), lcp-threads
//! (locking + per-server atomic commit) and gcp-threads (locking + full
//! 2PC). The experiment quantifies what each level costs — and what the
//! s-thread "saves" actually buys: lost updates.

use clouds::prelude::*;
use clouds_consistency::{ConsistencyRuntime, CpOptions};
use clouds_simnet::Vt;
use std::sync::Arc;

/// Result of one consistency-level run.
#[derive(Debug, Clone)]
pub struct ConsistencyPoint {
    /// Label name ("S", "LCP", "GCP").
    pub label: String,
    /// Deposits attempted.
    pub attempted: u64,
    /// Final balance (equals `attempted` only if no updates were lost).
    pub final_balance: u64,
    /// Virtual time per operation (max node clock / ops).
    pub vt_per_op: Vt,
    /// cp-thread aborts observed (lock timeouts).
    pub aborts: u64,
}

struct Account;

impl ObjectCode for Account {
    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "deposit" => {
                let amount: u64 = decode_args(args)?;
                let v = ctx.persistent().read_u64(0)? + amount;
                ctx.persistent().write_u64(0, v)?;
                encode_result(&v)
            }
            "balance" => encode_result(&ctx.persistent().read_u64(0)?),
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

/// Run `per_thread` deposits from each of `threads` concurrent threads
/// (spread over two compute servers) at the given label.
pub fn run_level(label: OperationLabel, threads: usize, per_thread: u64) -> ConsistencyPoint {
    let cluster = Cluster::builder()
        .compute_servers(2)
        .data_servers(2)
        .workstations(0)
        .build()
        .expect("cluster boots");
    cluster
        .register_class("account", Account)
        .expect("register");
    let runtime = ConsistencyRuntime::install(&cluster);
    let obj = cluster.create_object("account", "Acct").expect("object");

    let opts = CpOptions {
        lock_wait_ms: 500,
        max_retries: 40,
    };
    let mut handles = Vec::new();
    for t in 0..threads {
        let cs = cluster.compute(t % 2).clone();
        let runtime = Arc::clone(&runtime);
        let opts = opts.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..per_thread {
                let _ = runtime.invoke(
                    &cs,
                    label,
                    obj,
                    "deposit",
                    &encode_args(&1u64).expect("args"),
                    &opts,
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("worker");
    }

    let attempted = threads as u64 * per_thread;
    let final_balance: u64 = decode_args(
        &cluster
            .compute(0)
            .invoke(obj, "balance", &encode_args(&()).expect("args"), None)
            .expect("balance"),
    )
    .expect("decode");
    let vt = (0..2)
        .map(|i| {
            cluster
                .network()
                .clock(cluster.compute(i).node_id())
                .expect("clock")
                .now()
        })
        .max()
        .expect("two nodes");
    ConsistencyPoint {
        label: format!("{label:?}").to_uppercase(),
        attempted,
        final_balance,
        vt_per_op: Vt::from_nanos(vt.as_nanos() / attempted.max(1)),
        aborts: runtime.stats().aborts,
    }
}

/// Run the full E5 sweep: S, LCP, GCP with 4 threads × 15 deposits.
pub fn run() -> Vec<ConsistencyPoint> {
    [OperationLabel::S, OperationLabel::Lcp, OperationLabel::Gcp]
        .iter()
        .map(|&l| run_level(l, 4, 15))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e5_cp_threads_cost_more_but_lose_nothing() {
        let gcp = run_level(OperationLabel::Gcp, 3, 8);
        assert_eq!(
            gcp.final_balance, gcp.attempted,
            "gcp must not lose updates"
        );
        let s = run_level(OperationLabel::S, 3, 8);
        assert!(s.final_balance <= s.attempted);
        // The consistency machinery costs virtual time per operation.
        assert!(
            gcp.vt_per_op > s.vt_per_op,
            "gcp {} vs s {}",
            gcp.vt_per_op,
            s.vt_per_op
        );
    }
}
