//! E1 — kernel microbenchmarks (§4.3 ¶1).
//!
//! Paper: "Context switch time is 0.14 ms. The time to service a page
//! fault when the page is resident on the same node costs 1.5 ms for a
//! zero-filled, 8K page; and costs 0.629 ms for a non zero-filled page."

use clouds_obs::NodeObs;
use clouds_ra::sched::{Scheduler, StackKind};
use clouds_ra::{AccessMode, LocalPartition, PageCache, SegmentStore, SysName, PAGE_SIZE};
use clouds_simnet::{CostModel, VirtualClock, Vt};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Measured results of the kernel microbenchmarks.
#[derive(Debug, Clone, Copy)]
pub struct KernelResults {
    /// Virtual time per context switch.
    pub context_switch: Vt,
    /// Virtual time to service a zero-filled 8 KB fault.
    pub fault_zero: Vt,
    /// Virtual time to service a copied (non-zero-filled) fault.
    pub fault_copy: Vt,
    /// Context switches performed in the ping-pong run.
    pub switches: u64,
}

/// Two IsiBas ping-pong on one virtual CPU; the per-switch cost is the
/// accumulated virtual time divided by the switch count.
pub fn context_switch_vt(iters: u64) -> (Vt, u64) {
    let clock = Arc::new(VirtualClock::new());
    let sched = Scheduler::new(
        1,
        Arc::clone(&clock),
        CostModel::sun3_ethernet().context_switch,
    );
    let obs = NodeObs::solo(0, Arc::clone(&clock));
    sched.set_obs(Arc::clone(&obs));
    let go = Arc::new(AtomicBool::new(false));
    let mk = |go: Arc<AtomicBool>| {
        move |ctx: &clouds_ra::sched::IsiBaCtx| {
            while !go.load(Ordering::Acquire) {
                ctx.yield_now();
            }
            for _ in 0..iters {
                ctx.yield_now();
            }
        }
    };
    let start = clock.now();
    let a = sched.spawn(StackKind::User, mk(Arc::clone(&go)));
    let b = sched.spawn(StackKind::User, mk(Arc::clone(&go)));
    go.store(true, Ordering::Release);
    a.join();
    b.join();
    let switches = obs.registry().counter_value("sched.switches");
    let per_switch = Vt::from_nanos((clock.now() - start).as_nanos() / switches.max(1));
    (per_switch, switches)
}

/// Local page-fault service times (zero-filled vs copied).
pub fn page_fault_vt() -> (Vt, Vt) {
    let clock = Arc::new(VirtualClock::new());
    let store = SegmentStore::new();
    let zero_seg = SysName::from_parts(1, 1);
    let full_seg = SysName::from_parts(1, 2);
    store.create(zero_seg, PAGE_SIZE as u64).unwrap();
    store.create(full_seg, PAGE_SIZE as u64).unwrap();
    store
        .get(full_seg)
        .unwrap()
        .write()
        .write(0, &vec![7u8; PAGE_SIZE])
        .unwrap();
    let part = LocalPartition::new(store, Arc::clone(&clock), CostModel::sun3_ethernet());
    let cache = PageCache::new(8);

    let t0 = clock.now();
    cache
        .access((zero_seg, 0), AccessMode::Read, &part, |_| ())
        .unwrap();
    let zero = clock.now() - t0;

    let t1 = clock.now();
    cache
        .access((full_seg, 0), AccessMode::Read, &part, |_| ())
        .unwrap();
    let copy = clock.now() - t1;
    (zero, copy)
}

/// Run the whole E1 suite.
pub fn run() -> KernelResults {
    let (context_switch, switches) = context_switch_vt(500);
    let (fault_zero, fault_copy) = page_fault_vt();
    KernelResults {
        context_switch,
        fault_zero,
        fault_copy,
        switches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_matches_paper_exactly() {
        let r = run();
        assert_eq!(r.context_switch, Vt::from_micros(140));
        assert_eq!(r.fault_zero, Vt::from_micros(1500));
        assert_eq!(r.fault_copy, Vt::from_micros(629));
        assert!(r.switches >= 1000);
    }
}
