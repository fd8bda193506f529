//! The per-node kernel object tying the Ra mechanisms together.

use crate::partition::{LocalPartition, PageCache, Partition};
use crate::sched::Scheduler;
use crate::segment::SegmentStore;
use crate::sysname::{SysName, SysNameGen};
use crate::vspace::AddressSpace;
use clouds_simnet::{CostModel, Network, NodeId, VirtualClock};
use std::fmt;
use std::sync::Arc;

/// Default number of resident page frames per node (4 MB of 8 KB pages,
/// in the spirit of a Sun-3/60's memory).
pub const DEFAULT_CACHE_FRAMES: usize = 512;

/// One node's Ra kernel: clock, scheduler, page frames, and the
/// partition through which all segment storage is reached.
///
/// Ra is "the conceptual motherboard" (§4.2) — it owns mechanisms only.
/// Policies (object management, thread management, naming) live in
/// system objects layered above, in `clouds-dsm` and `clouds`.
pub struct RaKernel {
    node: NodeId,
    clock: Arc<VirtualClock>,
    cost: CostModel,
    scheduler: Arc<Scheduler>,
    cache: Arc<PageCache>,
    partition: Arc<dyn Partition>,
    sysnames: SysNameGen,
}

impl fmt::Debug for RaKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RaKernel")
            .field("node", &self.node)
            .field("now", &self.clock.now())
            .field("resident_pages", &self.cache.resident())
            .finish()
    }
}

impl RaKernel {
    /// Assemble a kernel from parts. `cpus` is the number of virtual
    /// processors (1 models the paper's Sun-3/60 compute servers).
    pub fn new(
        node: NodeId,
        clock: Arc<VirtualClock>,
        cost: CostModel,
        partition: Arc<dyn Partition>,
        cpus: usize,
        cache_frames: usize,
    ) -> Arc<RaKernel> {
        RaKernel::new_with_cache(
            node,
            clock,
            cost,
            partition,
            cpus,
            Arc::new(PageCache::new(cache_frames)),
        )
    }

    /// Like [`RaKernel::new`] but sharing an externally created page
    /// cache — required when the partition (e.g. the DSM client's
    /// recall service) must see the same frames as the kernel.
    pub fn new_with_cache(
        node: NodeId,
        clock: Arc<VirtualClock>,
        cost: CostModel,
        partition: Arc<dyn Partition>,
        cpus: usize,
        cache: Arc<PageCache>,
    ) -> Arc<RaKernel> {
        let scheduler = Scheduler::new(cpus, Arc::clone(&clock), cost.context_switch);
        Arc::new(RaKernel {
            node,
            clock,
            cost,
            scheduler,
            cache,
            partition,
            sysnames: SysNameGen::new(node.0),
        })
    }

    /// Convenience constructor: a kernel with its own fresh
    /// [`SegmentStore`]-backed [`LocalPartition`], using `net`'s cost
    /// model. Suitable for single-node use and examples.
    pub fn with_local_store(node: NodeId, net: &Network) -> Arc<RaKernel> {
        let clock = net
            .clock(node)
            .unwrap_or_else(|| Arc::new(VirtualClock::new()));
        let cost = net.cost_model().clone();
        let partition: Arc<dyn Partition> = Arc::new(LocalPartition::new(
            SegmentStore::new(),
            Arc::clone(&clock),
            cost.clone(),
        ));
        RaKernel::new(node, clock, cost, partition, 1, DEFAULT_CACHE_FRAMES)
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The node's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The calibrated cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The cooperative IsiBa scheduler.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// The node's page-frame cache.
    pub fn page_cache(&self) -> &Arc<PageCache> {
        &self.cache
    }

    /// The partition through which segments are reached.
    pub fn partition(&self) -> &Arc<dyn Partition> {
        &self.partition
    }

    /// Mint a fresh sysname.
    pub fn new_sysname(&self) -> SysName {
        self.sysnames.next()
    }

    /// A fresh, empty address space over this node's cache/partition.
    pub fn new_address_space(&self) -> AddressSpace {
        AddressSpace::new(Arc::clone(&self.cache), Arc::clone(&self.partition))
    }

    /// Simulate a node crash: all volatile state (page frames) is lost.
    /// The caller is responsible for also crashing the node at the
    /// network level.
    pub fn crash(&self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::PAGE_SIZE;
    use clouds_simnet::CostModel;

    #[test]
    fn kernel_end_to_end() {
        let net = Network::new(CostModel::zero());
        let kernel = RaKernel::with_local_store(NodeId(1), &net);
        let seg = kernel.new_sysname();
        kernel
            .partition()
            .create_segment(seg, PAGE_SIZE as u64)
            .unwrap();
        let mut space = kernel.new_address_space();
        space.map(0, seg, 0, PAGE_SIZE as u64, true).unwrap();
        space.write(0, b"kernel").unwrap();
        assert_eq!(space.read(0, 6).unwrap(), b"kernel");
    }

    #[test]
    fn crash_discards_dirty_frames() {
        let net = Network::new(CostModel::zero());
        let kernel = RaKernel::with_local_store(NodeId(1), &net);
        let seg = kernel.new_sysname();
        kernel
            .partition()
            .create_segment(seg, PAGE_SIZE as u64)
            .unwrap();
        let mut space = kernel.new_address_space();
        space.map(0, seg, 0, PAGE_SIZE as u64, true).unwrap();
        space.write(0, b"volatile").unwrap();
        kernel.crash();
        // After the "reboot", the unflushed write is gone.
        assert_eq!(space.read(0, 8).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn sysnames_are_unique_per_kernel() {
        let net = Network::new(CostModel::zero());
        let k = RaKernel::with_local_store(NodeId(3), &net);
        let a = k.new_sysname();
        let b = k.new_sysname();
        assert_ne!(a, b);
    }
}
