//! Property-based tests for the persistent heap allocator: allocated
//! blocks never overlap, survive frees of other blocks, and freed space
//! is reused.

use clouds::prelude::*;
use clouds_simnet::CostModel;
use proptest::prelude::*;

struct HeapBox;

impl ObjectCode for HeapBox {
    fn heap_segment_len(&self) -> u64 {
        64 * clouds_ra::PAGE_SIZE as u64
    }

    fn dispatch(&self, entry: &str, ctx: &mut Invocation<'_>, args: &[u8]) -> EntryResult {
        match entry {
            "alloc" => {
                let len: u64 = decode_args(args)?;
                encode_result(&ctx.persistent().heap_alloc(len)?)
            }
            "free" => {
                let (offset, len): (u64, u64) = decode_args(args)?;
                ctx.persistent().heap_free(offset, len)?;
                encode_result(&())
            }
            "write" => {
                let (offset, data): (u64, Vec<u8>) = decode_args(args)?;
                ctx.persistent().heap_write(offset, &data)?;
                encode_result(&())
            }
            "read" => {
                let (offset, len): (u64, u64) = decode_args(args)?;
                encode_result(&ctx.persistent().heap_read(offset, len as usize)?)
            }
            other => Err(CloudsError::NoSuchEntryPoint(other.to_string())),
        }
    }
}

struct Bed {
    cluster: Cluster,
    obj: SysName,
}

impl Bed {
    fn new() -> Bed {
        let cluster = Cluster::builder()
            .compute_servers(1)
            .data_servers(1)
            .workstations(0)
            .cost_model(CostModel::zero())
            .build()
            .unwrap();
        cluster.register_class("heapbox", HeapBox).unwrap();
        let obj = cluster
            .compute(0)
            .create_object("heapbox", None, None)
            .unwrap();
        Bed { cluster, obj }
    }

    fn call<T: serde::Serialize, R: serde::Deserialize>(
        &self,
        entry: &str,
        args: &T,
    ) -> Result<R, CloudsError> {
        let bytes =
            self.cluster
                .compute(0)
                .invoke(self.obj, entry, &clouds::encode_args(args)?, None)?;
        clouds::decode_args(&bytes)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random alloc/write/free interleavings: every live block holds
    /// exactly the bytes written to it (no overlap, no corruption), and
    /// blocks never overlap each other.
    #[test]
    fn heap_blocks_are_disjoint_and_stable(
        script in prop::collection::vec((1u64..700, any::<u8>(), any::<bool>()), 1..24)
    ) {
        let bed = Bed::new();
        // live: (offset, len, fill)
        let mut live: Vec<(u64, u64, u8)> = Vec::new();
        for (len, fill, do_free) in script {
            if do_free && !live.is_empty() {
                let (offset, len, _) = live.remove(fill as usize % live.len());
                let _: () = bed.call("free", &(offset, len)).unwrap();
                continue;
            }
            let offset: u64 = bed.call("alloc", &len).unwrap();
            // No overlap with any live block.
            for (o, l, _) in &live {
                prop_assert!(
                    offset + len <= *o || o + l <= offset,
                    "new block [{offset}, +{len}) overlaps [{o}, +{l})"
                );
            }
            let _: () = bed
                .call("write", &(offset, vec![fill; len as usize]))
                .unwrap();
            live.push((offset, len, fill));
            // Every live block still holds its fill byte.
            for (o, l, f) in &live {
                let data: Vec<u8> = bed.call("read", &(*o, *l)).unwrap();
                prop_assert!(data.iter().all(|b| b == f), "block at {o} corrupted");
            }
        }
    }

    /// Freeing everything allows the space to be reused: allocations
    /// after a full free cycle do not run the heap out.
    #[test]
    fn heap_space_is_reused(rounds in 2u32..6, len in 64u64..2048) {
        let bed = Bed::new();
        let mut first_round: Vec<u64> = Vec::new();
        for round in 0..rounds {
            let mut offsets = Vec::new();
            for _ in 0..8 {
                let offset: u64 = bed.call("alloc", &len).unwrap();
                offsets.push(offset);
            }
            if round == 0 {
                first_round = offsets.clone();
            } else {
                // Reuse: at least one block lands on a first-round slot.
                prop_assert!(
                    offsets.iter().any(|o| first_round.contains(o)),
                    "no reuse: {offsets:?} vs {first_round:?}"
                );
            }
            for &offset in &offsets {
                let _: () = bed.call("free", &(offset, len)).unwrap();
            }
        }
    }
}
