//! Property-based tests on the lock manager's compatibility invariants
//! and on DSM one-copy semantics against a sequential model.

use clouds_dsm::{LockMode, LockOutcome, LockService};
use clouds_ra::SysName;
use proptest::prelude::*;
use std::time::Duration;

fn seg(n: u64) -> SysName {
    SysName::from_parts(77, n)
}

#[derive(Debug, Clone, Default)]
struct ModelLock {
    readers: Vec<u64>,
    /// Writer and its re-entrancy count.
    writer: Option<(u64, u32)>,
}

proptest! {
    /// Random non-blocking acquire/release sequences: the service grants
    /// exactly when a standard readers-writer model (with re-entrancy
    /// and sole-reader upgrade) would.
    #[test]
    fn lock_service_matches_rw_model(
        ops in prop::collection::vec(
            (0u64..3, 0u64..4, any::<bool>(), any::<bool>()),
            1..60,
        )
    ) {
        let service = LockService::default();
        // Per-(seg, owner) hold counts to mirror re-entrancy precisely.
        let mut model: std::collections::BTreeMap<u64, ModelLock> = Default::default();
        for (s, owner, exclusive, release) in ops {
            let entry = model.entry(s).or_default();
            if release {
                // Release one hold (writer first), as the service does.
                let had = matches!(entry.writer, Some((w, _)) if w == owner)
                    || entry.readers.contains(&owner);
                let got = service.release(seg(s), owner);
                prop_assert_eq!(got.is_some(), had, "release mismatch at seg {}", s);
                if had {
                    match &mut entry.writer {
                        Some((w, n)) if *w == owner => {
                            *n -= 1;
                            if *n == 0 {
                                entry.writer = None;
                            }
                        }
                        _ => {
                            if let Some(pos) =
                                entry.readers.iter().position(|&r| r == owner)
                            {
                                entry.readers.remove(pos);
                            }
                        }
                    }
                }
                continue;
            }
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            let writer_ok =
                entry.writer.is_none() || matches!(entry.writer, Some((w, _)) if w == owner);
            let can = match mode {
                LockMode::Shared => writer_ok,
                LockMode::Exclusive => {
                    writer_ok && entry.readers.iter().all(|&r| r == owner)
                }
            };
            let got = service.acquire(seg(s), mode, owner, Duration::ZERO);
            prop_assert_eq!(
                got == LockOutcome::Granted,
                can,
                "acquire mismatch: seg {} owner {} mode {:?} model {:?}",
                s, owner, mode, entry
            );
            if can {
                match mode {
                    LockMode::Shared => entry.readers.push(owner),
                    LockMode::Exclusive => match &mut entry.writer {
                        Some((_, n)) => *n += 1,
                        None => entry.writer = Some((owner, 1)),
                    },
                }
            }
        }
    }

    /// release_all always leaves every touched segment acquirable.
    #[test]
    fn release_all_frees_for_everyone(
        grabs in prop::collection::vec((0u64..4, 0u64..3, any::<bool>()), 1..30)
    ) {
        let service = LockService::default();
        for &(s, owner, exclusive) in &grabs {
            let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
            let _ = service.acquire(seg(s), mode, owner, Duration::ZERO);
        }
        for owner in 0..3u64 {
            service.release_all(owner);
        }
        for s in 0..4u64 {
            prop_assert_eq!(
                service.acquire(seg(s), LockMode::Exclusive, 99, Duration::ZERO),
                LockOutcome::Granted
            );
        }
    }
}

mod one_copy {
    use clouds_dsm::{DsmClientPartition, DsmServer};
    use clouds_ra::{AddressSpace, PageCache, Partition, SysName, PAGE_SIZE};
    use clouds_ratp::{RatpConfig, RatpNode};
    use clouds_simnet::{CostModel, Network, NodeId};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// One-copy semantics against a sequential model: any sequence
        /// of single-threaded reads/writes from randomly chosen nodes
        /// behaves exactly like one flat byte array.
        #[test]
        fn dsm_equals_sequential_model(
            ops in prop::collection::vec(
                (0u8..3, 0u64..(2 * PAGE_SIZE as u64 - 8), any::<u64>(), any::<bool>()),
                1..30,
            )
        ) {
            let net = Network::new(CostModel::zero());
            let ds = RatpNode::spawn(net.register(NodeId(100)).unwrap(), RatpConfig::default());
            let _server = DsmServer::install(&ds);
            let seg = SysName::from_parts(5, 5);
            let spaces: Vec<AddressSpace> = (0..3)
                .map(|i| {
                    let ratp = RatpNode::spawn(
                        net.register(NodeId(1 + i)).unwrap(),
                        RatpConfig::default(),
                    );
                    let cache = Arc::new(PageCache::new(8));
                    let part =
                        DsmClientPartition::install(&ratp, Arc::clone(&cache), vec![NodeId(100)]);
                    if i == 0 {
                        part.create_segment(seg, 2 * PAGE_SIZE as u64).unwrap();
                    }
                    let mut s = AddressSpace::new(cache, part as Arc<dyn Partition>);
                    s.map(0, seg, 0, 2 * PAGE_SIZE as u64, true).unwrap();
                    s
                })
                .collect();

            let mut model = vec![0u8; 2 * PAGE_SIZE];
            for (node, offset, value, is_write) in ops {
                let space = &spaces[node as usize];
                if is_write {
                    space.write_u64(offset, value).unwrap();
                    model[offset as usize..offset as usize + 8]
                        .copy_from_slice(&value.to_le_bytes());
                } else {
                    let got = space.read_u64(offset).unwrap();
                    let want = u64::from_le_bytes(
                        model[offset as usize..offset as usize + 8].try_into().unwrap(),
                    );
                    prop_assert_eq!(got, want, "node {} offset {}", node, offset);
                }
            }
        }
    }
}
