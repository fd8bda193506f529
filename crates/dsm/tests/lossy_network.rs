//! DSM coherence under an unreliable network: RaTP's retransmission
//! must make the coherence protocol loss-transparent — one-copy
//! semantics may never depend on a lucky wire.

use clouds_dsm::{DsmClientPartition, DsmServer};
use clouds_ra::{AddressSpace, PageCache, Partition, SysName, PAGE_SIZE};
use clouds_ratp::{RatpConfig, RatpNode};
use clouds_simnet::{CostModel, Network, NodeId};
use std::sync::Arc;
use std::time::Duration;

fn bed(seed: u64, loss: f64, dup: f64) -> (Network, Vec<AddressSpace>) {
    let net = Network::with_seed(CostModel::zero(), seed);
    let ds = RatpNode::spawn(
        net.register(NodeId(100)).unwrap(),
        RatpConfig {
            retry_interval: Duration::from_millis(8),
            max_retries: 500,
        },
    );
    let _server = Box::leak(Box::new(DsmServer::install(&ds)));
    let seg = SysName::from_parts(3, 3);
    let spaces = (0..2)
        .map(|i| {
            let ratp = RatpNode::spawn(
                net.register(NodeId(1 + i)).unwrap(),
                RatpConfig {
                    retry_interval: Duration::from_millis(8),
                    max_retries: 500,
                },
            );
            let cache = Arc::new(PageCache::new(8));
            let part = DsmClientPartition::install(&ratp, Arc::clone(&cache), vec![NodeId(100)]);
            if i == 0 {
                part.create_segment(seg, 2 * PAGE_SIZE as u64).unwrap();
            }
            let mut s = AddressSpace::new(cache, part as Arc<dyn Partition>);
            s.map(0, seg, 0, 2 * PAGE_SIZE as u64, true).unwrap();
            s
        })
        .collect();
    net.set_loss(loss);
    net.set_duplication(dup);
    (net, spaces)
}

#[test]
fn ping_pong_survives_loss() {
    let (_net, spaces) = bed(31, 0.15, 0.0);
    for round in 0..12u64 {
        spaces[0].write_u64(0, round * 2).unwrap();
        assert_eq!(spaces[1].read_u64(0).unwrap(), round * 2);
        spaces[1].write_u64(0, round * 2 + 1).unwrap();
        assert_eq!(spaces[0].read_u64(0).unwrap(), round * 2 + 1);
    }
}

#[test]
fn ping_pong_survives_duplication() {
    let (_net, spaces) = bed(37, 0.0, 0.4);
    for round in 0..12u64 {
        spaces[0].write_u64(8, round).unwrap();
        assert_eq!(spaces[1].read_u64(8).unwrap(), round);
        spaces[1].write_u64(PAGE_SIZE as u64, round + 100).unwrap();
        assert_eq!(spaces[0].read_u64(PAGE_SIZE as u64).unwrap(), round + 100);
    }
}

#[test]
fn combined_faults_still_one_copy() {
    let (_net, spaces) = bed(41, 0.1, 0.2);
    let mut expected = [0u64; 4];
    for step in 0..40u64 {
        let node = (step % 2) as usize;
        let cell = step % 4;
        let value = step * 7 + 1;
        spaces[node].write_u64(cell * 16, value).unwrap();
        expected[cell as usize] = value;
        // Read back from the *other* node.
        let other = 1 - node;
        assert_eq!(
            spaces[other].read_u64(cell * 16).unwrap(),
            expected[cell as usize],
            "step {step}"
        );
    }
}
