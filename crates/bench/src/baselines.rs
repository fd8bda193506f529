//! Simulated FTP- and NFS-style transfer baselines for experiment E2.3.
//!
//! The paper compares RaTP's 11.9 ms 8 KB transfer against "70 ms using
//! Unix FTP and 50 ms using Unix NFS". We cannot run 1988's TCP stack,
//! so the baselines model what made those numbers slow, over the same
//! simulated Ethernet:
//!
//! * **FTP-sim** — stop-and-wait over a byte stream: a connection
//!   handshake, then one 512-byte data block per round trip (each block
//!   individually acknowledged, with per-block protocol processing on
//!   both ends), then a teardown exchange.
//! * **NFS-sim** — block RPC: `lookup` + `getattr`, then one
//!   request/reply RPC per 1 KB block (NFS2-era rsize), each paying UDP
//!   RPC processing on both ends.
//!
//! Both run over real `clouds-simnet` frames, so their costs respond to
//! the same cost-model knobs as RaTP — the *ordering* RaTP < NFS < FTP
//! is structural (fewer round trips), not hard-coded.

use bytes::Bytes;
use clouds_simnet::{Endpoint, Network, NodeId, Vt};
use std::time::Duration;

const RECV_TIMEOUT: Duration = Duration::from_secs(5);

/// Per-block software processing charged by the old stacks (TCP/UDP +
/// RPC + user/kernel copies on a Sun-3).
const STACK_PROCESSING: Vt = Vt::from_micros(650);

fn echo_server(endpoint: Endpoint, blocks: usize, ack: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for _ in 0..blocks {
            let Ok(frame) = endpoint.recv_timeout(RECV_TIMEOUT) else {
                return;
            };
            endpoint.clock().charge(STACK_PROCESSING);
            let _ = endpoint.send(frame.src, Bytes::from(vec![0u8; ack]));
        }
    })
}

/// Transfer `total` bytes with FTP-like stop-and-wait 512 B blocks.
/// Returns the sender-observed virtual duration.
pub fn ftp_sim(net: &Network, total: usize) -> Vt {
    let a = net.register(NodeId(61)).expect("fresh node");
    let b = net.register(NodeId(62)).expect("fresh node");
    let blocks = total.div_ceil(512);
    // Control connection: SYN-ish handshake + PORT/RETR exchange.
    let server = echo_server(b, blocks + 2, 32);
    let start = a.clock().now();
    for _ in 0..2 {
        a.clock().charge(STACK_PROCESSING);
        a.send(NodeId(62), Bytes::from(vec![0u8; 64])).unwrap();
        let _ = a.recv_timeout(RECV_TIMEOUT).unwrap();
        a.clock().charge(STACK_PROCESSING);
    }
    // Data: one block per round trip.
    for i in 0..blocks {
        let len = 512.min(total - i * 512);
        a.clock().charge(STACK_PROCESSING);
        a.send(NodeId(62), Bytes::from(vec![0u8; len])).unwrap();
        let _ = a.recv_timeout(RECV_TIMEOUT).unwrap();
        a.clock().charge(STACK_PROCESSING);
    }
    let elapsed = a.clock().now() - start;
    server.join().expect("ftp server");
    elapsed
}

/// Read `total` bytes with NFS-like 1 KB block RPCs.
pub fn nfs_sim(net: &Network, total: usize) -> Vt {
    let a = net.register(NodeId(63)).expect("fresh node");
    let b = net.register(NodeId(64)).expect("fresh node");
    let blocks = total.div_ceil(1024);
    // Server replies with the block payload per request.
    let server = {
        std::thread::spawn(move || {
            // lookup + getattr.
            for _ in 0..2 {
                let Ok(frame) = b.recv_timeout(RECV_TIMEOUT) else {
                    return;
                };
                b.clock().charge(STACK_PROCESSING);
                let _ = b.send(frame.src, Bytes::from(vec![0u8; 96]));
            }
            let mut sent = 0usize;
            while sent < total {
                let Ok(frame) = b.recv_timeout(RECV_TIMEOUT) else {
                    return;
                };
                b.clock().charge(STACK_PROCESSING);
                let len = 1024.min(total - sent);
                let _ = b.send(frame.src, Bytes::from(vec![0u8; len + 128]));
                sent += len;
            }
        })
    };
    let start = a.clock().now();
    for _ in 0..2 {
        a.clock().charge(STACK_PROCESSING);
        a.send(NodeId(64), Bytes::from(vec![0u8; 96])).unwrap();
        let _ = a.recv_timeout(RECV_TIMEOUT).unwrap();
        a.clock().charge(STACK_PROCESSING);
    }
    for _ in 0..blocks {
        a.clock().charge(STACK_PROCESSING);
        a.send(NodeId(64), Bytes::from(vec![0u8; 120])).unwrap();
        let _ = a.recv_timeout(RECV_TIMEOUT).unwrap();
        a.clock().charge(STACK_PROCESSING);
    }
    let elapsed = a.clock().now() - start;
    server.join().expect("nfs server");
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use clouds_simnet::CostModel;

    #[test]
    fn baselines_order_matches_paper() {
        let net = Network::new(CostModel::sun3_ethernet());
        let ftp = ftp_sim(&net, 8192);
        let net2 = Network::new(CostModel::sun3_ethernet());
        let nfs = nfs_sim(&net2, 8192);
        // Paper: FTP 70 ms > NFS 50 ms (> RaTP 11.9 ms, asserted in the
        // network experiment).
        assert!(ftp > nfs, "ftp {ftp} vs nfs {nfs}");
        assert!(nfs > Vt::from_millis(20), "nfs {nfs}");
        assert!(ftp < Vt::from_millis(140), "ftp {ftp}");
    }
}
