//! E2 — network microbenchmarks (§4.3 ¶2–3).
//!
//! Paper: "The Ethernet round-trip time is 2.4 ms; this involves sending
//! and receiving a short message (72 bytes) between two compute servers.
//! The RaTP reliable round-trip time is 4.8 ms. To reliably transfer an
//! 8K page from one machine to another costs 11.9 ms, compared to 70 ms
//! using Unix FTP and 50 ms using Unix NFS."

use crate::baselines;
use bytes::Bytes;
use clouds_ratp::{RatpConfig, RatpNode, Request};
use clouds_simnet::{CostModel, Network, NodeId, Vt};
use std::time::Duration;

/// Measured results of the network benchmarks (virtual time).
#[derive(Debug, Clone, Copy)]
pub struct NetworkResults {
    /// Raw frame echo, 72-byte message.
    pub ethernet_rtt: Vt,
    /// Null RaTP transaction.
    pub ratp_rtt: Vt,
    /// 8 KB one-way reliable transfer over RaTP.
    pub ratp_8k: Vt,
    /// 8 KB via the FTP-like baseline.
    pub ftp_8k: Vt,
    /// 8 KB via the NFS-like baseline.
    pub nfs_8k: Vt,
}

/// Raw Ethernet echo round trip for a payload of `len` bytes.
pub fn ethernet_rtt(net: &Network, len: usize) -> Vt {
    let a = net.register(NodeId(51)).expect("fresh node");
    let b = net.register(NodeId(52)).expect("fresh node");
    let echo = std::thread::spawn(move || {
        if let Ok(frame) = b.recv_timeout(Duration::from_secs(5)) {
            let _ = b.send(frame.src, frame.payload);
        }
    });
    let start = a.clock().now();
    a.send(NodeId(52), Bytes::from(vec![0u8; len])).unwrap();
    let _ = a.recv_timeout(Duration::from_secs(5)).unwrap();
    let rtt = a.clock().now() - start;
    echo.join().expect("echo thread");
    rtt
}

/// One-way reliable transfer of `len` bytes over RaTP: the client sends
/// the payload, the server replies with a short acknowledgement. The
/// measured duration is the sender's virtual time until the ack.
pub fn ratp_transfer(net: &Network, len: usize) -> Vt {
    let a = RatpNode::spawn(
        net.register(NodeId(53)).expect("fresh"),
        RatpConfig::default(),
    );
    let b = RatpNode::spawn(
        net.register(NodeId(54)).expect("fresh"),
        RatpConfig::default(),
    );
    b.register_service(1, |_req: Request| Bytes::new());
    let start = a.clock().now();
    a.call(NodeId(54), 1, Bytes::from(vec![0u8; len])).unwrap();
    a.clock().now() - start
}

/// Null (empty-payload) RaTP transaction round trip.
pub fn ratp_null_rtt(net: &Network) -> Vt {
    ratp_transfer(net, 0)
}

/// Run the whole E2 suite (each measurement on a fresh network so the
/// clocks start at zero).
pub fn run() -> NetworkResults {
    let cost = CostModel::sun3_ethernet();
    let ethernet = ethernet_rtt(&Network::new(cost.clone()), 72);
    let ratp = ratp_null_rtt(&Network::new(cost.clone()));
    let ratp8k = ratp_transfer(&Network::new(cost.clone()), 8192);
    let ftp = baselines::ftp_sim(&Network::new(cost.clone()), 8192);
    let nfs = baselines::nfs_sim(&Network::new(cost), 8192);
    NetworkResults {
        ethernet_rtt: ethernet,
        ratp_rtt: ratp,
        ratp_8k: ratp8k,
        ftp_8k: ftp,
        nfs_8k: nfs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_matches_paper_shape() {
        let r = run();
        // Exact calibration points.
        assert_eq!(r.ethernet_rtt, Vt::from_micros(2400)); // paper: 2.4 ms
                                                           // Paper: 4.8 ms. A null transaction's packets are 33 bytes on
                                                           // the wire (RaTP header only) vs the 72-byte calibration
                                                           // message, so the model lands ~2% under.
        assert!(r.ratp_rtt >= Vt::from_micros(4600), "{}", r.ratp_rtt);
        assert!(r.ratp_rtt <= Vt::from_micros(4900), "{}", r.ratp_rtt);
        // 8K transfer: paper 11.9 ms; ours must be in the same band and
        // strictly ordered against the baselines.
        assert!(r.ratp_8k >= Vt::from_millis(8), "{}", r.ratp_8k);
        assert!(r.ratp_8k <= Vt::from_millis(18), "{}", r.ratp_8k);
        assert!(r.ratp_8k < r.nfs_8k, "ratp {} nfs {}", r.ratp_8k, r.nfs_8k);
        assert!(r.nfs_8k < r.ftp_8k, "nfs {} ftp {}", r.nfs_8k, r.ftp_8k);
    }
}
