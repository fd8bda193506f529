//! Link-level frames.

use crate::time::Vt;
use crate::NodeId;
use bytes::Bytes;

/// Maximum payload of a single frame, in bytes (Ethernet MTU).
///
/// Larger transfers must be fragmented by the transport layer
/// (`clouds-ratp`), exactly as RaTP did over the real Ethernet.
pub const MTU: usize = 1500;

/// A frame delivered by the simulated network.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload (at most [`MTU`] bytes).
    pub payload: Bytes,
    /// Virtual-time instant at which the frame reaches the destination.
    pub arrival: Vt,
}

impl Frame {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_len() {
        let f = Frame {
            src: NodeId(1),
            dst: NodeId(2),
            payload: Bytes::from_static(b"abc"),
            arrival: Vt::ZERO,
        };
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
    }
}
