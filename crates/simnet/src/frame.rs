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

/// The frames one hand-over gives a node, in the order they reach it:
/// what a bound endpoint's sink is called with (see
/// [`Endpoint::bind`](crate::Endpoint::bind)). All of a burst's frames
/// that survive the wire come in one delivery, unless a fault-schedule
/// event falls inside the burst. The first frame is held inline, so a
/// delivery of one frame allocates nothing.
#[derive(Debug, Default)]
pub struct Delivery {
    first: Option<Frame>,
    rest: std::vec::IntoIter<Frame>,
}

impl Iterator for Delivery {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        self.first.take().or_else(|| self.rest.next())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = usize::from(self.first.is_some()) + self.rest.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for Delivery {}

impl From<Vec<Frame>> for Delivery {
    fn from(frames: Vec<Frame>) -> Delivery {
        Delivery {
            first: None,
            rest: frames.into_iter(),
        }
    }
}

/// A [`Delivery`] being gathered: the first frame inline, the rest in a
/// vector allocated only once there is a second, at the size the burst
/// announced.
#[derive(Debug, Default)]
pub(crate) struct Gather {
    first: Option<Frame>,
    rest: Vec<Frame>,
    /// How many frames the burst is expected to bring.
    expected: usize,
}

impl Gather {
    pub(crate) fn expecting(expected: usize) -> Gather {
        Gather {
            expected,
            ..Gather::default()
        }
    }

    pub(crate) fn push(&mut self, frame: Frame) {
        if self.first.is_none() {
            self.first = Some(frame);
        } else {
            if self.rest.capacity() == 0 {
                self.rest.reserve(self.expected.saturating_sub(1));
            }
            self.rest.push(frame);
        }
    }

    pub(crate) fn extend(&mut self, frames: impl IntoIterator<Item = Frame>) {
        for frame in frames {
            self.push(frame);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// What has been gathered, leaving this empty.
    pub(crate) fn take(&mut self) -> Delivery {
        Delivery {
            first: self.first.take(),
            rest: std::mem::take(&mut self.rest).into_iter(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(byte: u8) -> Frame {
        Frame {
            src: NodeId(1),
            dst: NodeId(2),
            payload: Bytes::from(vec![byte]),
            arrival: Vt::ZERO,
        }
    }

    #[test]
    fn a_delivery_yields_what_was_gathered_in_order() {
        let mut gather = Gather::default();
        assert!(gather.is_empty() && gather.take().len() == 0);
        gather.push(frame(0));
        gather.extend([frame(1), frame(2)]);
        let delivery = gather.take();
        assert!(gather.is_empty());
        assert_eq!(delivery.len(), 3);
        let bytes: Vec<u8> = delivery.map(|f| f.payload[0]).collect();
        assert_eq!(bytes, [0, 1, 2]);
        // One frame stays inline: the vector is never allocated.
        gather.push(frame(3));
        assert_eq!(gather.rest.capacity(), 0);
        assert_eq!(gather.take().next().map(|f| f.payload[0]), Some(3));
    }

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
