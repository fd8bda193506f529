//! Host-speed correction.
//!
//! The reference box is a 2-vCPU microVM on a shared host, and its
//! speed is not constant: a fixed piece of work takes anywhere between
//! 1× and 1.5× its best time, in plateaus that last from half a second
//! to over a minute (neighbours on the sibling hyperthread and in the
//! shared cache; the guest sees no steal time). Uncorrected, ten
//! back-to-back runs of one binary spread (IQR/median) 9–14 % in
//! throughput and p50 on *every* workload, and no estimator confined to
//! one run — medians over slices, best-slice selection — removes that,
//! because whole runs fall into a slow plateau.
//!
//! So the closed loop is cut into [`SLICE`]-long slices and a frozen
//! *yardstick* is timed between them: a fixed amount of work of the two
//! kinds the stack itself does, written against `std` only so that no
//! product change can touch it.
//!
//! * **echo** — [`ECHOES`] request/reply round trips through two
//!   long-lived "node" threads that hand every message to a fresh
//!   handler thread: small messages, thread wake-ups, thread-per-request
//!   (what a RaTP transaction costs the OS).
//! * **memory** — [`TOUCH_THREADS`] short-lived threads that each fill
//!   and sum 64 KiB and hand the sum back, and [`COPIES`] copies of
//!   256 KiB (what moving pages around costs).
//!
//! Each workload commits which kinds it is scaled by ([`Mix`]): the one
//! that tracked it best over eight interleaved 10-second runs per
//! workload (IQR/median of throughput, uncorrected → corrected:
//! `kv_get` 14 → 2 %, `kv_put` 9 → 2 %, `page_scan` 13 → 1.5 %,
//! `ledger_2pc` 14.5 → 2 %; a memory-only yardstick leaves `kv_get` at
//! 11 %, an echo-only one leaves `page_scan` at 6 %). An op's latency is
//! multiplied by `reference / mean of the two yardsticks bracketing its
//! slice`: the wall time it would have taken had the host run the
//! yardstick in its quiet-state reference time. The absolute level of a
//! corrected number therefore carries a workload-specific factor near
//! one; compare a workload with itself. Uncorrected numbers are printed
//! next to the corrected ones and reported as `host.wall_*`.

use std::hint::black_box;
use std::sync::mpsc::{channel, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Length of a slice of the closed loop (a slice ends at the first op
/// boundary past it). One yardstick per slice costs ≈ 3 % of the run.
pub const SLICE: Duration = Duration::from_millis(25);

/// Quiet-state time of the echo part on the reference box, ns.
const ECHO_REF_NS: u64 = 300_000;
/// Quiet-state time of the memory part on the reference box, ns.
const MEMORY_REF_NS: u64 = 300_000;

const ECHOES: usize = 4;
const ECHO_BYTES: usize = 64;
const TOUCH_THREADS: usize = 8;
const TOUCH_BYTES: usize = 64 * 1024;
const COPY_BYTES: usize = 256 * 1024;
const COPIES: usize = 4;

/// Which yardstick kinds a workload's wall times are scaled by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub echo: bool,
    pub memory: bool,
}

/// One timing of the yardstick.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reading {
    echo_ns: u64,
    memory_ns: u64,
}

impl Reading {
    /// The reading under `mix`, ns.
    pub fn ns(self, mix: Mix) -> f64 {
        let pick = |on: bool, ns: u64| if on { ns as f64 } else { 0.0 };
        pick(mix.echo, self.echo_ns) + pick(mix.memory, self.memory_ns)
    }
}

/// Factor that turns a wall duration measured between two yardsticks
/// into its reference-speed equivalent.
pub fn factor(mix: Mix, before: Reading, after: Reading) -> f64 {
    let reference = Reading {
        echo_ns: ECHO_REF_NS,
        memory_ns: MEMORY_REF_NS,
    };
    let mean = (before.ns(mix) + after.ns(mix)) / 2.0;
    if mean > 0.0 {
        reference.ns(mix) / mean
    } else {
        1.0
    }
}

/// A message to an echo node: the payload and where the reply goes.
struct Message {
    payload: Vec<u8>,
    reply: Sender<Vec<u8>>,
}

/// Start an echo node: a long-lived thread that hands each message to a
/// fresh handler thread, which either forwards it to `next` and relays
/// the answer or, on the last node, answers it. The node exits (joining
/// its last handler) once every sender to it is dropped.
fn spawn_node(next: Option<Sender<Message>>) -> (Sender<Message>, JoinHandle<()>) {
    let (tx, rx) = channel::<Message>();
    let node = std::thread::spawn(move || {
        let mut handler: Option<JoinHandle<()>> = None;
        while let Ok(message) = rx.recv() {
            // One message is in flight at a time, so the previous
            // handler has answered already; reap it.
            if let Some(done) = handler.take() {
                done.join().expect("echo handler does not panic");
            }
            let next = next.clone();
            handler = Some(std::thread::spawn(move || {
                let answer = match next {
                    Some(next) => round_trip(&next, message.payload),
                    None => message.payload,
                };
                // The requester waits for exactly this answer.
                message.reply.send(answer).expect("echo requester alive");
            }));
        }
        if let Some(done) = handler {
            done.join().expect("echo handler does not panic");
        }
    });
    (tx, node)
}

fn round_trip(node: &Sender<Message>, payload: Vec<u8>) -> Vec<u8> {
    let (reply, answer) = channel();
    node.send(Message { payload, reply })
        .expect("echo node alive");
    answer.recv().expect("echo node answers")
}

/// The yardstick's fixtures: copy buffers and the two echo nodes.
pub struct Yardstick {
    src: Vec<u8>,
    dst: Vec<u8>,
    first_node: Option<Sender<Message>>,
    nodes: Vec<JoinHandle<()>>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let (second, second_thread) = spawn_node(None);
        let (first, first_thread) = spawn_node(Some(second));
        Yardstick {
            src: vec![7u8; COPY_BYTES],
            dst: vec![0u8; COPY_BYTES],
            first_node: Some(first),
            nodes: vec![first_thread, second_thread],
        }
    }

    /// Do the fixed work once and time its two parts.
    pub fn measure(&mut self) -> Reading {
        let first_node = self.first_node.as_ref().expect("nodes live until drop");
        let t0 = Instant::now();
        for _ in 0..ECHOES {
            // A client thread per request, as a workstation starts one.
            let node = first_node.clone();
            let client = std::thread::spawn(move || round_trip(&node, vec![1u8; ECHO_BYTES]));
            black_box(client.join().expect("echo client does not panic"));
        }
        let echo_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        for _ in 0..TOUCH_THREADS {
            let worker = std::thread::spawn(|| {
                let buf = vec![1u8; TOUCH_BYTES];
                buf.iter().map(|b| u64::from(*b)).sum::<u64>()
            });
            black_box(worker.join().expect("touch worker does not panic"));
        }
        for _ in 0..COPIES {
            self.dst.copy_from_slice(&self.src);
            black_box(&self.dst);
        }
        Reading {
            echo_ns,
            memory_ns: t1.elapsed().as_nanos() as u64,
        }
    }
}

impl Drop for Yardstick {
    fn drop(&mut self) {
        // Closing the first node's channel stops it, which drops its
        // sender to the second node and stops that one too.
        self.first_node = None;
        for node in self.nodes.drain(..) {
            // A node that panicked already failed the run loudly; there
            // is nothing to add from a destructor.
            let _ = node.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: Mix = Mix {
        echo: true,
        memory: true,
    };
    const ECHO: Mix = Mix {
        echo: true,
        memory: false,
    };

    #[test]
    fn factor_is_one_at_reference_speed_and_scales_inversely() {
        let at = |echo_ns, memory_ns| Reading { echo_ns, memory_ns };
        let reference = at(ECHO_REF_NS, MEMORY_REF_NS);
        assert_eq!(factor(BOTH, reference, reference), 1.0);
        assert_eq!(factor(ECHO, reference, reference), 1.0);
        // Host at half speed on both kinds.
        let slow = at(2 * ECHO_REF_NS, 2 * MEMORY_REF_NS);
        assert_eq!(factor(BOTH, slow, slow), 0.5);
        // The mean of the bracketing readings counts; a kind that is
        // not in the mix does not.
        assert_eq!(factor(ECHO, at(200_000, 9), at(400_000, 9_999_999)), 1.0);
        assert_eq!(factor(BOTH, at(0, 0), at(0, 0)), 1.0);
    }

    #[test]
    fn yardstick_does_its_work_and_stops_its_threads() {
        let mut y = Yardstick::new();
        let reading = y.measure();
        assert!(reading.echo_ns > 0 && reading.memory_ns > 0);
        assert!(y.dst.iter().all(|b| *b == 7));
        assert_eq!(
            round_trip(y.first_node.as_ref().expect("live"), vec![9; 3]),
            vec![9; 3]
        );
        drop(y); // joins both nodes; a hang here fails the test by timeout
    }
}
