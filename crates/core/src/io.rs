//! The user I/O manager (§4.2).
//!
//! "This system object provides support for Clouds computations to read
//! from and write to user terminals. A user terminal is a window on a
//! Unix workstation. When a thread executes a write system call, the I/O
//! manager routes the data written to the appropriate controlling
//! terminal … All output generated by the thread (regardless of where
//! it is executing) appears on the user terminal window" (§3.1).
//!
//! A workstation runs one [`UserIoManager`]; each Clouds thread created
//! from it owns a terminal (keyed by thread id). Compute servers route
//! `write`/`read` system calls here over RaTP.

use clouds_ratp::{RatpNode, Request};
use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RaTP port of the user I/O manager.
pub const USER_IO_PORT: u16 = clouds_dsm::ports::USER_IO;

/// Requests from compute servers to a workstation's I/O manager.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum IoRequest {
    /// Append text to the thread's terminal.
    Write {
        /// Thread id (raw).
        thread: u64,
        /// Text to append.
        text: String,
    },
    /// Take one input line typed at the thread's terminal, waiting up to
    /// `wait_ms`.
    ReadLine {
        /// Thread id (raw).
        thread: u64,
        /// Maximum wait in milliseconds.
        wait_ms: u64,
    },
}

/// Replies from the I/O manager.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoReply {
    /// Write accepted.
    Ok,
    /// An input line.
    Line(String),
    /// No input arrived before the deadline.
    NoInput,
}

#[derive(Debug, Default)]
struct Terminal {
    output: String,
    input: VecDeque<String>,
}

/// A workstation's terminal multiplexer.
#[derive(Default)]
pub struct UserIoManager {
    terminals: Mutex<BTreeMap<u64, Terminal>>,
    input_cvar: Condvar,
    /// Keeps the node's transport alive.
    _ratp: Option<Arc<RatpNode>>,
}

impl fmt::Debug for UserIoManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UserIoManager")
            .field("terminals", &self.terminals.lock().len())
            .finish()
    }
}

impl UserIoManager {
    /// Create the manager and register its service on this node.
    pub fn install(ratp: &Arc<RatpNode>) -> Arc<UserIoManager> {
        let manager = Arc::new(UserIoManager {
            _ratp: Some(Arc::clone(ratp)),
            ..Default::default()
        });
        let handler = Arc::clone(&manager);
        ratp.register_service(USER_IO_PORT, move |req: Request| {
            let reply = match clouds_codec::from_bytes::<IoRequest>(&req.payload) {
                Ok(IoRequest::Write { thread, text }) => {
                    handler.write(thread, &text);
                    IoReply::Ok
                }
                Ok(IoRequest::ReadLine { thread, wait_ms }) => {
                    match handler.read_line(thread, Duration::from_millis(wait_ms)) {
                        Some(line) => IoReply::Line(line),
                        None => IoReply::NoInput,
                    }
                }
                Err(_) => IoReply::NoInput,
            };
            bytes::Bytes::from(clouds_codec::to_bytes(&reply).expect("reply encodes"))
        });
        manager
    }

    /// Append text to a thread's terminal.
    pub fn write(&self, thread: u64, text: &str) {
        self.terminals
            .lock()
            .entry(thread)
            .or_default()
            .output
            .push_str(text);
    }

    /// Take one line of input for `thread`, waiting up to `wait`.
    pub fn read_line(&self, thread: u64, wait: Duration) -> Option<String> {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock read_line deadline, until it runs on virtual time"
        )]
        let deadline = Instant::now() + wait;
        let mut terminals = self.terminals.lock();
        loop {
            if let Some(line) = terminals.entry(thread).or_default().input.pop_front() {
                return Some(line);
            }
            if self
                .input_cvar
                .wait_until(&mut terminals, deadline)
                .timed_out()
            {
                return terminals.entry(thread).or_default().input.pop_front();
            }
        }
    }

    /// Type a line at a thread's terminal (the user's keyboard).
    pub fn push_input(&self, thread: u64, line: &str) {
        self.terminals
            .lock()
            .entry(thread)
            .or_default()
            .input
            .push_back(line.to_string());
        self.input_cvar.notify_all();
    }

    /// Everything the thread has printed so far.
    pub fn output_of(&self, thread: u64) -> String {
        self.terminals
            .lock()
            .get(&thread)
            .map(|t| t.output.clone())
            .unwrap_or_default()
    }

    /// Output of every terminal, ordered by thread id.
    pub fn all_output(&self) -> String {
        self.terminals
            .lock()
            .values()
            .map(|t| t.output.as_str())
            .collect()
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "lets the reader block before the line is typed"
)]
mod tests {
    use super::*;

    #[test]
    fn write_accumulates_per_thread() {
        let io = UserIoManager::default();
        io.write(1, "hello ");
        io.write(1, "world\n");
        io.write(2, "other\n");
        assert_eq!(io.output_of(1), "hello world\n");
        assert_eq!(io.output_of(2), "other\n");
        assert_eq!(io.output_of(3), "");
        assert_eq!(io.all_output(), "hello world\nother\n");
    }

    #[test]
    fn read_line_returns_queued_input() {
        let io = UserIoManager::default();
        io.push_input(1, "first");
        io.push_input(1, "second");
        assert_eq!(io.read_line(1, Duration::ZERO), Some("first".into()));
        assert_eq!(io.read_line(1, Duration::ZERO), Some("second".into()));
        assert_eq!(io.read_line(1, Duration::from_millis(10)), None);
    }

    #[test]
    fn read_line_wakes_on_input() {
        let io = Arc::new(UserIoManager::default());
        let io2 = Arc::clone(&io);
        let reader =
            std::thread::spawn(move || io2.read_line(7, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        io.push_input(7, "typed");
        assert_eq!(reader.join().unwrap(), Some("typed".into()));
    }

    #[test]
    fn over_the_wire_roundtrip() {
        use clouds_ratp::RatpConfig;
        use clouds_simnet::{CostModel, Network, NodeId};
        let net = Network::new(CostModel::zero());
        let ws = RatpNode::spawn(net.register(NodeId(200)).unwrap(), RatpConfig::default());
        let io = UserIoManager::install(&ws);
        let cs = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let req = IoRequest::Write {
            thread: 9,
            text: "over the wire\n".into(),
        };
        let reply = cs
            .call(
                NodeId(200),
                USER_IO_PORT,
                bytes::Bytes::from(clouds_codec::to_bytes(&req).unwrap()),
            )
            .unwrap();
        assert_eq!(
            clouds_codec::from_bytes::<IoReply>(&reply).unwrap(),
            IoReply::Ok
        );
        assert_eq!(io.output_of(9), "over the wire\n");
    }
}
