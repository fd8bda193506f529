//! Per-node RaTP state machine: client calls, server dispatch,
//! retransmission and duplicate suppression.

use crate::packet::{fragment, Packet, PacketKind, Reassembly};
use bytes::Bytes;
use clouds_obs::{current_ctx, install_ctx, Counter, Histogram, NodeObs, SpanContext};
use clouds_simnet::{Endpoint, NodeId, RecvError, SendError, VirtualClock, Vt};
use crossbeam::channel::{bounded, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Configuration knobs for a RaTP node.
#[derive(Debug, Clone)]
pub struct RatpConfig {
    /// Initial real-time interval between request retransmissions. The
    /// wait doubles after each silent attempt (capped at 8×) so a dead or
    /// partitioned peer is probed ever more gently.
    pub retry_interval: Duration,
    /// Retransmission budget for [`RatpNode::call`], expressed in units of
    /// `retry_interval`: a call waits at most `(max_retries + 1) ×
    /// retry_interval` of wall-clock time before giving up, however the
    /// backoff spreads the attempts.
    pub max_retries: u32,
    /// Number of answered transactions remembered for duplicate
    /// suppression / reply replay. The encoded replies are also held to
    /// a 4 MiB byte budget, whichever bound bites first.
    pub dup_cache_size: usize,
}

impl Default for RatpConfig {
    fn default() -> Self {
        RatpConfig {
            retry_interval: Duration::from_millis(15),
            max_retries: 400,
            dup_cache_size: 1024,
        }
    }
}

/// Byte budget of the at-most-once reply cache. Entry count alone does
/// not bound it: 1024 multi-page DSM grants are 64 MiB of encoded frames
/// held for replay. Retransmissions arrive within a few transactions of
/// the original, so the budget trims history no retry will ask for.
const DUP_CACHE_BYTES: usize = 4 << 20;

/// The newest replies are kept whatever their size, so a reply larger
/// than the byte budget can still be replayed to the client waiting on
/// it (and to the retries of the calls racing it).
const DUP_CACHE_MIN_ENTRIES: usize = 16;

/// A fully reassembled request handed to a [`Service`].
#[derive(Debug, Clone)]
pub struct Request {
    /// Node that originated the transaction.
    pub src: NodeId,
    /// Request message bytes.
    pub payload: Bytes,
}

/// A server-side message handler bound to a port.
///
/// Handlers run on their own thread and may block — including calling
/// other nodes through the same [`RatpNode`] — without deadlocking the
/// receive loop. Closures `Fn(Request) -> Bytes + Send + Sync` implement
/// this trait automatically.
pub trait Service: Send + Sync + 'static {
    /// Process one request and produce the reply message.
    fn handle(&self, request: Request) -> Bytes;
}

impl<F> Service for F
where
    F: Fn(Request) -> Bytes + Send + Sync + 'static,
{
    fn handle(&self, request: Request) -> Bytes {
        self(request)
    }
}

/// Errors returned by [`RatpNode::call`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CallError {
    /// No reply within the retransmission budget (destination dead,
    /// partitioned, or persistently lossy link).
    TimedOut,
    /// The destination answered but has no service on that port.
    ServiceNotFound(u16),
    /// The local node could not transmit.
    Send(SendError),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::TimedOut => write!(f, "transaction timed out"),
            CallError::ServiceNotFound(p) => write!(f, "no service on port {p}"),
            CallError::Send(e) => write!(f, "send failed: {e}"),
        }
    }
}

impl std::error::Error for CallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CallError::Send(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SendError> for CallError {
    fn from(e: SendError) -> Self {
        CallError::Send(e)
    }
}

struct Pending {
    reply_tx: Sender<Result<Bytes, CallError>>,
    reassembly: Option<Reassembly>,
}

#[derive(Default)]
struct ServerState {
    /// Partially reassembled incoming requests.
    inflight: HashMap<(NodeId, u64), Reassembly>,
    /// Transactions whose handler is currently running.
    executing: HashSet<(NodeId, u64)>,
    /// Answered transactions: encoded reply frames for replay.
    replied: HashMap<(NodeId, u64), Arc<Vec<Bytes>>>,
    /// Eviction order for `replied`.
    replied_order: VecDeque<(NodeId, u64)>,
    /// Encoded bytes held by `replied`.
    replied_bytes: usize,
}

fn frames_len(frames: &[Bytes]) -> usize {
    frames.iter().map(Bytes::len).sum()
}

impl ServerState {
    /// Record an answered transaction for replay, then evict oldest
    /// first down to `max_entries` and [`DUP_CACHE_BYTES`] — but never
    /// into the newest [`DUP_CACHE_MIN_ENTRIES`].
    fn remember_reply(&mut self, key: (NodeId, u64), frames: Arc<Vec<Bytes>>, max_entries: usize) {
        // A cached transaction is replayed, never re-executed, so `key`
        // is not in the cache yet.
        self.replied_bytes += frames_len(&frames);
        self.replied.insert(key, frames);
        self.replied_order.push_back(key);
        while self.replied_order.len() > max_entries
            || (self.replied_bytes > DUP_CACHE_BYTES
                && self.replied_order.len() > DUP_CACHE_MIN_ENTRIES)
        {
            let Some(oldest) = self.replied_order.pop_front() else {
                break;
            };
            if let Some(frames) = self.replied.remove(&oldest) {
                self.replied_bytes -= frames_len(&frames);
            }
        }
    }
}

/// A node's RaTP protocol instance.
///
/// Owns the [`Endpoint`] and a background receive thread; exposes the
/// client side ([`RatpNode::call`]) and the server side
/// ([`RatpNode::register_service`]). See the crate docs for an example.
pub struct RatpNode {
    endpoint: Arc<Endpoint>,
    config: RatpConfig,
    services: RwLock<HashMap<u16, Arc<dyn Service>>>,
    pending: Mutex<HashMap<u64, Pending>>,
    server: Mutex<ServerState>,
    /// Last local virtual time a liveness beacon arrived from each peer.
    /// A `BTreeMap` so iteration (debug dumps, detectors sweeping all
    /// peers) is deterministic.
    heartbeats: Mutex<BTreeMap<NodeId, Vt>>,
    txn_counter: AtomicU64,
    running: AtomicBool,
    obs: Arc<NodeObs>,
    metrics: RatpMetrics,
}

/// Registry-backed transport counters, cached at spawn so the hot path
/// never resolves by name.
struct RatpMetrics {
    calls: Arc<Counter>,
    retransmits: Arc<Counter>,
    timeouts: Arc<Counter>,
    replies: Arc<Counter>,
    replays: Arc<Counter>,
    notifies: Arc<Counter>,
    heartbeats_sent: Arc<Counter>,
    heartbeats_received: Arc<Counter>,
    rtt: Arc<Histogram>,
}

impl RatpMetrics {
    fn new(obs: &NodeObs) -> RatpMetrics {
        RatpMetrics {
            calls: obs.counter("ratp.calls"),
            retransmits: obs.counter("ratp.retransmits"),
            timeouts: obs.counter("ratp.timeouts"),
            replies: obs.counter("ratp.replies"),
            replays: obs.counter("ratp.reply_replays"),
            notifies: obs.counter("ratp.notifies"),
            heartbeats_sent: obs.counter("ratp.heartbeats_sent"),
            heartbeats_received: obs.counter("ratp.heartbeats_received"),
            rtt: obs.histogram("ratp.call"),
        }
    }
}

impl fmt::Debug for RatpNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RatpNode")
            .field("node", &self.endpoint.id())
            .field("services", &self.services.read().len())
            .finish()
    }
}

impl RatpNode {
    /// Attach RaTP to an endpoint and start its receive loop, with a
    /// standalone observability handle (private registry and sink).
    pub fn spawn(endpoint: Endpoint, config: RatpConfig) -> Arc<RatpNode> {
        let obs = NodeObs::solo(endpoint.id().0 as u64, Arc::clone(endpoint.clock()));
        RatpNode::spawn_with_obs(endpoint, config, obs)
    }

    /// [`RatpNode::spawn`] with an explicit [`NodeObs`] — cluster
    /// assembly passes a handle whose [`clouds_obs::TraceSink`] is
    /// shared by every node so traces interleave on one timeline.
    pub fn spawn_with_obs(
        endpoint: Endpoint,
        config: RatpConfig,
        obs: Arc<NodeObs>,
    ) -> Arc<RatpNode> {
        let metrics = RatpMetrics::new(&obs);
        let node = Arc::new(RatpNode {
            endpoint: Arc::new(endpoint),
            config,
            services: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            server: Mutex::new(ServerState::default()),
            heartbeats: Mutex::new(BTreeMap::new()),
            txn_counter: AtomicU64::new(1),
            running: AtomicBool::new(true),
            obs,
            metrics,
        });
        let weak: Weak<RatpNode> = Arc::downgrade(&node);
        std::thread::Builder::new()
            .name(format!("ratp-{}", node.endpoint.id()))
            .spawn(move || receive_loop(weak))
            .expect("spawn ratp receive thread");
        node
    }

    /// This node's network id.
    pub fn node_id(&self) -> NodeId {
        self.endpoint.id()
    }

    /// This node's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        self.endpoint.clock()
    }

    /// This node's observability handle. Layers built on top of a
    /// `RatpNode` (DSM, consistency, PET, invocation) reach their
    /// metrics registry and trace sink through it.
    pub fn obs(&self) -> &Arc<NodeObs> {
        &self.obs
    }

    /// Bind `service` to `port`, replacing any previous binding.
    pub fn register_service<S: Service>(&self, port: u16, service: S) {
        self.services.write().insert(port, Arc::new(service));
    }

    /// Remove the binding on `port`.
    pub fn unregister_service(&self, port: u16) {
        self.services.write().remove(&port);
    }

    /// Discard all volatile protocol state (used when the owning node
    /// crash-restarts: a rebooted machine has no reassembly buffers or
    /// duplicate-suppression memory).
    pub fn reset_volatile_state(&self) {
        self.pending.lock().clear();
        *self.server.lock() = ServerState::default();
        self.heartbeats.lock().clear();
    }

    /// Stop the receive loop. Further calls will time out.
    pub fn shutdown(&self) {
        self.running.store(false, Ordering::Release);
    }

    /// Execute one message transaction with the configured retry budget.
    ///
    /// Blocks the calling thread until the reply arrives or the budget is
    /// exhausted.
    ///
    /// # Errors
    ///
    /// [`CallError::TimedOut`] when no reply arrives,
    /// [`CallError::ServiceNotFound`] when the server has no handler on
    /// `port`, [`CallError::Send`] if the local node cannot transmit
    /// (e.g. it is crashed).
    pub fn call(self: &Arc<Self>, dst: NodeId, port: u16, payload: Bytes) -> Result<Bytes, CallError> {
        self.call_with_budget(dst, port, payload, self.config.max_retries)
    }

    /// Fire-and-forget message: transmit the request once and do not
    /// wait for (or deliver) any reply. Used for acknowledgements where
    /// loss is tolerable because the receiver has a timeout fallback.
    pub fn notify(&self, dst: NodeId, port: u16, payload: Bytes) {
        self.metrics.notifies.inc();
        let txn = self.next_txn();
        // A notify opens no span of its own; it forwards the ambient
        // context so the receiver's handler attaches to the sender's
        // current span.
        let ctx = current_ctx().unwrap_or(SpanContext::NONE);
        for packet in fragment(PacketKind::Notify, port, txn, payload, ctx) {
            self.endpoint.clock().charge(self.cost().transport_packet);
            let _ = self.endpoint.send(dst, packet.encode());
        }
    }

    /// Transmit one liveness beacon to `dst`: a single
    /// [`PacketKind::Heartbeat`] packet stamped with this node's current
    /// virtual time. Fire-and-forget — loss is tolerable because beacons
    /// repeat and the failure detector budgets for gaps.
    pub fn send_heartbeat(&self, dst: NodeId) {
        self.metrics.heartbeats_sent.inc();
        let now = self.endpoint.clock().now();
        let pkt = Packet {
            kind: PacketKind::Heartbeat,
            port: 0,
            txn: 0,
            frag_index: 0,
            frag_count: 1,
            ctx: SpanContext::NONE,
            payload: Bytes::copy_from_slice(&now.as_nanos().to_le_bytes()),
        };
        self.endpoint.clock().charge(self.cost().transport_packet);
        let _ = self.endpoint.send(dst, pkt.encode());
    }

    /// Local virtual time at which the most recent heartbeat from `peer`
    /// arrived, or `None` if none has (since boot or the last
    /// [`RatpNode::reset_volatile_state`]).
    pub fn last_heartbeat(&self, peer: NodeId) -> Option<Vt> {
        self.heartbeats.lock().get(&peer).copied()
    }

    /// [`RatpNode::call`] with an explicit retransmission budget.
    ///
    /// # Errors
    ///
    /// As for [`RatpNode::call`].
    pub fn call_with_budget(
        self: &Arc<Self>,
        dst: NodeId,
        port: u16,
        payload: Bytes,
        max_retries: u32,
    ) -> Result<Bytes, CallError> {
        self.metrics.calls.inc();
        // The call span is a child of whatever span is running on this
        // thread; its context rides in every request fragment so the
        // remote handler's spans become its children in turn. The
        // discriminator is (dst, port) — not txn, whose allocation
        // order is thread-interleaving-dependent.
        let mut span = self
            .obs
            .traced_span("ratp", "call", &format!("dst={} port={}", dst.0, port))
            .with_histogram(Arc::clone(&self.metrics.rtt));
        let txn = self.next_txn();
        let (reply_tx, reply_rx) = bounded(1);
        self.pending.lock().insert(
            txn,
            Pending {
                reply_tx,
                reassembly: None,
            },
        );
        let frames: Vec<Bytes> = fragment(PacketKind::Request, port, txn, payload, span.ctx())
            .into_iter()
            .map(|p| p.encode())
            .collect();

        let result = (|| {
            // Bounded exponential backoff: `remaining` is the wall-clock
            // budget in units of `retry_interval`, and each silent attempt
            // doubles the next wait (capped at 8×). The total time before
            // giving up stays (max_retries + 1) × retry_interval.
            let mut remaining = max_retries as u64 + 1;
            let mut backoff: u64 = 1;
            let mut first_attempt = true;
            while remaining > 0 {
                if !first_attempt {
                    // Wall-clock-triggered, so retransmit events only
                    // appear under loss/partition faults or load.
                    self.metrics.retransmits.inc();
                    self.obs.instant(
                        "ratp",
                        "retransmit",
                        format!("dst={} port={}", dst.0, port),
                    );
                }
                first_attempt = false;
                for frame in &frames {
                    // Transport-layer processing cost per transmitted packet.
                    self.endpoint
                        .clock()
                        .charge(self.cost().transport_packet);
                    self.endpoint.send(dst, frame.clone())?;
                }
                let units = backoff.min(remaining);
                let wait = self.config.retry_interval * units as u32;
                if let Ok(outcome) = reply_rx.recv_timeout(wait) {
                    return outcome;
                }
                remaining -= units;
                backoff = (backoff * 2).min(8);
            }
            Err(CallError::TimedOut)
        })();
        self.pending.lock().remove(&txn);
        if matches!(result, Err(CallError::TimedOut)) {
            self.metrics.timeouts.inc();
        }
        span.set_args(format!(
            "dst={} port={} ok={}",
            dst.0,
            port,
            result.is_ok()
        ));
        span.finish();
        result
    }

    fn cost(&self) -> &clouds_simnet::CostModel {
        self.endpoint.cost_model()
    }

    fn next_txn(&self) -> u64 {
        let counter = self.txn_counter.fetch_add(1, Ordering::Relaxed);
        ((self.endpoint.id().0 as u64) << 32) | (counter & 0xFFFF_FFFF)
    }
}

fn receive_loop(weak: Weak<RatpNode>) {
    loop {
        let Some(node) = weak.upgrade() else { break };
        if !node.running.load(Ordering::Acquire) {
            break;
        }
        match node.endpoint.recv_timeout(Duration::from_millis(25)) {
            Ok(frame) => {
                let src = frame.src;
                if let Some(pkt) = Packet::decode(frame.payload) {
                    node.endpoint.clock().charge(node.cost().transport_packet);
                    // Any inbound traffic is liveness evidence, not just
                    // dedicated beacons: a peer that crashes right after
                    // a burst of requests (before its monitor's first
                    // beacon tick) must still leave a "last alive" stamp
                    // behind, or the failure detector — which treats
                    // never-heard peers as alive — could never declare
                    // it dead.
                    if matches!(
                        pkt.kind,
                        PacketKind::Request | PacketKind::Notify | PacketKind::Heartbeat
                    ) {
                        let heard = node.endpoint.clock().now();
                        node.heartbeats.lock().insert(src, heard);
                    }
                    match pkt.kind {
                        PacketKind::Request => handle_request_fragment(&node, src, pkt),
                        PacketKind::Notify => handle_notify_fragment(&node, src, pkt),
                        PacketKind::Heartbeat => handle_heartbeat(&node, src, pkt),
                        PacketKind::Reply | PacketKind::NoService => {
                            handle_reply_fragment(&node, pkt)
                        }
                    }
                }
            }
            Err(RecvError::Timeout) => {}
            Err(RecvError::Crashed) => std::thread::sleep(Duration::from_millis(5)),
            Err(RecvError::Disconnected) => break,
            Err(_) => {}
        }
    }
}

fn handle_request_fragment(node: &Arc<RatpNode>, src: NodeId, pkt: Packet) {
    let key = (src, pkt.txn);
    let port = pkt.port;
    let ctx = pkt.ctx;
    let complete = {
        let mut server = node.server.lock();
        if let Some(reply_frames) = server.replied.get(&key) {
            // Already answered: replay the cached reply.
            let frames = Arc::clone(reply_frames);
            drop(server);
            node.metrics.replays.inc();
            for frame in frames.iter() {
                node.endpoint.clock().charge(node.cost().transport_packet);
                let _ = node.endpoint.send(src, frame.clone());
            }
            return;
        }
        if server.executing.contains(&key) {
            return; // handler still running; client will see the reply soon
        }
        let reassembly = server
            .inflight
            .entry(key)
            .or_insert_with(|| Reassembly::new(pkt.frag_count));
        let complete = reassembly.insert(pkt);
        if complete.is_some() {
            server.inflight.remove(&key);
            server.executing.insert(key);
        }
        complete
    };
    let Some(message) = complete else { return };

    let service = node.services.read().get(&port).cloned();
    match service {
        None => {
            let frames = encode_reply(PacketKind::NoService, port, key.1, Bytes::new());
            finish_transaction(node, key, frames);
        }
        Some(service) => {
            // Run the handler on its own thread so it may block (e.g. the
            // DSM server forwarding a page request to another node). The
            // wire context (the remote caller's span) is installed for
            // the handler's lifetime, so every span the service opens —
            // and every nested RaTP call it makes — carries the caller
            // as its causal parent.
            let node = Arc::clone(node);
            std::thread::Builder::new()
                .name(format!("ratp-handler-{}-p{port}", node.endpoint.id()))
                .spawn(move || {
                    let _trace = ctx.is_some().then(|| install_ctx(ctx));
                    let reply = service.handle(Request {
                        src,
                        payload: message,
                    });
                    let frames = encode_reply(PacketKind::Reply, 0, key.1, reply);
                    finish_transaction(&node, key, frames);
                })
                .expect("spawn ratp handler thread");
        }
    }
}

/// Deliver a one-way notification: reassemble, hand the message to the
/// service, produce nothing. No duplicate cache, no `executing` entry,
/// no reply — the sender transmitted once and is not listening.
fn handle_notify_fragment(node: &Arc<RatpNode>, src: NodeId, pkt: Packet) {
    let key = (src, pkt.txn);
    let port = pkt.port;
    let ctx = pkt.ctx;
    let complete = {
        let mut server = node.server.lock();
        let reassembly = server
            .inflight
            .entry(key)
            .or_insert_with(|| Reassembly::new(pkt.frag_count));
        let complete = reassembly.insert(pkt);
        if complete.is_some() {
            server.inflight.remove(&key);
        }
        complete
    };
    let Some(message) = complete else { return };
    let Some(service) = node.services.read().get(&port).cloned() else {
        return;
    };
    let node = Arc::clone(node);
    std::thread::Builder::new()
        .name(format!("ratp-notify-{}-p{port}", node.endpoint.id()))
        .spawn(move || {
            let _trace = ctx.is_some().then(|| install_ctx(ctx));
            let _ = service.handle(Request {
                src,
                payload: message,
            });
            let _ = node; // keep the node alive while the handler runs
        })
        .expect("spawn ratp notify handler thread");
}

/// Count a liveness beacon. The "last alive" stamp itself is recorded
/// by the receive loop for every inbound packet (any traffic proves the
/// peer was up; the stamp is the *receiver's* local virtual time, which
/// message receipt already advanced to the frame's arrival time).
/// Handled inline (no thread, no reply): a beacon costs one packet end
/// to end.
fn handle_heartbeat(node: &Arc<RatpNode>, _src: NodeId, pkt: Packet) {
    if pkt.payload.len() != 8 {
        return; // malformed beacon: drop, the next one is coming anyway
    }
    node.metrics.heartbeats_received.inc();
}

fn encode_reply(kind: PacketKind, port: u16, txn: u64, reply: Bytes) -> Arc<Vec<Bytes>> {
    // Replies carry no context: the caller still holds its span open.
    Arc::new(
        fragment(kind, port, txn, reply, SpanContext::NONE)
            .into_iter()
            .map(|p| p.encode())
            .collect(),
    )
}

fn finish_transaction(node: &Arc<RatpNode>, key: (NodeId, u64), frames: Arc<Vec<Bytes>>) {
    node.metrics.replies.inc();
    {
        let mut server = node.server.lock();
        server.executing.remove(&key);
        server.remember_reply(key, Arc::clone(&frames), node.config.dup_cache_size);
    }
    for frame in frames.iter() {
        node.endpoint.clock().charge(node.cost().transport_packet);
        let _ = node.endpoint.send(key.0, frame.clone());
    }
}

fn handle_reply_fragment(node: &Arc<RatpNode>, pkt: Packet) {
    let mut pending = node.pending.lock();
    let Some(slot) = pending.get_mut(&pkt.txn) else {
        return; // stale reply for a finished call
    };
    // `reply_tx` is bounded(1): a duplicate completion (phantom reply,
    // re-sent final fragment) would make a blocking `send` wedge this
    // receive loop forever *while holding the pending lock*. `try_send`
    // delivers the first completion and drops the rest.
    if pkt.kind == PacketKind::NoService {
        let _ = slot
            .reply_tx
            .try_send(Err(CallError::ServiceNotFound(pkt.port)));
        pending.remove(&pkt.txn);
        return;
    }
    let reassembly = slot
        .reassembly
        .get_or_insert_with(|| Reassembly::new(pkt.frag_count));
    if let Some(message) = reassembly.insert(pkt) {
        let _ = slot.reply_tx.try_send(Ok(message));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clouds_simnet::{CostModel, Network};

    fn reply_of(len: usize) -> Arc<Vec<Bytes>> {
        Arc::new(vec![Bytes::from(vec![0u8; len])])
    }

    /// `replied`, `replied_order` and `replied_bytes` describe the same
    /// set of replies.
    fn assert_books_balance(state: &ServerState) {
        assert_eq!(state.replied.len(), state.replied_order.len());
        let held: usize = state
            .replied_order
            .iter()
            .map(|key| frames_len(&state.replied[key]))
            .sum();
        assert_eq!(state.replied_bytes, held);
    }

    #[test]
    fn reply_cache_evicts_oldest_first_by_entries_and_by_bytes() {
        let src = NodeId(1);
        let mut state = ServerState::default();
        // Small replies: only the entry bound bites.
        for txn in 0..40 {
            state.remember_reply((src, txn), reply_of(100), 32);
            assert_books_balance(&state);
        }
        let kept: Vec<u64> = state.replied_order.iter().map(|k| k.1).collect();
        assert_eq!(kept, (8..40).collect::<Vec<u64>>());
        // Large replies: the byte budget trims the history, oldest
        // first, but never into the newest entries.
        let big = DUP_CACHE_BYTES / 8;
        for txn in 40..80 {
            state.remember_reply((src, txn), reply_of(big), 1024);
            assert_books_balance(&state);
            assert!(state.replied_order.len() >= DUP_CACHE_MIN_ENTRIES);
        }
        let kept: Vec<u64> = state.replied_order.iter().map(|k| k.1).collect();
        assert_eq!(kept, (64..80).collect::<Vec<u64>>());
        assert_eq!(state.replied_bytes, DUP_CACHE_MIN_ENTRIES * big);
        // Small ones again: big entries go until the cache is back
        // inside the budget, and no further.
        for txn in 80..200 {
            state.remember_reply((src, txn), reply_of(100), 1024);
            assert_books_balance(&state);
        }
        assert_eq!(state.replied_order.front(), Some(&(src, 73)));
        assert_eq!(state.replied_bytes, 7 * big + 120 * 100);
    }

    #[test]
    fn retransmission_inside_the_budget_is_replayed_not_re_executed() {
        const PORT: u16 = 7;
        const CALLS: u64 = 24;
        let net = Network::new(CostModel::zero());
        let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let server = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());
        let (ran_tx, ran_rx) = std::sync::mpsc::channel();
        // Each reply is an eighth of the budget, so the calls below push
        // the oldest ones out of the cache.
        server.register_service(PORT, move |_req: Request| {
            ran_tx.send(()).expect("test is listening");
            Bytes::from(vec![7u8; DUP_CACHE_BYTES / 8])
        });
        for _ in 0..CALLS {
            client.call(NodeId(2), PORT, Bytes::new()).unwrap();
        }
        assert_eq!(ran_rx.try_iter().count() as u64, CALLS);
        assert_books_balance(&server.server.lock());

        let retransmit = |counter: u64| {
            let txn = (1u64 << 32) | counter;
            let mut frames = fragment(PacketKind::Request, PORT, txn, Bytes::new(), SpanContext::NONE);
            handle_request_fragment(&server, NodeId(1), frames.remove(0));
        };
        // The newest transaction is inside the budget: answered from the
        // cache, on the receive path itself, without running the handler.
        let replays = server.metrics.replays.get();
        retransmit(CALLS);
        assert_eq!(server.metrics.replays.get(), replays + 1);
        assert!(ran_rx.try_recv().is_err(), "cached transaction re-executed");
        // The oldest fell out: a (very) late duplicate runs again. This
        // is the price of the bound, and why the newest entries are
        // exempt from it.
        retransmit(1);
        ran_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("evicted transaction should re-execute");
        assert_eq!(server.metrics.replays.get(), replays + 1);
    }
}
