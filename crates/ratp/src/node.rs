//! Per-node RaTP state machine: client calls, server dispatch,
//! retransmission and duplicate suppression.

use crate::crew::{Crew, Job};
use crate::packet::{fragment, Packet, PacketKind, Reassembly};
use bytes::Bytes;
use clouds_obs::{current_ctx, install_ctx, Counter, Histogram, NodeObs, Span, SpanContext};
use clouds_simnet::{Endpoint, Frame, NodeId, SendError, VirtualClock, Vt};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
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
}

impl Default for RatpConfig {
    fn default() -> Self {
        RatpConfig {
            retry_interval: Duration::from_millis(15),
            max_retries: 400,
        }
    }
}

/// Number of answered transactions remembered for duplicate suppression
/// and reply replay, whichever of this and [`DUP_CACHE_BYTES`] bites
/// first. Incomplete incoming messages are remembered to the same
/// number.
const DUP_CACHE_ENTRIES: usize = 4096;

/// Byte budget of the at-most-once reply cache. Entry count alone does
/// not bound it: 4096 multi-page DSM grants are 256 MiB of encoded
/// frames held for replay. Retransmissions arrive within a few
/// transactions of the original, so the budget trims history no retry
/// will ask for.
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
/// Every message is handled on a crew thread of its own (a parked one
/// if the node has one, a new one otherwise), so a handler may block —
/// including calling other nodes, or the calling node, through the same
/// [`RatpNode`] — without holding up any other message, or the sender
/// whose thread delivered this one. Closures
/// `Fn(Request) -> Bytes + Send + Sync` implement this trait
/// automatically.
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
    /// Arrival stamps of the reply fragments received for this call so
    /// far. The replying thread, which delivers them, only records them;
    /// the caller moves the clock through them when it takes the reply
    /// ([`RatpNode::settle`]).
    arrivals: Vec<Vt>,
}

/// A transaction whose request has gone out once: what
/// [`RatpNode::start_call`] hands to [`RatpNode::finish_call`].
///
/// Owns its `pending` slot: [`RatpNode::finish_call`] retires the slot,
/// and so does dropping a [`PendingCall`] that was never awaited.
struct InFlight {
    dst: NodeId,
    port: u16,
    txn: u64,
    /// Encoded request fragments, kept for retransmission.
    frames: Vec<Bytes>,
    reply_rx: Receiver<Result<Bytes, CallError>>,
    /// What the first transmission came to.
    sent: Result<(), SendError>,
    span: Span,
}

/// A transaction whose request is on its way and whose reply nobody has
/// taken yet: what [`RatpNode::call_async`] returns.
///
/// [`PendingCall::await_reply`] does the rest of [`RatpNode::call`] on
/// the thread that calls it. Dropped unawaited, the call retires its
/// pending slot: its request went out exactly once, nothing retransmits
/// it, and a reply that arrives later is discarded.
pub struct PendingCall {
    node: Arc<RatpNode>,
    /// Taken by [`PendingCall::await_reply`]; still here on drop only
    /// if the call was abandoned.
    call: Option<InFlight>,
}

impl fmt::Debug for PendingCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PendingCall").finish_non_exhaustive()
    }
}

impl PendingCall {
    /// Wait for the reply as [`RatpNode::call`] does: retransmit with
    /// the node's retry budget, move the clock through the reply's
    /// arrival and close the call's span.
    ///
    /// # Errors
    ///
    /// As for [`RatpNode::call`].
    pub fn await_reply(self) -> Result<Bytes, CallError> {
        let max_retries = self.node.config.max_retries;
        self.await_with_budget(max_retries)
    }

    fn await_with_budget(mut self, max_retries: u32) -> Result<Bytes, CallError> {
        let call = self.call.take().expect("a pending call is awaited once");
        let mut arrivals = Vec::new();
        let (result, span) = self.node.finish_call(call, max_retries, &mut arrivals);
        self.node.settle(arrivals);
        span.finish();
        result
    }
}

impl Drop for PendingCall {
    fn drop(&mut self) {
        if let Some(call) = self.call.take() {
            self.node.pending.lock().remove(&call.txn);
        }
    }
}

#[derive(Default)]
struct ServerState {
    /// Partially reassembled incoming requests and notifies.
    inflight: HashMap<(NodeId, u64), Reassembly>,
    /// Eviction order for `inflight`: the same keys, oldest first.
    inflight_order: VecDeque<(NodeId, u64)>,
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
    /// Add a fragment to its message's reassembly; the whole message
    /// once every fragment is in. A message that never completes — its
    /// client gave up, or it is a notify (sent once) that lost a
    /// fragment — is forgotten once `max_entries` newer ones have begun:
    /// a straggler of it then starts a reassembly of its own that never
    /// completes either and goes the same way.
    fn reassemble(&mut self, key: (NodeId, u64), pkt: Packet, max_entries: usize) -> Option<Bytes> {
        let reassembly = match self.inflight.entry(key) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                self.inflight_order.push_back(key);
                slot.insert(Reassembly::new(pkt.frag_count))
            }
        };
        let complete = reassembly.insert(pkt);
        if complete.is_some() {
            self.inflight.remove(&key);
            // Newest first: what completes is nearly always what began last.
            if let Some(at) = self.inflight_order.iter().rposition(|k| *k == key) {
                self.inflight_order.remove(at);
            }
        }
        while self.inflight_order.len() > max_entries {
            let Some(oldest) = self.inflight_order.pop_front() else {
                break;
            };
            self.inflight.remove(&oldest);
        }
        complete
    }

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
/// Owns the [`Endpoint`] and binds it: the node has no thread of its
/// own, each frame for it is taken in (`receive`, below) on the thread
/// that sent it, and only services run elsewhere (the crew). Exposes the
/// client side ([`RatpNode::call`]) and the server side
/// ([`RatpNode::register_service`]). See the crate docs for an example.
pub struct RatpNode {
    endpoint: Endpoint,
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
    /// The threads services run on.
    crew: Crew<Handling>,
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
    handler_threads_started: Arc<Counter>,
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
            handler_threads_started: obs.counter("ratp.handler_threads_started"),
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
    /// Attach RaTP to an endpoint, with a standalone observability
    /// handle (private registry and sink).
    pub fn spawn(endpoint: Endpoint, config: RatpConfig) -> Arc<RatpNode> {
        let obs = NodeObs::solo(endpoint.id().0 as u64, Arc::clone(endpoint.clock()));
        RatpNode::spawn_with_obs(endpoint, config, obs)
    }

    /// [`RatpNode::spawn`] with an explicit [`NodeObs`] — cluster
    /// assembly passes a handle whose [`clouds_obs::TraceSink`] is
    /// shared by every node so traces interleave on one timeline.
    pub fn spawn_with_obs(
        mut endpoint: Endpoint,
        config: RatpConfig,
        obs: Arc<NodeObs>,
    ) -> Arc<RatpNode> {
        let metrics = RatpMetrics::new(&obs);
        let crew = Crew::new(format!("ratp-crew-{}", endpoint.id()));
        Arc::new_cyclic(|node: &Weak<RatpNode>| {
            let node = node.clone();
            endpoint.bind(move |frame| {
                if let Some(node) = node.upgrade() {
                    receive(&node, frame);
                }
            });
            RatpNode {
                endpoint,
                config,
                services: RwLock::new(HashMap::new()),
                pending: Mutex::new(HashMap::new()),
                server: Mutex::new(ServerState::default()),
                heartbeats: Mutex::new(BTreeMap::new()),
                txn_counter: AtomicU64::new(1),
                running: AtomicBool::new(true),
                crew,
                obs,
                metrics,
            }
        })
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

    /// Stop taking frames in and close the handler crew: parked workers
    /// end now, busy ones when their handler returns. Further calls will
    /// time out.
    pub fn shutdown(&self) {
        self.running.store(false, Ordering::Release);
        self.crew.close();
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

    /// Execute independent transactions side by side from the calling
    /// thread: every request goes out before the first reply is waited
    /// for, so the batch costs about one round trip, not one per call.
    /// Outcomes come back in request order, each as [`RatpNode::call`]
    /// would have reported it; one call failing does not disturb the
    /// others.
    ///
    /// In virtual time the requests leave back to back from the instant
    /// the batch started (one `transport_packet` apart), and the clock
    /// moves through the replies — in the order they arrived — once the
    /// last one is in.
    pub fn call_many(self: &Arc<Self>, calls: Vec<(NodeId, u16, Bytes)>) -> Vec<Result<Bytes, CallError>> {
        // The calls' spans are siblings under the caller's span, and
        // none of them is ambient: they are all open at once.
        let parent = current_ctx();
        let mut stamp = self.endpoint.clock().now();
        let started: Vec<InFlight> = calls
            .into_iter()
            .map(|(dst, port, payload)| self.start_call(dst, port, payload, parent, &mut stamp))
            .collect();
        let mut arrivals = Vec::new();
        let finished: Vec<(Result<Bytes, CallError>, Span)> = started
            .into_iter()
            .map(|call| self.finish_call(call, self.config.max_retries, &mut arrivals))
            .collect();
        self.settle(arrivals);
        finished
            .into_iter()
            .map(|(result, span)| {
                span.finish();
                result
            })
            .collect()
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
        self.call_async(dst, port, payload)
            .await_with_budget(max_retries)
    }

    /// The first half of [`RatpNode::call`]: send the request once and
    /// return without waiting. The call's span is a child of the
    /// calling thread's ambient span. Nothing retransmits the request
    /// until [`PendingCall::await_reply`] is called, and the reply moves
    /// this node's clock only then.
    pub fn call_async(self: &Arc<Self>, dst: NodeId, port: u16, payload: Bytes) -> PendingCall {
        let mut stamp = self.endpoint.clock().now();
        let call = self.start_call(dst, port, payload, current_ctx(), &mut stamp);
        PendingCall {
            node: Arc::clone(self),
            call: Some(call),
        }
    }

    /// First half of a transaction: register the pending slot, fragment
    /// the request and transmit it once. Frame *k* of the batch leaves at
    /// `stamp` + *k* × `transport_packet` — the instants a lone sender
    /// would read off the clock anyway, and unlike the clock not moved by
    /// what the node takes in meanwhile (the reply to an earlier request
    /// of the same batch, a nested request from its server).
    fn start_call(
        &self,
        dst: NodeId,
        port: u16,
        payload: Bytes,
        parent: Option<SpanContext>,
        stamp: &mut Vt,
    ) -> InFlight {
        self.metrics.calls.inc();
        // The call span is a child of whatever span is running on this
        // thread; its context rides in every request fragment so the
        // remote handler's spans become its children in turn. The
        // discriminator is (dst, port) — not txn, whose allocation
        // order is thread-interleaving-dependent.
        let span = self
            .obs
            .child_span(parent, "ratp", "call", &format!("dst={} port={}", dst.0, port))
            .with_histogram(Arc::clone(&self.metrics.rtt));
        let txn = self.next_txn();
        let (reply_tx, reply_rx) = bounded(1);
        self.pending.lock().insert(
            txn,
            Pending {
                reply_tx,
                reassembly: None,
                arrivals: Vec::new(),
            },
        );
        let frames: Vec<Bytes> = fragment(PacketKind::Request, port, txn, payload, span.ctx())
            .into_iter()
            .map(|p| p.encode())
            .collect();
        let packet = self.cost().transport_packet;
        let sent = frames.iter().try_for_each(|frame| {
            // Transport-layer processing cost per transmitted packet.
            self.endpoint.clock().charge(packet);
            *stamp += packet;
            self.endpoint.send_at(dst, frame.clone(), *stamp)
        });
        InFlight {
            dst,
            port,
            txn,
            frames,
            reply_rx,
            sent,
            span,
        }
    }

    /// Second half: wait for the reply, retransmitting with bounded
    /// exponential backoff, and retire the pending slot. The reply
    /// fragments' arrival stamps are appended to `arrivals` for the
    /// caller to [`RatpNode::settle`]; the span comes back open so that
    /// it can close after the clock has moved.
    fn finish_call(
        &self,
        call: InFlight,
        max_retries: u32,
        arrivals: &mut Vec<Vt>,
    ) -> (Result<Bytes, CallError>, Span) {
        let InFlight {
            dst,
            port,
            txn,
            frames,
            reply_rx,
            sent,
            mut span,
        } = call;
        let result = sent.map_err(CallError::from).and_then(|()| {
            // `remaining` is the wall-clock budget in units of
            // `retry_interval`, and each silent attempt doubles the next
            // wait (capped at 8×). The total time before giving up stays
            // (max_retries + 1) × retry_interval.
            let mut remaining = max_retries as u64 + 1;
            let mut backoff: u64 = 1;
            loop {
                let units = backoff.min(remaining);
                let wait = self.config.retry_interval * units as u32;
                if let Ok(outcome) = reply_rx.recv_timeout(wait) {
                    return outcome;
                }
                remaining -= units;
                if remaining == 0 {
                    return Err(CallError::TimedOut);
                }
                backoff = (backoff * 2).min(8);
                // Wall-clock-triggered, so retransmit events only
                // appear under loss/partition faults or load.
                self.metrics.retransmits.inc();
                {
                    let ctx = span.ctx();
                    let _call = ctx.is_some().then(|| install_ctx(ctx));
                    self.obs.instant(
                        "ratp",
                        "retransmit",
                        format!("dst={} port={}", dst.0, port),
                    );
                }
                for frame in &frames {
                    self.endpoint.clock().charge(self.cost().transport_packet);
                    self.endpoint.send(dst, frame.clone())?;
                }
            }
        });
        if let Some(slot) = self.pending.lock().remove(&txn) {
            arrivals.extend(slot.arrivals);
        }
        if matches!(result, Err(CallError::TimedOut)) {
            self.metrics.timeouts.inc();
        }
        span.set_args(format!(
            "dst={} port={} ok={}",
            dst.0,
            port,
            result.is_ok()
        ));
        (result, span)
    }

    /// Take delivery of reply packets: move the clock to each one's
    /// arrival and charge its receive processing — what [`receive`] does
    /// on the spot for every other packet, done here by the thread the
    /// replies are for, at the point where it takes them.
    fn settle(&self, mut arrivals: Vec<Vt>) {
        arrivals.sort_unstable();
        for arrival in arrivals {
            self.account_receipt(arrival);
        }
    }

    /// One received packet in virtual time: the clock reaches the
    /// frame's arrival, then pays the transport's receive processing —
    /// in one step, because several senders may deliver at once. Returns
    /// the clock as this packet left it.
    fn account_receipt(&self, arrival: Vt) -> Vt {
        let packet = self.cost().transport_packet;
        self.endpoint.clock().advance_and_charge(arrival, packet)
    }

    /// Account a packet a peer sent on its own initiative (request,
    /// notify, beacon) and note the peer alive. Any inbound traffic is
    /// liveness evidence, not just dedicated beacons: a peer that
    /// crashes right after a burst of requests (before its monitor's
    /// first beacon tick) must still leave a "last alive" stamp behind,
    /// or the failure detector — which treats never-heard peers as
    /// alive — could never declare it dead.
    fn take_inbound(&self, src: NodeId, arrival: Vt) {
        let heard = self.account_receipt(arrival);
        self.heartbeats.lock().insert(src, heard);
    }

    /// Give a complete message a crew thread of its own.
    fn hand_to_crew(&self, handling: Handling) {
        if self.crew.dispatch(handling) {
            self.metrics.handler_threads_started.inc();
        }
    }

    fn cost(&self) -> &clouds_simnet::CostModel {
        self.endpoint.cost_model()
    }

    fn next_txn(&self) -> u64 {
        let counter = self.txn_counter.fetch_add(1, Ordering::Relaxed);
        ((self.endpoint.id().0 as u64) << 32) | (counter & 0xFFFF_FFFF)
    }
}

/// Take one frame in: what the node's endpoint is bound to. It runs on
/// the thread that *sent* the frame, inside that thread's `send`, so two
/// rules hold for everything below it: **no RaTP lock is held across a
/// send** (the destination's receive path may send straight back — a
/// cached reply, a `NoService` — and that lands here again, on this
/// thread), and **no thread-local is read** (the thread is the sender's,
/// its ambient span is not this node's). Nothing here blocks: a complete
/// message goes to the crew, a complete reply into its caller's
/// `Pending`. Nesting stops at two: a request may send a reply, a reply
/// sends nothing.
//
// No `_` arm (one that hides a single variant goes by the second lint's
// name): a new `PacketKind` without an arm of its own is a rustc error.
#[deny(clippy::wildcard_enum_match_arm)]
#[deny(clippy::match_wildcard_for_single_variants)]
fn receive(node: &Arc<RatpNode>, frame: Frame) {
    if !node.running.load(Ordering::Acquire) {
        return;
    }
    let src = frame.src;
    let arrival = frame.arrival;
    let Some(pkt) = Packet::decode(frame.payload) else {
        // Not a packet (corrupted): it reached the node and cost the
        // transport nothing.
        node.endpoint.clock().advance_to(arrival);
        return;
    };
    match pkt.kind {
        PacketKind::Reply | PacketKind::NoService => handle_reply_fragment(node, pkt, arrival),
        PacketKind::Request => {
            node.take_inbound(src, arrival);
            handle_request_fragment(node, src, pkt)
        }
        PacketKind::Notify => {
            node.take_inbound(src, arrival);
            handle_notify_fragment(node, src, pkt)
        }
        PacketKind::Heartbeat => {
            node.take_inbound(src, arrival);
            handle_heartbeat(node, src, pkt)
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
        let complete = server.reassemble(key, pkt, DUP_CACHE_ENTRIES);
        if complete.is_some() {
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
        Some(service) => node.hand_to_crew(Handling {
            node: Arc::clone(node),
            service,
            request: Request {
                src,
                payload: message,
            },
            ctx,
            reply_txn: Some(key.1),
        }),
    }
}

/// Deliver a one-way notification: reassemble, hand the message to the
/// service, produce nothing. No duplicate cache, no `executing` entry,
/// no reply — the sender transmitted once and is not listening.
fn handle_notify_fragment(node: &Arc<RatpNode>, src: NodeId, pkt: Packet) {
    let key = (src, pkt.txn);
    let port = pkt.port;
    let ctx = pkt.ctx;
    let complete = node.server.lock().reassemble(key, pkt, DUP_CACHE_ENTRIES);
    let Some(message) = complete else { return };
    let Some(service) = node.services.read().get(&port).cloned() else {
        return;
    };
    node.hand_to_crew(Handling {
        node: Arc::clone(node),
        service,
        request: Request {
            src,
            payload: message,
        },
        ctx,
        reply_txn: None,
    });
}

/// One complete message on its way through a service: what a crew
/// thread runs.
struct Handling {
    /// Keeps the node alive while the handler runs.
    node: Arc<RatpNode>,
    service: Arc<dyn Service>,
    request: Request,
    /// The remote caller's span, from the wire.
    ctx: SpanContext,
    /// The transaction to answer; `None` for a notify, whose sender is
    /// not listening.
    reply_txn: Option<u64>,
}

impl Job for Handling {
    fn run(self, park: impl FnOnce()) {
        let Handling {
            node,
            service,
            request,
            ctx,
            reply_txn,
        } = self;
        let src = request.src;
        let reply = {
            // The wire context is installed for the handler's lifetime,
            // so every span the service opens — and every nested RaTP
            // call it makes — carries the caller as its causal parent.
            let _trace = ctx.is_some().then(|| install_ctx(ctx));
            service.handle(request)
        };
        // Idle from here: only `handle` may block, and a worker that
        // waited for its reply frames to go out would lose the next
        // message (the caller's next request, already on its way) to a
        // newly started thread.
        park();
        if let Some(txn) = reply_txn {
            let frames = encode_reply(PacketKind::Reply, 0, txn, reply);
            finish_transaction(&node, (src, txn), frames);
        }
    }
}

/// Count a liveness beacon. The "last alive" stamp itself is recorded
/// by [`receive`] for every inbound packet (any traffic proves the
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
        server.remember_reply(key, Arc::clone(&frames), DUP_CACHE_ENTRIES);
    }
    for frame in frames.iter() {
        node.endpoint.clock().charge(node.cost().transport_packet);
        let _ = node.endpoint.send(key.0, frame.clone());
    }
}

/// A reply fragment moves the clock where the caller takes the reply,
/// not here: this is the replying thread, and a reply charged on
/// receipt would push the clock under every other transaction the node
/// has in flight — under a fan-out, one participant's finished round
/// trip would be billed to the other's still-running one. So the arrival is parked in the pending slot for
/// the caller to [`RatpNode::settle`]. A reply nobody is waiting for
/// (late duplicate, call already given up) is accounted on the spot.
fn handle_reply_fragment(node: &Arc<RatpNode>, pkt: Packet, arrival: Vt) {
    let mut pending = node.pending.lock();
    let Some(slot) = pending.get_mut(&pkt.txn) else {
        drop(pending);
        node.account_receipt(arrival);
        return;
    };
    slot.arrivals.push(arrival);
    // `reply_tx` is bounded(1): a duplicate completion (phantom reply,
    // re-sent final fragment) would make a blocking `send` wedge the
    // delivering thread forever *while holding the pending lock*;
    // `try_send` delivers the first completion and drops the rest. The
    // slot stays until the caller retires it, arrivals and all.
    if pkt.kind == PacketKind::NoService {
        let _ = slot
            .reply_tx
            .try_send(Err(CallError::ServiceNotFound(pkt.port)));
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
#[allow(
    clippy::disallowed_methods,
    reason = "watchdog deadlines for scenarios that hang when broken"
)]
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
    fn partial_reassemblies_are_forgotten_oldest_first() {
        const MAX: usize = 32;
        const LEN: usize = crate::MAX_FRAGMENT_PAYLOAD + 1;
        let src = NodeId(1);
        // Feed one half of the two-fragment message `txn`.
        let feed = |state: &mut ServerState, txn: u64, half: usize| {
            let message = Bytes::from(vec![txn as u8; LEN]);
            let mut halves = fragment(PacketKind::Notify, 7, txn, message, SpanContext::NONE);
            assert_eq!(halves.len(), 2);
            state.reassemble((src, txn), halves.remove(half), MAX)
        };
        // `inflight` and `inflight_order` describe the same set.
        let kept = |state: &ServerState| -> Vec<u64> {
            assert_eq!(state.inflight.len(), state.inflight_order.len());
            for key in &state.inflight_order {
                assert!(state.inflight.contains_key(key));
            }
            state.inflight_order.iter().map(|k| k.1).collect()
        };
        let mut state = ServerState::default();
        // Forty messages lose their second fragment.
        for txn in 0..40 {
            assert!(feed(&mut state, txn, 0).is_none());
            assert!(kept(&state).len() <= MAX);
        }
        assert_eq!(kept(&state), (8..40).collect::<Vec<u64>>());
        // One still remembered completes, and only it leaves.
        let whole = feed(&mut state, 20, 1).expect("both halves in");
        assert_eq!(whole.len(), LEN);
        assert_eq!(kept(&state), (8..20).chain(21..40).collect::<Vec<u64>>());
        // Whole messages come and go without pushing anything out.
        for txn in 100..200 {
            let mut whole = fragment(PacketKind::Notify, 7, txn, Bytes::new(), SpanContext::NONE);
            let key = (src, txn);
            assert!(state.reassemble(key, whole.remove(0), MAX).is_some());
        }
        assert_eq!(kept(&state).len(), MAX - 1);
        // The straggler of a forgotten message starts over, never
        // completes, and is forgotten in its turn.
        assert!(feed(&mut state, 0, 1).is_none());
        assert_eq!(kept(&state).last(), Some(&0));
        for txn in 40..40 + MAX as u64 {
            assert!(feed(&mut state, txn, 0).is_none());
        }
        assert_eq!(kept(&state), (40..40 + MAX as u64).collect::<Vec<u64>>());
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

        // Over the wire: the server replays from inside the client's
        // send, and the client takes the replay in from inside that.
        let retransmit = |counter: u64| {
            let txn = (1u64 << 32) | counter;
            let mut frames = fragment(PacketKind::Request, PORT, txn, Bytes::new(), SpanContext::NONE);
            let (client, frame) = (Arc::clone(&client), frames.remove(0).encode());
            within_10s("the retransmission to be taken in", move || {
                client.endpoint.send(NodeId(2), frame).unwrap()
            });
        };
        // The newest transaction is inside the budget: answered from the
        // cache, on the receive path itself, without running the handler.
        let replays = server.metrics.replays.get();
        let sent = net.stats().frames_sent;
        retransmit(CALLS);
        assert_eq!(server.metrics.replays.get(), replays + 1);
        assert!(
            net.stats().frames_sent > sent + 1,
            "the reply came back with the send"
        );
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

    /// Poll `done` (yielding, no fixed sleep) until it holds; the
    /// condition is a state the crew reaches on its own.
    fn eventually(what: &str, done: impl Fn() -> bool) {
        eventually_within(Duration::from_secs(30), what, done)
    }

    fn eventually_within(limit: Duration, what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + limit;
        while !done() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::yield_now();
        }
    }

    /// Run `scenario` on a (detached) thread of its own under a
    /// watchdog: receive processing runs inside `send`, so a re-entrancy
    /// bug is a thread that never returns, and the test must fail rather
    /// than hang.
    fn within_10s<T: Send + 'static>(
        what: &str,
        scenario: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let running = std::thread::spawn(scenario);
        eventually_within(Duration::from_secs(10), what, || running.is_finished());
        running.join().expect("scenario thread")
    }

    fn pair() -> (Network, Arc<RatpNode>, Arc<RatpNode>) {
        let net = Network::new(CostModel::zero());
        let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let server = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());
        server.register_service(7, |req: Request| req.payload);
        (net, client, server)
    }

    /// The two halves are [`RatpNode::call`]: the same reply, the same
    /// counts on both ends, the same virtual time, and no slot left.
    #[test]
    fn call_async_then_await_reply_is_call() {
        let net = Network::new(CostModel::sun3_ethernet());
        let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let server = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());
        server.register_service(7, |req: Request| req.payload);
        let msg = Bytes::from_static(b"hello");
        let counts = || (client.metrics.calls.get(), server.metrics.replies.get());
        let measure = |call: &dyn Fn() -> Result<Bytes, CallError>| {
            let (before, at) = (counts(), client.clock().now());
            let reply = call();
            let (calls, replies) = counts();
            assert!(client.pending.lock().is_empty());
            (
                reply,
                calls - before.0,
                replies - before.1,
                client.clock().now() - at,
            )
        };
        let whole = measure(&|| client.call(NodeId(2), 7, msg.clone()));
        let halves = measure(&|| client.call_async(NodeId(2), 7, msg.clone()).await_reply());
        assert_eq!((&whole.0, whole.1, whole.2), (&Ok(msg.clone()), 1, 1));
        assert!(whole.3 > Vt::ZERO, "the round trip took virtual time");
        assert_eq!(halves, whole);
    }

    /// A call dropped before its reply retires its slot, and the reply
    /// that comes after is taken in on the spot and goes nowhere.
    #[test]
    fn a_dropped_pending_call_leaves_no_slot_and_its_late_reply_is_discarded() {
        const HELD: u16 = 8;
        let net = Network::new(CostModel::sun3_ethernet());
        let client = RatpNode::spawn(net.register(NodeId(1)).unwrap(), RatpConfig::default());
        let server = RatpNode::spawn(net.register(NodeId(2)).unwrap(), RatpConfig::default());
        server.register_service(7, |req: Request| req.payload);
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        server.register_service(HELD, move |req: Request| {
            entered_tx.send(()).expect("test is listening");
            let _ = release_rx.lock().recv();
            req.payload
        });
        let pending = client.call_async(NodeId(2), HELD, Bytes::from_static(b"late"));
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("handler entered");
        assert_eq!(client.pending.lock().len(), 1);
        drop(pending);
        assert!(client.pending.lock().is_empty());

        let dropped_at = client.clock().now();
        release_tx.send(()).expect("handler is waiting");
        eventually("the late reply to be taken in", || {
            client.clock().now() > dropped_at
        });
        assert_eq!(server.metrics.replies.get(), 1);
        assert!(client.pending.lock().is_empty());
        assert_eq!(
            client.metrics.retransmits.get(),
            0,
            "nothing resent the dropped call"
        );
        let reply = client.call(NodeId(2), 7, Bytes::from_static(b"next"));
        assert_eq!(reply, Ok(Bytes::from_static(b"next")));
    }

    #[test]
    fn receive_path_re_enters_the_network_on_the_senders_thread() {
        const BACK: u16 = 9;
        let (_net, client, server) = pair();
        let msg = Bytes::from_static(b"hello");
        // A node calling itself: its own sink runs inside its own send.
        {
            let (server, msg) = (Arc::clone(&server), msg.clone());
            let reply = within_10s("a call to self", move || server.call(NodeId(2), 7, msg));
            assert_eq!(reply, Ok(Bytes::from_static(b"hello")));
        }
        // No service on the port: the refusal is sent from inside the
        // request's delivery and lands in `pending` before `send` returns.
        {
            let client = Arc::clone(&client);
            let refused = within_10s("a refused call", move || {
                client.call(NodeId(2), 99, Bytes::new())
            });
            assert_eq!(refused, Err(CallError::ServiceNotFound(99)));
        }
        // A handler calling back into its caller: the nested request is
        // delivered by the server's crew thread, its reply by ours.
        client.register_service(7, |req: Request| req.payload);
        server.register_service(BACK, {
            let server = Arc::downgrade(&server);
            move |req: Request| {
                let server = server.upgrade().expect("server outlives its handlers");
                server.call(req.src, 7, req.payload).expect("call back")
            }
        });
        let reply = within_10s("a call whose handler calls back", move || {
            client.call(NodeId(2), BACK, msg)
        });
        assert_eq!(reply, Ok(Bytes::from_static(b"hello")));
    }

    #[test]
    fn a_closing_reorder_window_releases_a_request_that_is_answered_inline() {
        use clouds_simnet::{Disruption, DisruptionKind, FaultSchedule};
        let (net, client, server) = pair();
        net.set_schedule(&FaultSchedule {
            seed: 0,
            disruptions: vec![Disruption {
                at: Vt::ZERO,
                until: Vt::from_millis(1),
                kind: DisruptionKind::Reorder(1.0),
            }],
        });
        // The request (to a port nobody serves) is held back.
        let caller = {
            let client = Arc::clone(&client);
            std::thread::spawn(move || client.call(NodeId(2), 99, Bytes::new()))
        };
        eventually("the request to be in limbo", || {
            net.stats().frames_reordered == 1
        });
        // The next send past the window fires `SetReorder(0)` under the
        // schedule lock; the released request is refused from inside its
        // delivery, and that refusal is a send of its own.
        server.clock().charge(Vt::from_millis(2));
        within_10s("the window to close", move || {
            server.send_heartbeat(NodeId(1))
        });
        let refused = within_10s("the refusal", move || caller.join().expect("caller thread"));
        assert_eq!(refused, Err(CallError::ServiceNotFound(99)));
        assert_eq!(
            client.metrics.retransmits.get(),
            0,
            "the refusal came with the release"
        );
    }

    #[test]
    fn frames_for_a_dropped_node_are_dropped_not_kept() {
        let (net, client, server) = pair();
        client.call(NodeId(2), 7, Bytes::new()).unwrap();
        // The worker that answered may hold the node a moment longer.
        let server = {
            let weak = Arc::downgrade(&server);
            drop(server);
            weak
        };
        eventually("the server to be gone", || server.upgrade().is_none());
        let before = net.stats();
        for _ in 0..10 {
            client.notify(NodeId(2), 7, Bytes::new());
        }
        let after = net.stats().since(&before);
        assert_eq!((after.frames_dropped, after.frames_sent), (10, 0));
    }

    #[test]
    fn steady_state_starts_no_handler_threads() {
        const SINK: u16 = 8;
        let (_net, client, server) = pair();
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        server.register_service(SINK, move |_req: Request| {
            seen_tx.send(()).expect("test is listening");
            Bytes::new()
        });
        let started = || server.metrics.handler_threads_started.get();
        // A notify's sender hears nothing back, so "handled" is the
        // handler's signal *and* its worker parked again — sent before
        // that, the next message would rightly get a thread of its own.
        let notify_and_settle = || {
            client.notify(NodeId(2), SINK, Bytes::new());
            seen_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("notify handled");
            eventually("the worker to park", || {
                server.crew.parked() as u64 == started()
            });
        };
        // Warm-up.
        client.call(NodeId(2), 7, Bytes::new()).unwrap();
        notify_and_settle();
        let warm = started();
        assert_eq!(warm, 1, "the notify reuses the call's worker");

        for i in 0..1000u32 {
            let msg = Bytes::from(i.to_le_bytes().to_vec());
            assert_eq!(client.call(NodeId(2), 7, msg.clone()).unwrap(), msg);
        }
        for _ in 0..1000 {
            notify_and_settle();
        }
        assert_eq!(started(), warm, "steady state started threads");
        assert_eq!(
            client.metrics.handler_threads_started.get(),
            0,
            "a pure client runs no handlers"
        );
    }

    #[test]
    fn shutdown_and_drop_end_the_workers() {
        // Shutdown: parked workers go at once, the busy one when its
        // handler returns.
        let (_net, client, server) = pair();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        server.register_service(8, move |_req: Request| {
            entered_tx.send(()).expect("test is listening");
            let _ = release_rx.lock().recv();
            Bytes::new()
        });
        client.call(NodeId(2), 7, Bytes::new()).unwrap();
        let holders = server.crew.holders();
        client.notify(NodeId(2), 8, Bytes::new());
        entered_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("handler entered");
        client.notify(NodeId(2), 7, Bytes::new());
        eventually("a second worker, parked", || server.crew.parked() == 1);
        assert_eq!(holders(), 3, "the crew, one busy and one parked worker");
        server.shutdown();
        eventually("the parked worker to end", || holders() == 2);
        release_tx.send(()).expect("handler is waiting");
        eventually("the busy worker to end", || holders() == 1);
        assert_eq!(server.crew.parked(), 0);
        drop((client, server));

        // Drop: no worker outlives its node.
        let mut crews = Vec::new();
        for _ in 0..50 {
            let (_net, client, server) = pair();
            client.register_service(7, |req: Request| req.payload);
            client.call(NodeId(2), 7, Bytes::new()).unwrap();
            server.call(NodeId(1), 7, Bytes::new()).unwrap();
            assert_eq!(server.crew.holders()(), 2);
            crews.push(client.crew.holders());
            crews.push(server.crew.holders());
        }
        eventually("every worker of every dropped node to end", || {
            crews.iter().all(|holders| holders() == 0)
        });
    }
}
