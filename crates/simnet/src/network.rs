//! The network itself: registration, delivery, faults, crash/restart.

use crate::cost::CostModel;
use crate::fault::{Fate, FaultPlan};
use crate::frame::{Delivery, Frame, Gather, MTU};
use crate::schedule::{FaultAction, FaultEvent, FaultSchedule};
use crate::stats::{NetworkStats, Stats, Tally};
use crate::table::FastMap;
use crate::time::{VirtualClock, Vt};
use crate::NodeId;
use bytes::Bytes;
use crossbeam::channel::{self, Receiver};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Errors returned by [`Endpoint::send_burst`] and its bursts of one.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SendError {
    /// Payload exceeds [`MTU`]; fragment at the transport layer.
    FrameTooLarge(usize),
    /// Destination node id was never registered.
    UnknownNode(NodeId),
    /// The sending node is crashed.
    SourceCrashed,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::FrameTooLarge(n) => write!(f, "frame payload {n} exceeds MTU {MTU}"),
            SendError::UnknownNode(id) => write!(f, "unknown destination {id}"),
            SendError::SourceCrashed => write!(f, "sending node is crashed"),
        }
    }
}

impl std::error::Error for SendError {}

/// Errors returned by the receive operations on [`Endpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RecvError {
    /// No frame arrived before the timeout expired.
    Timeout,
    /// The receiving node is crashed.
    Crashed,
    /// The endpoint is bound: its frames go to the sink, not the queue.
    Disconnected,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Crashed => write!(f, "receiving node is crashed"),
            RecvError::Disconnected => write!(f, "endpoint is bound to a sink"),
        }
    }
}

impl std::error::Error for RecvError {}

/// What a node does with the frames that reach it; see [`Endpoint::bind`].
type Sink = dyn Fn(Delivery) + Send + Sync;

struct NodeSlot {
    /// Owned by the node's [`Endpoint`]: once that is dropped the machine
    /// is unplugged, and frames for it are dropped on delivery, counted.
    sink: Weak<Sink>,
    /// The queue behind an unbound endpoint's sink (a bound one's stays
    /// empty), kept so a restart can drain it.
    queue: Receiver<Frame>,
    clock: Arc<VirtualClock>,
    crashed: Arc<AtomicBool>,
}

impl NodeSlot {
    /// Where a frame for this node goes; `None` (drop it) while the node
    /// is crashed or once its endpoint is gone.
    fn sink(&self) -> Option<Arc<Sink>> {
        let crashed = self.crashed.load(Ordering::Acquire);
        self.sink.upgrade().filter(|_| !crashed)
    }
}

/// Compiled [`FaultSchedule`] plus the application cursor.
#[derive(Default)]
struct ScheduleState {
    events: Vec<FaultEvent>,
    /// Index of the first event not yet applied.
    next: usize,
}

impl ScheduleState {
    /// When the next event falls due, in nanoseconds of virtual time;
    /// `u64::MAX` once every event has applied.
    fn next_due(&self) -> u64 {
        self.events
            .get(self.next)
            .map_or(u64::MAX, |event| event.at.as_nanos())
    }
}

/// Frames held back by reorder faults may queue up to this many per
/// destination before newer traffic forces delivery.
const REORDER_LIMBO_CAP: usize = 4;

/// The fault plan in force, how many frames each directed link has
/// drawn a fate for (the `n` of [`FaultPlan::fate`]), and the frames
/// reorder faults hold back.
#[derive(Default)]
struct Faults {
    plan: FaultPlan,
    drawn: FastMap<(NodeId, NodeId), u64>,
    /// Frames held back by reorder faults, per destination; they are
    /// released after the next normally-delivered frame to that node.
    limbo: BTreeMap<NodeId, Vec<Frame>>,
}

impl Faults {
    /// The fate of the next frame `src → dst`. A link the plan leaves
    /// quiet draws nothing and takes no index, so a fault-free run pays
    /// no count.
    fn next_fate(&mut self, seed: u64, src: NodeId, dst: NodeId, len: usize) -> Fate {
        if self.plan.is_quiet(src, dst) {
            return Fate::default();
        }
        let n = self.drawn.entry((src, dst)).or_default();
        let fate = self.plan.fate(seed, src, dst, *n, len);
        *n += 1;
        fate
    }
}

/// Delivery is a call: the sending thread runs the destination's sink,
/// and a sink may send in its turn (a transport replaying a cached
/// reply). So **no lock of this struct — `nodes`, `schedule`, `faults`
/// — is held while a sink runs**: a burst's frames are gathered under
/// the locks, and handed over once they are dropped.
struct NetInner {
    cost: CostModel,
    /// Every fate derives from it; see [`FaultPlan::fate`].
    seed: u64,
    nodes: RwLock<FastMap<NodeId, NodeSlot>>,
    faults: Mutex<Faults>,
    stats: Stats,
    schedule: Mutex<ScheduleState>,
    /// [`ScheduleState::next_due`], read without the lock: a frame
    /// stamped short of it has no event to apply, and learns so from
    /// one load.
    next_due: AtomicU64,
}

/// Handle to the simulated network; cheap to clone.
///
/// One `Network` models one Ethernet segment connecting all Clouds
/// compute servers, data servers and user workstations (paper Figure 3).
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.inner.nodes.read().len())
            .field("stats", &self.inner.stats.snapshot())
            .finish()
    }
}

impl Network {
    /// Create a network with the given cost model and a fixed default seed.
    pub fn new(cost: CostModel) -> Network {
        Network::with_seed(cost, 0xC10D5)
    }

    /// Create a network whose frame fates derive from `seed` (see
    /// [`FaultPlan::fate`]).
    pub fn with_seed(cost: CostModel, seed: u64) -> Network {
        Network {
            inner: Arc::new(NetInner {
                cost,
                seed,
                nodes: RwLock::new(FastMap::default()),
                faults: Mutex::new(Faults::default()),
                stats: Stats::default(),
                // Outer: applying an event takes `faults` and `nodes`
                // under it, so events apply in schedule order.
                schedule: Mutex::outer(ScheduleState::default()),
                next_due: AtomicU64::new(u64::MAX),
            }),
        }
    }

    /// Attach a node and return its endpoint.
    ///
    /// # Errors
    ///
    /// Returns `None` if `id` is already registered.
    #[allow(clippy::result_unit_err)]
    pub fn register(&self, id: NodeId) -> Option<Endpoint> {
        // Until the endpoint is bound, its sink is its own queue.
        let (tx, rx) = channel::unbounded();
        let sink: Arc<Sink> = Arc::new(move |frames: Delivery| {
            for frame in frames {
                drop(tx.send(frame));
            }
        });
        let clock = Arc::new(VirtualClock::new());
        let crashed = Arc::new(AtomicBool::new(false));
        let mut nodes = self.inner.nodes.write();
        if nodes.contains_key(&id) {
            return None;
        }
        nodes.insert(
            id,
            NodeSlot {
                sink: Arc::downgrade(&sink),
                queue: rx.clone(),
                clock: Arc::clone(&clock),
                crashed: Arc::clone(&crashed),
            },
        );
        Some(Endpoint {
            id,
            clock,
            rx,
            sink,
            crashed,
            net: Arc::clone(&self.inner),
        })
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Virtual clock of a registered node.
    pub fn clock(&self, id: NodeId) -> Option<Arc<VirtualClock>> {
        self.inner
            .nodes
            .read()
            .get(&id)
            .map(|s| Arc::clone(&s.clock))
    }

    /// Replace the whole fault plan.
    pub fn set_faults(&self, plan: FaultPlan) {
        self.inner.faults.lock().plan = plan;
    }

    /// Set the global frame loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn set_loss(&self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.inner.faults.lock().plan.global_loss = p;
    }

    /// Set the frame duplication probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn set_duplication(&self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability out of range"
        );
        self.inner.faults.lock().plan.duplication = p;
    }

    /// Partition the network between `left` and `right` node sets.
    pub fn partition(&self, left: &[NodeId], right: &[NodeId]) {
        self.inner.faults.lock().plan.partition(left, right);
    }

    /// Remove all partitions.
    pub fn heal(&self) {
        self.inner.faults.lock().plan.heal();
    }

    /// Crash a node: frames to and from it are dropped until
    /// [`Network::restart`].
    pub fn crash(&self, id: NodeId) {
        self.inner.set_up(id, false);
    }

    /// Restart a crashed node, discarding any frames an unbound endpoint
    /// still has queued from before the crash.
    pub fn restart(&self, id: NodeId) {
        self.inner.set_up(id, true);
    }

    /// Whether a node is currently crashed.
    pub fn is_crashed(&self, id: NodeId) -> bool {
        self.inner
            .nodes
            .read()
            .get(&id)
            .is_some_and(|s| s.crashed.load(Ordering::Acquire))
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> NetworkStats {
        self.inner.stats.snapshot()
    }

    /// Install a time-varying fault schedule.
    ///
    /// The current fault plan is replaced with a clean one; the schedule's
    /// compiled events then fire as virtual time advances past them.
    /// Virtual time is observed at each frame sent (its departure
    /// stamp), so events apply lazily with traffic; use
    /// [`Network::advance_schedule_to`] to force all events up to an
    /// instant — e.g. the schedule horizon — regardless of traffic.
    pub fn set_schedule(&self, schedule: &FaultSchedule) {
        let events = schedule.events();
        let mut sched = self.inner.schedule.lock();
        self.inner.faults.lock().plan = FaultPlan::none();
        *sched = ScheduleState { events, next: 0 };
        self.inner
            .next_due
            .store(sched.next_due(), Ordering::Release);
    }

    /// Apply every schedule event with threshold `≤ t` and release any
    /// frames held back by reorder faults.
    ///
    /// Calling this with a time at or past [`FaultSchedule::healed_by`]
    /// guarantees the network is fully healed: all scheduled crashes have
    /// restarted, partitions are reconnected, and probabilistic faults are
    /// back to zero.
    pub fn advance_schedule_to(&self, t: Vt) {
        self.inner.apply_schedule(t);
        let held = std::mem::take(&mut self.inner.faults.lock().limbo);
        self.inner.release(held);
    }

    /// Number of schedule events not yet applied.
    pub fn schedule_pending(&self) -> usize {
        let sched = self.inner.schedule.lock();
        sched.events.len() - sched.next
    }
}

/// A walk over one burst (see [`NetInner::deliver`]), part way.
struct Walk<'a> {
    /// The destination's sink: `None` until resolved (at the burst's
    /// first frame, and again after a schedule event), then `Some(None)`
    /// while the destination is down or unplugged.
    sink: Option<Option<Arc<Sink>>>,
    /// Held from the first fate drawn until the frames are handed over.
    faults: Option<MutexGuard<'a, Faults>>,
    gather: Gather,
    tally: Tally,
}

impl NetInner {
    /// Carry a burst `src → dst` — payloads, each with its departure
    /// stamp — across the wire, and hand what survives to `dst`'s sink.
    ///
    /// Each frame goes through what a burst of one goes through: the
    /// source's crash check, the size check, the schedule events its
    /// stamp reaches, its fate (partition, loss, corruption, jitter,
    /// reordering, duplication) drawn in order from its link's counter,
    /// and the release of any frames held back for `dst`. So the frames,
    /// their fates, arrivals and counts are those of the frames sent one
    /// by one. The host work is not: the sink is resolved once, the
    /// fault lock is held once for the whole walk, "no event due" is one
    /// load of `next_due`, the counters are added once, and every frame
    /// that survives — copies and limbo releases in their per-frame
    /// places — is handed over in one [`Delivery`] after the walk, under
    /// no lock. When an event falls due mid-burst, the frames gathered
    /// so far are handed over first, then the event applies, then the
    /// walk goes on with the sink resolved again. A failed check ends
    /// the walk; the frames before it are still handed over.
    ///
    /// One difference from sending the frames one by one: a sink that
    /// sends in its turn (a transport replaying a cached reply) now sends
    /// after every fate of the burst is drawn, not between them.
    fn deliver(
        &self,
        src: NodeId,
        src_crashed: &AtomicBool,
        dst: NodeId,
        burst: impl IntoIterator<Item = (Bytes, Vt)>,
    ) -> Result<(), SendError> {
        let mut burst = burst.into_iter();
        let mut walk = Walk {
            sink: None,
            faults: None,
            gather: Gather::expecting(burst.size_hint().0),
            tally: Tally::default(),
        };
        let result = burst.try_for_each(|(payload, stamp)| {
            self.step(&mut walk, src, src_crashed, dst, payload, stamp)
        });
        walk.faults = None;
        self.hand_over(&mut walk);
        result
    }

    /// One frame of [`NetInner::deliver`]'s walk. `#[inline]`, as is
    /// [`NetInner::hand_over`]: `deliver` is generic, so it is built in
    /// the sending crate, and a plain call from there to here is a
    /// cross-crate call that is never inlined, paid on every frame.
    #[inline]
    fn step<'a>(
        &'a self,
        walk: &mut Walk<'a>,
        src: NodeId,
        src_crashed: &AtomicBool,
        dst: NodeId,
        payload: Bytes,
        stamp: Vt,
    ) -> Result<(), SendError> {
        if src_crashed.load(Ordering::Acquire) {
            return Err(SendError::SourceCrashed);
        }
        if payload.len() > MTU {
            return Err(SendError::FrameTooLarge(payload.len()));
        }
        // Fire the schedule events virtual time has reached. Applying
        // one takes the locks and may crash or restart `dst`, so the
        // frames so far go first and the sink is resolved again.
        if stamp.as_nanos() >= self.next_due.load(Ordering::Acquire) {
            walk.faults = None;
            self.hand_over(walk);
            self.apply_schedule(stamp);
            walk.sink = None;
        }
        if walk.sink.is_none() {
            let nodes = self.nodes.read();
            let slot = nodes.get(&dst).ok_or(SendError::UnknownNode(dst))?;
            walk.sink = Some(slot.sink());
        }
        let faults = walk.faults.get_or_insert_with(|| self.faults.lock());
        if faults.plan.is_partitioned(src, dst) {
            walk.tally.dropped += 1; // silently dropped, like a cut cable
            return Ok(());
        }
        let fate = faults.next_fate(self.seed, src, dst, payload.len());
        if fate.lost || matches!(walk.sink, Some(None)) {
            walk.tally.dropped += 1;
            return Ok(());
        }

        let payload = match fate.corrupt_at {
            Some((idx, bit)) => {
                walk.tally.corrupted += 1;
                let mut bytes = payload.to_vec();
                bytes[idx] ^= 1 << bit;
                Bytes::from(bytes)
            }
            None => payload,
        };
        let arrival = stamp + self.cost.frame_delay(payload.len()) + fate.jitter;
        let frame = Frame {
            src,
            dst,
            payload,
            arrival,
        };
        walk.tally.sent += 1;
        walk.tally.bytes += frame.len() as u64;

        if fate.reordered {
            let held = faults.limbo.entry(dst).or_default();
            if held.len() < REORDER_LIMBO_CAP {
                walk.tally.reordered += 1;
                held.push(frame);
                return Ok(());
            }
        }
        if fate.duplicated {
            walk.tally.duplicated += 1;
            walk.gather.push(frame.clone());
        }
        walk.gather.push(frame);
        // Anything held back for this destination now goes out *after*
        // the newer frame — that is the reordering.
        if let Some(held) = faults.limbo.remove(&dst) {
            walk.gather.extend(held);
        }
        Ok(())
    }

    /// Count what the walk counted, then hand the frames it gathered to
    /// the sink. The walk holds no lock by now.
    #[inline]
    fn hand_over(&self, walk: &mut Walk<'_>) {
        debug_assert!(walk.faults.is_none(), "a sink runs under no network lock");
        self.stats.add(&std::mem::take(&mut walk.tally));
        if walk.gather.is_empty() {
            return;
        }
        let frames = walk.gather.take();
        // A frame is gathered only for a sink that is there.
        if let Some(Some(sink)) = &walk.sink {
            self.stats.deliveries.fetch_add(1, Ordering::Relaxed);
            sink(frames);
        }
    }

    /// Apply every schedule event with threshold `≤ now`, in order.
    fn apply_schedule(&self, now: Vt) {
        // Frames a closing reorder window lets go: delivered once the
        // schedule lock is released.
        let mut released = Vec::new();
        {
            let mut sched = self.schedule.lock();
            while let Some(event) = sched.events.get(sched.next) {
                if event.at > now {
                    break;
                }
                let action = event.action.clone();
                sched.next += 1;
                self.apply_action(&action, &mut released);
            }
            self.next_due.store(sched.next_due(), Ordering::Release);
        }
        self.release(released);
    }

    fn apply_action(&self, action: &FaultAction, released: &mut Vec<(NodeId, Vec<Frame>)>) {
        match action {
            FaultAction::Crash(id) => self.set_up(*id, false),
            FaultAction::Restart(id) => self.set_up(*id, true),
            FaultAction::Partition { left, right } => {
                self.faults.lock().plan.partition(left, right)
            }
            FaultAction::Unpartition { left, right } => {
                self.faults.lock().plan.unpartition(left, right)
            }
            FaultAction::SetLoss(p) => self.faults.lock().plan.global_loss = *p,
            FaultAction::SetDuplication(p) => self.faults.lock().plan.duplication = *p,
            FaultAction::SetJitter(j) => self.faults.lock().plan.jitter = *j,
            FaultAction::SetReorder(p) => {
                let mut faults = self.faults.lock();
                faults.plan.reorder = *p;
                if *p == 0.0 {
                    // The reorder window closed; release held frames so
                    // none are stranded.
                    released.extend(std::mem::take(&mut faults.limbo));
                }
            }
            FaultAction::SetCorruption(p) => self.faults.lock().plan.corruption = *p,
        }
    }

    /// Crash a node or bring it back up. Coming up, frames still queued
    /// from before the crash are discarded: they were "on the wire" to a
    /// dead machine.
    fn set_up(&self, id: NodeId, up: bool) {
        if let Some(slot) = self.nodes.read().get(&id) {
            if up {
                let stranded = std::iter::from_fn(|| slot.queue.try_recv().ok()).count();
                self.stats
                    .frames_dropped
                    .fetch_add(stranded as u64, Ordering::Relaxed);
            }
            slot.crashed.store(!up, Ordering::Release);
        }
    }

    /// Deliver (or, for destinations crashed or gone, drop) frames
    /// released from limbo: one delivery per destination.
    fn release(&self, held: impl IntoIterator<Item = (NodeId, Vec<Frame>)>) {
        for (dst, frames) in held {
            let sink = self.nodes.read().get(&dst).and_then(NodeSlot::sink);
            match sink {
                Some(sink) if !frames.is_empty() => {
                    self.stats.deliveries.fetch_add(1, Ordering::Relaxed);
                    sink(Delivery::from(frames));
                }
                _ => {
                    let dropped = frames.len() as u64;
                    self.stats
                        .frames_dropped
                        .fetch_add(dropped, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A node's attachment to the network.
///
/// Owned by the node's kernel. Frames for the node are *pushed*: the
/// sending thread runs the endpoint's sink. Until [`Endpoint::bind`]
/// installs the node's own, the sink is a queue that the receive
/// operations below read, advancing the node's virtual clock to each
/// frame's arrival time, so "waiting for the wire" is visible in virtual
/// time without any real sleeping.
pub struct Endpoint {
    id: NodeId,
    clock: Arc<VirtualClock>,
    rx: Receiver<Frame>,
    /// Keeps the sink the network delivers to alive; see [`NodeSlot`].
    sink: Arc<Sink>,
    crashed: Arc<AtomicBool>,
    net: Arc<NetInner>,
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("now", &self.clock.now())
            .finish()
    }
}

impl Endpoint {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The network's cost model (shared by all nodes).
    pub fn cost_model(&self) -> &CostModel {
        &self.net.cost
    }

    /// Hand every frame that reaches this node to `sink` from now on, in
    /// place of the queue behind the receive operations.
    ///
    /// `sink` runs on the *sending* thread, inside its
    /// [`Endpoint::send_burst`], with no network lock held: it may send
    /// (a reply, say), but if it blocks it blocks the sender. It is
    /// called with a [`Delivery`]: the surviving frames of one burst,
    /// all at once, after the wire has drawn every one of their fates.
    /// It does not move the clock; each frame's `arrival` is the sink's
    /// to account. Frames for a crashed node never reach it, and none do
    /// once the endpoint is dropped.
    pub fn bind(&mut self, sink: impl Fn(Delivery) + Send + Sync + 'static) {
        self.sink = Arc::new(sink);
        let mut nodes = self.net.nodes.write();
        let slot = nodes
            .get_mut(&self.id)
            .expect("an endpoint's node stays registered");
        slot.sink = Arc::downgrade(&self.sink);
    }

    /// Transmit one frame, leaving now: a burst of one.
    ///
    /// # Errors
    ///
    /// As for [`Endpoint::send_burst`].
    pub fn send(&self, dst: NodeId, payload: Bytes) -> Result<(), SendError> {
        self.send_burst(dst, [(payload, self.clock.now())])
    }

    /// Transmit one frame that leaves this node at `stamp`, whatever the
    /// clock reads by now: a burst of one.
    ///
    /// # Errors
    ///
    /// As for [`Endpoint::send_burst`].
    pub fn send_at(&self, dst: NodeId, payload: Bytes, stamp: Vt) -> Result<(), SendError> {
        self.send_burst(dst, [(payload, stamp)])
    }

    /// Transmit a burst of frames to `dst`, each leaving this node at
    /// its own stamp, and have `dst` take in what survives as one
    /// [`Delivery`] — the frames of one message, say.
    ///
    /// Stamps are the sender's to fix: a burst of transmissions computed
    /// from one clock reading leaves at those instants, not at whichever
    /// later instant the clock reads by the time each goes. The wire
    /// treats every frame as if sent alone, in order: the same fates,
    /// arrivals and counts (see [`NetworkStats::deliveries`] for what
    /// differs). The iterator is drawn from as the frames go, and no
    /// further once one fails.
    ///
    /// # Errors
    ///
    /// Fails at the first frame whose payload exceeds [`MTU`], if the
    /// destination is unknown, or at the first frame that finds this
    /// node crashed; frames before the failure are still delivered.
    /// Loss/partition faults are *not* errors — the frame silently
    /// disappears, as on a real wire.
    pub fn send_burst(
        &self,
        dst: NodeId,
        frames: impl IntoIterator<Item = (Bytes, Vt)>,
    ) -> Result<(), SendError> {
        parking_lot::assert_unlocked("Endpoint::send_burst");
        self.net.deliver(self.id, &self.crashed, dst, frames)
    }

    /// Receive the next frame, waiting up to `timeout` of *real* time.
    ///
    /// On success the node's virtual clock advances to the frame's
    /// arrival instant.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing arrived, [`RecvError::Crashed`]
    /// if this node is down, [`RecvError::Disconnected`] if the endpoint
    /// is bound.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, RecvError> {
        parking_lot::assert_unlocked("Endpoint::recv_timeout");
        if self.crashed.load(Ordering::Acquire) {
            return Err(RecvError::Crashed);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => {
                if self.crashed.load(Ordering::Acquire) {
                    // The node went down with the frame still queued.
                    let dropped = &self.net.stats.frames_dropped;
                    dropped.fetch_add(1, Ordering::Relaxed);
                    return Err(RecvError::Crashed);
                }
                self.clock.advance_to(frame.arrival);
                Ok(frame)
            }
            Err(channel::RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(channel::RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Receive without blocking.
    ///
    /// # Errors
    ///
    /// Same as [`Endpoint::recv_timeout`], with [`RecvError::Timeout`]
    /// meaning "no frame queued right now".
    pub fn try_recv(&self) -> Result<Frame, RecvError> {
        self.recv_timeout(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(cost: CostModel) -> (Network, Endpoint, Endpoint) {
        let net = Network::new(cost);
        let a = net.register(NodeId(1)).unwrap();
        let b = net.register(NodeId(2)).unwrap();
        (net, a, b)
    }

    #[test]
    fn basic_delivery_advances_clock() {
        let (_net, a, b) = pair(CostModel::sun3_ethernet());
        a.send(NodeId(2), Bytes::from(vec![0u8; 72])).unwrap();
        let f = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(f.src, NodeId(1));
        assert_eq!(f.len(), 72);
        assert_eq!(b.clock().now(), Vt::from_micros(1200));
    }

    #[test]
    fn echo_round_trip_matches_paper() {
        let (_net, a, b) = pair(CostModel::sun3_ethernet());
        a.send(NodeId(2), Bytes::from(vec![0u8; 72])).unwrap();
        let f = b.recv_timeout(Duration::from_secs(1)).unwrap();
        b.send(NodeId(1), f.payload).unwrap();
        a.recv_timeout(Duration::from_secs(1)).unwrap();
        // Paper §4.3: Ethernet round trip for a short (72 byte) message
        // is 2.4 ms.
        assert_eq!(a.clock().now(), Vt::from_micros(2400));
    }

    /// Bind `endpoint` to a sink that records what it is handed.
    fn record(endpoint: &mut Endpoint) -> Arc<Mutex<Vec<Frame>>> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        endpoint.bind(move |frames| sink.lock().extend(frames));
        seen
    }

    #[test]
    fn stamped_send_and_bound_sink_leave_the_clocks_to_the_caller() {
        let (_net, a, mut b) = pair(CostModel::sun3_ethernet());
        let seen = record(&mut b);
        // The sender's clock has moved on; the frame still leaves at
        // the stamp.
        a.clock().charge(Vt::from_millis(50));
        a.send_at(NodeId(2), Bytes::from(vec![0u8; 72]), Vt::from_millis(1))
            .unwrap();
        // Delivered by the time `send_at` returns, on this thread.
        assert_eq!(seen.lock()[0].arrival, Vt::from_micros(2200));
        assert_eq!(b.clock().now(), Vt::ZERO, "a sink's frame moved the clock");
        assert!(matches!(b.try_recv(), Err(RecvError::Disconnected)));
    }

    #[test]
    fn frames_for_a_crashed_or_dropped_bound_node_are_dropped_and_counted() {
        let (net, a, mut b) = pair(CostModel::zero());
        let seen = record(&mut b);
        a.send(NodeId(2), Bytes::from_static(b"up")).unwrap();
        net.crash(NodeId(2));
        a.send(NodeId(2), Bytes::from_static(b"down")).unwrap();
        assert_eq!(net.stats().frames_dropped, 1);
        net.restart(NodeId(2));
        a.send(NodeId(2), Bytes::from_static(b"up again")).unwrap();
        assert_eq!(seen.lock().len(), 2);
        // Unplugged for good: still addressable, nothing piles up.
        drop(b);
        for _ in 0..3 {
            a.send(NodeId(2), Bytes::from_static(b"gone")).unwrap();
        }
        assert_eq!(net.stats().frames_dropped, 4);
        assert_eq!(net.stats().frames_sent, 2);
        assert_eq!(seen.lock().len(), 2);
    }

    #[test]
    fn frames_still_queued_at_restart_are_counted_dropped() {
        let (net, a, b) = pair(CostModel::zero());
        for _ in 0..3 {
            a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        }
        b.try_recv().unwrap();
        net.crash(NodeId(2));
        net.restart(NodeId(2));
        assert!(matches!(b.try_recv(), Err(RecvError::Timeout)));
        assert_eq!(net.stats().frames_dropped, 2);
    }

    #[test]
    fn a_sink_may_send_even_when_a_closing_reorder_window_releases_its_frame() {
        // `SetReorder(0)` fires inside a send, under the schedule lock;
        // the frames it releases must reach their sinks outside it, or
        // the echo below never returns from its own send. Run detached,
        // so that shows as a failure, not a hang.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (net, a, mut b) = pair(CostModel::zero());
            let echo = net.register(NodeId(3)).unwrap();
            b.bind(move |frames| {
                for frame in frames {
                    echo.send(frame.src, frame.payload).unwrap();
                }
            });
            net.set_schedule(&window(
                Vt::ZERO,
                Vt::from_millis(1),
                DisruptionKind::Reorder(1.0),
            ));
            a.send(NodeId(2), Bytes::from_static(b"held")).unwrap();
            assert!(matches!(a.try_recv(), Err(RecvError::Timeout)));
            // The window closes on this send: the held frame is released,
            // echoed and (the window being closed) delivered.
            a.clock().charge(Vt::from_millis(2));
            a.send(NodeId(2), Bytes::from_static(b"after")).unwrap();
            let echoed: Vec<Bytes> = std::iter::from_fn(|| a.try_recv().ok())
                .map(|f| f.payload)
                .collect();
            assert_eq!(
                echoed,
                [Bytes::from_static(b"held"), Bytes::from_static(b"after")]
            );
            // And on `advance_schedule_to`, which flushes under no lock.
            net.set_faults(FaultPlan {
                reorder: 1.0,
                ..FaultPlan::none()
            });
            a.send(NodeId(2), Bytes::from_static(b"flushed")).unwrap();
            net.set_faults(FaultPlan::none());
            net.advance_schedule_to(Vt::from_millis(3));
            assert_eq!(&a.try_recv().unwrap().payload[..], b"flushed");
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a send whose delivery sends in its turn returns");
    }

    #[test]
    fn oversized_frame_rejected() {
        let (_net, a, _b) = pair(CostModel::zero());
        let err = a
            .send(NodeId(2), Bytes::from(vec![0u8; MTU + 1]))
            .unwrap_err();
        assert_eq!(err, SendError::FrameTooLarge(MTU + 1));
    }

    #[test]
    fn unknown_destination_rejected() {
        let (_net, a, _b) = pair(CostModel::zero());
        let err = a.send(NodeId(9), Bytes::new()).unwrap_err();
        assert_eq!(err, SendError::UnknownNode(NodeId(9)));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let net = Network::new(CostModel::zero());
        assert!(net.register(NodeId(1)).is_some());
        assert!(net.register(NodeId(1)).is_none());
    }

    #[test]
    fn total_loss_drops_everything() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_loss(1.0);
        for _ in 0..10 {
            a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        }
        assert!(matches!(b.try_recv(), Err(RecvError::Timeout)));
        assert_eq!(net.stats().frames_dropped, 10);
    }

    #[test]
    fn partition_blocks_both_directions_and_heals() {
        let (net, a, b) = pair(CostModel::zero());
        net.partition(&[NodeId(1)], &[NodeId(2)]);
        a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        b.send(NodeId(1), Bytes::from_static(b"y")).unwrap();
        assert!(matches!(a.try_recv(), Err(RecvError::Timeout)));
        assert!(matches!(b.try_recv(), Err(RecvError::Timeout)));
        net.heal();
        a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn crash_and_restart() {
        let (net, a, b) = pair(CostModel::zero());
        net.crash(NodeId(2));
        assert!(net.is_crashed(NodeId(2)));
        a.send(NodeId(2), Bytes::from_static(b"lost")).unwrap();
        assert!(matches!(b.try_recv(), Err(RecvError::Crashed)));
        assert!(matches!(
            b.send(NodeId(1), Bytes::new()),
            Err(SendError::SourceCrashed)
        ));
        net.restart(NodeId(2));
        assert!(!net.is_crashed(NodeId(2)));
        // The frame sent while crashed is gone.
        assert!(matches!(b.try_recv(), Err(RecvError::Timeout)));
        a.send(NodeId(2), Bytes::from_static(b"alive")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(1)).unwrap().payload[..],
            b"alive"
        );
    }

    #[test]
    fn duplication_injects_copies() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_duplication(1.0);
        a.send(NodeId(2), Bytes::from_static(b"d")).unwrap();
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(b.recv_timeout(Duration::from_secs(1)).is_ok());
        assert_eq!(net.stats().frames_duplicated, 1);
    }

    #[test]
    fn seeded_loss_is_reproducible() {
        let observed: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let net = Network::with_seed(CostModel::zero(), 42);
                let a = net.register(NodeId(1)).unwrap();
                let b = net.register(NodeId(2)).unwrap();
                net.set_loss(0.5);
                let mut got = Vec::new();
                for i in 0..32u64 {
                    a.send(NodeId(2), Bytes::from(i.to_le_bytes().to_vec()))
                        .unwrap();
                    if let Ok(f) = b.try_recv() {
                        got.push(u64::from_le_bytes(f.payload[..].try_into().unwrap()));
                    }
                }
                got
            })
            .collect();
        assert_eq!(observed[0], observed[1]);
        assert!(!observed[0].is_empty());
        assert!(observed[0].len() < 32);
    }

    #[test]
    fn fault_free_traffic_takes_no_index_on_its_link() {
        // Frames sent while no fault is in force do not shift the fates
        // of the frames sent after them.
        let survivors = |quiet_first: usize| -> Vec<u8> {
            let (net, a, b) = pair(CostModel::zero());
            for _ in 0..quiet_first {
                a.send(NodeId(2), Bytes::from_static(b"quiet")).unwrap();
            }
            while b.try_recv().is_ok() {}
            net.set_loss(0.5);
            for i in 0..32u8 {
                a.send(NodeId(2), Bytes::from(vec![i])).unwrap();
            }
            std::iter::from_fn(|| b.try_recv().ok())
                .map(|f| f.payload[0])
                .collect()
        };
        assert_eq!(survivors(0), survivors(10));
    }

    #[test]
    fn stats_count_bytes() {
        let (net, a, b) = pair(CostModel::zero());
        a.send(NodeId(2), Bytes::from(vec![0u8; 100])).unwrap();
        a.send(NodeId(2), Bytes::from(vec![0u8; 50])).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        let s = net.stats();
        assert_eq!(s.frames_sent, 2);
        assert_eq!(s.bytes_sent, 150);
    }

    #[test]
    fn clock_only_moves_forward_across_messages() {
        let (_net, a, b) = pair(CostModel::sun3_ethernet());
        // b does heavy local work first.
        b.clock().charge(Vt::from_millis(50));
        a.send(NodeId(2), Bytes::from_static(b"x")).unwrap();
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        // Arrival (≈1.2ms) is in b's past; clock must not rewind.
        assert!(b.clock().now() >= Vt::from_millis(50));
    }

    // ---- schedule engine -------------------------------------------------

    use crate::schedule::{Disruption, DisruptionKind};

    fn window(at: Vt, until: Vt, kind: DisruptionKind) -> FaultSchedule {
        FaultSchedule {
            seed: 0,
            disruptions: vec![Disruption { at, until, kind }],
        }
    }

    #[test]
    fn schedule_crash_applies_and_recovers_with_virtual_time() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_schedule(&window(
            Vt::from_millis(1),
            Vt::from_millis(2),
            DisruptionKind::Crash(NodeId(2)),
        ));
        // Before the window: delivered.
        a.send(NodeId(2), Bytes::from_static(b"pre")).unwrap();
        assert!(b.try_recv().is_ok());
        // Advance the sender's clock into the window; sending applies the
        // crash, so the frame is lost.
        a.clock().charge(Vt::from_millis(1));
        a.send(NodeId(2), Bytes::from_static(b"mid")).unwrap();
        assert!(matches!(b.try_recv(), Err(RecvError::Crashed)));
        // Past the window: the restart fires before delivery.
        a.clock().charge(Vt::from_millis(1));
        a.send(NodeId(2), Bytes::from_static(b"post")).unwrap();
        assert_eq!(
            &b.recv_timeout(Duration::from_secs(1)).unwrap().payload[..],
            b"post"
        );
        assert_eq!(net.schedule_pending(), 0);
    }

    #[test]
    fn schedule_corruption_flips_exactly_one_bit() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_schedule(&window(
            Vt::ZERO,
            Vt::from_millis(10),
            DisruptionKind::Corruption(1.0),
        ));
        let sent = vec![0u8; 64];
        a.send(NodeId(2), Bytes::from(sent.clone())).unwrap();
        let got = b.recv_timeout(Duration::from_secs(1)).unwrap().payload;
        let diff_bits: u32 = got
            .iter()
            .zip(&sent)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
        assert_eq!(net.stats().frames_corrupted, 1);
    }

    #[test]
    fn schedule_reordering_delivers_out_of_order() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_schedule(&window(
            Vt::ZERO,
            Vt::from_millis(10),
            DisruptionKind::Reorder(1.0),
        ));
        for i in 0..5u8 {
            a.send(NodeId(2), Bytes::from(vec![i])).unwrap();
        }
        let mut got = Vec::new();
        while let Ok(f) = b.try_recv() {
            got.push(f.payload[0]);
        }
        // All five arrive (the limbo cap forces the flush), out of order.
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        assert_ne!(got, vec![0, 1, 2, 3, 4]);
        assert!(net.stats().frames_reordered >= 1);
    }

    #[test]
    fn schedule_jitter_delays_arrival() {
        let (_net, a, b) = pair(CostModel::zero());
        _net.set_schedule(&window(
            Vt::ZERO,
            Vt::from_millis(10),
            DisruptionKind::Jitter(Vt::from_millis(1)),
        ));
        a.send(NodeId(2), Bytes::from_static(b"j")).unwrap();
        let f = b.recv_timeout(Duration::from_secs(1)).unwrap();
        // Zero cost model: any delay is pure jitter, within the bound.
        assert!(f.arrival <= Vt::from_millis(1));
        assert!(f.arrival > Vt::ZERO);
    }

    #[test]
    fn advance_schedule_to_flushes_reorder_limbo() {
        let (net, a, b) = pair(CostModel::zero());
        net.set_schedule(&window(
            Vt::ZERO,
            Vt::from_millis(1),
            DisruptionKind::Reorder(1.0),
        ));
        a.send(NodeId(2), Bytes::from_static(b"one")).unwrap();
        a.send(NodeId(2), Bytes::from_static(b"two")).unwrap();
        // Both are stashed; nothing is deliverable yet.
        assert!(matches!(b.try_recv(), Err(RecvError::Timeout)));
        net.advance_schedule_to(Vt::from_millis(2));
        assert!(b.try_recv().is_ok());
        assert!(b.try_recv().is_ok());
        assert_eq!(net.schedule_pending(), 0);
    }

    #[test]
    fn generated_schedules_always_heal_by_horizon() {
        let horizon = Vt::from_millis(20);
        for seed in 0..10 {
            let net = Network::with_seed(CostModel::zero(), seed);
            let a = net.register(NodeId(1)).unwrap();
            let b = net.register(NodeId(2)).unwrap();
            let _c = net.register(NodeId(3)).unwrap();
            let schedule = FaultSchedule::generate(seed, &[NodeId(3)], horizon);
            net.set_schedule(&schedule);
            // Drive traffic across the whole horizon so events fire.
            for step in 0..40u64 {
                a.clock().charge(Vt::from_micros(500));
                let _ = a.send(NodeId(2), Bytes::from(step.to_le_bytes().to_vec()));
            }
            net.advance_schedule_to(horizon);
            assert_eq!(net.schedule_pending(), 0, "seed {seed}");
            assert!(!net.is_crashed(NodeId(3)), "seed {seed}");
            // Fault-free again: a fresh frame goes straight through.
            while b.try_recv().is_ok() {}
            a.send(NodeId(2), Bytes::from_static(b"after")).unwrap();
            assert_eq!(
                &b.recv_timeout(Duration::from_secs(1)).unwrap().payload[..],
                b"after",
                "seed {seed}"
            );
        }
    }
}
