//! `clouds-obs` — virtual-time observability for the Clouds reproduction.
//!
//! The paper evaluates Clouds by instrumenting the invocation, paging and
//! commit paths and reporting per-layer costs (§4.3). This crate is the
//! shared substrate for that instrumentation: a structured event layer
//! (spans + instants) and a metrics registry (counters + latency
//! histograms), both stamped with **virtual time** from the node's
//! [`VirtualClock`] rather than wall time.
//!
//! Because every timestamp is virtual, two runs of the same seeded
//! workload produce the *same* event stream — the property the chaos
//! harness asserts as a determinism invariant (see
//! [`TraceSink::canonical_jsonl`]).
//!
//! Pieces:
//!
//! * [`TraceSink`] — a bounded ring buffer of [`TraceEvent`]s shared by
//!   every node of a cluster; serializes to JSONL (one event per line)
//!   and to the Chrome `trace_event` timeline format
//!   (`chrome://tracing` / Perfetto).
//! * [`MetricsRegistry`] — named [`Counter`]s and log₂-bucketed
//!   [`Histogram`]s of virtual-time durations, with a deterministic
//!   [`MetricsRegistry::snapshot`].
//! * [`NodeObs`] — the per-node handle bundling node id, clock,
//!   registry and sink; layers call [`NodeObs::instant`] /
//!   [`NodeObs::span`] and cache [`Counter`] handles at construction.
//!
//! No external dependencies and no wall-clock reads: the crate is pure
//! bookkeeping over `clouds-simnet`'s virtual time.

#![forbid(unsafe_code)]
#![warn(clippy::iter_over_hash_type)]

use clouds_simnet::{VirtualClock, Vt};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub mod causal;
#[cfg(debug_assertions)]
mod schema;

/// Default ring capacity of a [`TraceSink`] (events, not bytes).
///
/// A [`TraceEvent`] is 112 bytes in the ring plus its `args` string on
/// the heap, ≈ 120 bytes in all, and a busy cluster keeps its ring
/// full: 4 096 events hold ≈ 0.5 MiB. [`TRACE_CAP_ENV`] raises the size
/// for a run whose whole trace is wanted.
pub const DEFAULT_SINK_CAPACITY: usize = 1 << 12;

/// Environment variable overriding the cluster trace-ring capacity.
pub const TRACE_CAP_ENV: &str = "CLOUDS_TRACE_CAP";

// ---------------------------------------------------------------------------
// Span contexts (Dapper-style causal identity)
// ---------------------------------------------------------------------------

/// Causal identity of a span, carried across RaTP calls so receiver-side
/// spans attach to their true parents.
///
/// `trace_id == 0` means "not traced" — the zero context is the absent
/// context. A root span has `parent_id == 0`. All ids are derived by
/// FNV-1a hashing deterministic inputs (virtual time, protocol state),
/// never from wall clocks or global atomics, so same-seed runs allocate
/// identical ids (the determinism invariant byte-compares traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpanContext {
    /// Identifies one end-to-end causal tree (0 = untraced).
    pub trace_id: u64,
    /// This span's id within the trace.
    pub span_id: u64,
    /// The parent span's id (0 = root).
    pub parent_id: u64,
}

impl SpanContext {
    /// The absent context.
    pub const NONE: SpanContext = SpanContext {
        trace_id: 0,
        span_id: 0,
        parent_id: 0,
    };

    /// True when this context names a real trace.
    pub fn is_some(&self) -> bool {
        self.trace_id != 0
    }
}

thread_local! {
    /// Stack of installed contexts; the top is the ambient parent for
    /// new spans and instants on this thread.
    static CTX_STACK: RefCell<Vec<SpanContext>> = const { RefCell::new(Vec::new()) };
}

/// The ambient span context on this thread, if any.
pub fn current_ctx() -> Option<SpanContext> {
    CTX_STACK.with(|s| s.borrow().last().copied())
}

/// Install `ctx` as the ambient context until the guard drops.
///
/// Used on the receiving side of a traced RaTP message: the handler
/// thread installs the wire context so the spans it opens become
/// children of the remote caller's span.
pub fn install_ctx(ctx: SpanContext) -> CtxGuard {
    CTX_STACK.with(|s| s.borrow_mut().push(ctx));
    CtxGuard {
        ctx,
        _not_send: std::marker::PhantomData,
    }
}

/// Guard for an installed context; pops it on drop.
pub struct CtxGuard {
    ctx: SpanContext,
    // The guard pops a thread-local: it must drop on the installing
    // thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX_STACK.with(|s| {
            let mut v = s.borrow_mut();
            if let Some(i) = v.iter().rposition(|c| *c == self.ctx) {
                v.remove(i);
            }
        });
    }
}

/// Set this thread's ambient contexts aside until the guard drops.
///
/// For code that runs on a thread it does not own — a RaTP handler run
/// by the thread waiting for its reply: it sees only the contexts it
/// installs itself, as on a thread of its own.
pub fn set_aside_ctx() -> AsideGuard {
    AsideGuard {
        saved: CTX_STACK.with(|s| std::mem::take(&mut *s.borrow_mut())),
        _not_send: std::marker::PhantomData,
    }
}

/// Guard for contexts set aside; puts them back on drop.
pub struct AsideGuard {
    saved: Vec<SpanContext>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for AsideGuard {
    fn drop(&mut self) {
        let saved = std::mem::take(&mut self.saved);
        CTX_STACK.with(|s| *s.borrow_mut() = saved);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_step(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a-64 over a mixed word/text key, never returning 0 (0 is the
/// "absent id" sentinel). Deterministic across runs and platforms.
pub fn derive_id(words: &[u64], text: &[&str]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        h = fnv_step(h, &w.to_le_bytes());
    }
    for t in text {
        h = fnv_step(h, t.as_bytes());
        // Separator so ("ab","c") and ("a","bc") differ.
        h = fnv_step(h, &[0xFF]);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// Trace id of the `seq`-th root started by thread `thread_id` —
/// deterministic because thread ids and root ordering per thread are.
pub fn derive_trace_id(thread_id: u64, seq: u64) -> u64 {
    derive_id(&[thread_id, seq], &["trace-root"])
}

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// One structured event: an instant (`dur == None`) or a completed span.
///
/// `layer` and `name` are static identifiers (`"dsm.client"`,
/// `"fetch_pages"`); `args` is a short preformatted `key=value` detail
/// string. Everything in an event must be derived from virtual time and
/// protocol state — never from wall clocks or addresses — so that
/// same-seed runs serialize byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual timestamp (span start for spans).
    pub ts: Vt,
    /// Span duration; `None` for instant events.
    pub dur: Option<Vt>,
    /// Simulated node the event happened on.
    pub node: u64,
    /// Subsystem: `sched`, `ratp`, `dsm.client`, `dsm.server`, `2pc`,
    /// `pet`, `invoke`.
    pub layer: &'static str,
    /// Event name within the layer.
    pub name: &'static str,
    /// Causal identity ([`SpanContext::NONE`] when untraced). Spans
    /// carry their own `span_id`; instants carry `span_id == 0` with
    /// `parent_id` naming the ambient span they annotate.
    pub ctx: SpanContext,
    /// Short `key=value` detail string (may be empty).
    pub args: String,
}

impl TraceEvent {
    /// Total order used for canonical serialization: `(ts, node, layer,
    /// name, args, dur, ctx)`. Thread interleaving may vary the *record*
    /// order between runs, but if the event set and virtual timestamps
    /// are deterministic, the canonical order is too.
    #[allow(clippy::type_complexity)]
    fn canonical_key(
        &self,
    ) -> (
        u64,
        u64,
        &'static str,
        &'static str,
        &str,
        u64,
        (u64, u64, u64),
    ) {
        (
            self.ts.as_nanos(),
            self.node,
            self.layer,
            self.name,
            &self.args,
            self.dur.map_or(0, Vt::as_nanos),
            (self.ctx.trace_id, self.ctx.span_id, self.ctx.parent_id),
        )
    }

    /// One JSON object, fixed key order, no whitespace. Traced events
    /// add `"trace"`, `"span"`, `"parent"` between `name` and `args`;
    /// untraced events serialize exactly as before the causal layer.
    fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"ts\":{}", self.ts.as_nanos());
        if let Some(d) = self.dur {
            let _ = write!(s, ",\"dur\":{}", d.as_nanos());
        }
        let _ = write!(
            s,
            ",\"node\":{},\"layer\":\"{}\",\"name\":\"{}\"",
            self.node,
            escape(self.layer),
            escape(self.name),
        );
        if self.ctx.is_some() {
            let _ = write!(
                s,
                ",\"trace\":{},\"span\":{},\"parent\":{}",
                self.ctx.trace_id, self.ctx.span_id, self.ctx.parent_id
            );
        }
        let _ = write!(s, ",\"args\":\"{}\"}}", escape(&self.args));
        s
    }
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Bounded ring buffer of trace events, shared by all nodes of a
/// cluster. When full, the **oldest** event is dropped (and counted) so
/// the tail of the timeline survives; size the capacity to the workload
/// when full streams matter (the determinism tests do).
pub struct TraceSink {
    inner: Mutex<std::collections::VecDeque<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceSink {
    /// A sink holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use a tiny sink to effectively
    /// disable retention, but the ring must exist).
    pub fn new(capacity: usize) -> TraceSink {
        assert!(capacity > 0, "trace sink needs at least one slot");
        TraceSink {
            inner: Mutex::new(std::collections::VecDeque::with_capacity(
                capacity.min(1024),
            )),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn record(&self, ev: TraceEvent) {
        let mut ring = self.inner.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of the retained events in record order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Retained events in canonical order: sorted by
    /// `(ts, node, layer, name, args, dur)`. Record order depends on OS
    /// thread interleaving; canonical order does not.
    pub fn canonical(&self) -> Vec<TraceEvent> {
        let mut events = self.snapshot();
        events.sort_by(|a, b| a.canonical_key().cmp(&b.canonical_key()));
        events
    }

    /// Canonical JSONL: one event per line, fixed key order — the
    /// byte-comparable form the determinism invariant checks.
    pub fn canonical_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.canonical() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Chrome `trace_event` JSON (load in `chrome://tracing` or
    /// [ui.perfetto.dev](https://ui.perfetto.dev)): spans become `"X"`
    /// (complete) events, instants become `"i"`; `pid` is the simulated
    /// node, `tid` the layer, timestamps are virtual microseconds.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let events = self.canonical();
        for (i, ev) in events.iter().enumerate() {
            let ts_us = ev.ts.as_nanos() as f64 / 1_000.0;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},",
                escape(ev.name),
                escape(ev.layer),
                if ev.dur.is_some() { "X" } else { "i" },
                ts_us
            );
            if let Some(d) = ev.dur {
                let _ = write!(out, "\"dur\":{:.3},", d.as_nanos() as f64 / 1_000.0);
            } else {
                out.push_str("\"s\":\"t\",");
            }
            let _ = write!(
                out,
                "\"pid\":{},\"tid\":\"{}\",\"args\":{{\"detail\":\"{}\"}}}}",
                ev.node,
                escape(ev.layer),
                escape(&ev.args)
            );
            out.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
        }
        out.push_str("]}\n");
        out
    }

    /// Write the trace to `path`: Chrome format when the extension is
    /// `.json`, canonical JSONL otherwise.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_to_path(&self, path: &std::path::Path) -> std::io::Result<()> {
        let body = if path.extension().is_some_and(|e| e == "json") {
            self.chrome_trace()
        } else {
            self.canonical_jsonl()
        };
        std::fs::write(path, body)
    }
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::new(DEFAULT_SINK_CAPACITY)
    }
}

impl TraceSink {
    /// A sink whose capacity honours the `CLOUDS_TRACE_CAP` environment
    /// variable (events; decimal), falling back to
    /// [`DEFAULT_SINK_CAPACITY`] when unset, unparsable, or zero.
    pub fn from_env() -> TraceSink {
        let cap = std::env::var(TRACE_CAP_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_SINK_CAPACITY);
        TraceSink::new(cap)
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Handles are cheap `Arc`s; hot
/// paths cache them at construction instead of re-resolving by name.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// log₂ of the linear sub-buckets per major (log₂) bucket.
const HIST_SUB_BITS: u32 = 5;

/// Linear sub-buckets per major bucket: each power-of-two range
/// `[2^k, 2^(k+1))` is split into 32 equal-width slots.
pub const HIST_SUB_BUCKETS: usize = 1 << HIST_SUB_BITS;

/// Total buckets in a [`Histogram`]: 32 exact slots for values below
/// 32 ns, then 32 linear sub-buckets for each of the 59 major log₂
/// ranges `[2^5, 2^64)` — HDR-style resolution over the full `u64`
/// nanosecond range.
pub const HISTOGRAM_BUCKETS: usize =
    HIST_SUB_BUCKETS + (64 - HIST_SUB_BITS as usize) * HIST_SUB_BUCKETS;

/// Worst-case relative error of a reported quantile: a bucket spans
/// `2^k / 32` starting at `≥ 2^k · (32 + s) / 32`, so the exclusive
/// upper bound we report overshoots the true value by at most 1/32
/// (values below 32 ns are held in exact 1 ns slots).
pub const HIST_RELATIVE_ERROR: f64 = 1.0 / HIST_SUB_BUCKETS as f64;

/// Lock-free HDR-style histogram of virtual-time durations: log₂ major
/// buckets × 32 linear sub-buckets, so every reported quantile is
/// within [`HIST_RELATIVE_ERROR`] (≈3.1%) of the true sample — tight
/// enough to gate p999 SLOs on, while staying plain relaxed atomics on
/// the record path. Quantiles are bucket upper bounds; values below
/// 32 ns are exact.
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summary();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("mean", &s.mean())
            .field("p99", &s.p99)
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn bucket_index(ns: u64) -> usize {
    if ns < HIST_SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let h = 63 - u64::from(ns.leading_zeros()); // highest set bit, ≥ 5
    let major = h - u64::from(HIST_SUB_BITS);
    let sub = (ns >> (h - u64::from(HIST_SUB_BITS))) - HIST_SUB_BUCKETS as u64;
    (HIST_SUB_BUCKETS as u64 + major * HIST_SUB_BUCKETS as u64 + sub) as usize
}

/// Exclusive upper bound of bucket `i`, saturating at `u64::MAX`.
fn bucket_upper_bound(i: usize) -> u64 {
    if i < HIST_SUB_BUCKETS {
        return i as u64 + 1;
    }
    let major = i / HIST_SUB_BUCKETS - 1;
    let sub = (i % HIST_SUB_BUCKETS) as u128;
    let bound = (HIST_SUB_BUCKETS as u128 + sub + 1) << major;
    bound.min(u128::from(u64::MAX)) as u64
}

/// Exact-count quantile over a loaded bucket vector: the exclusive
/// upper bound of the bucket holding the rank-`⌈q·count⌉` sample.
fn quantile_of(buckets: &[u64], count: u64, q: f64) -> Vt {
    if count == 0 {
        return Vt::ZERO;
    }
    let rank = ((count as f64 * q).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (k, &n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return Vt::from_nanos(bucket_upper_bound(k));
        }
    }
    Vt::from_nanos(u64::MAX)
}

impl Histogram {
    /// Record one duration.
    pub fn record(&self, d: Vt) {
        let ns = d.as_nanos();
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Exact-count quantile `q ∈ [0, 1]`: walks the live buckets and
    /// returns the exclusive upper bound of the one holding the
    /// rank-`⌈q·count⌉` sample — within [`HIST_RELATIVE_ERROR`] of the
    /// true sample value. [`Vt::ZERO`] when empty.
    pub fn quantile(&self, q: f64) -> Vt {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        quantile_of(&buckets, count, q)
    }

    /// Point-in-time summary. Under concurrent writers each field is
    /// individually atomic; the summary is consistent once writers have
    /// quiesced (every recorded value appears in exactly one bucket and
    /// once in count/sum).
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let min = self.min_ns.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum: Vt::from_nanos(self.sum_ns.load(Ordering::Relaxed)),
            min: if min == u64::MAX {
                Vt::ZERO
            } else {
                Vt::from_nanos(min)
            },
            max: Vt::from_nanos(self.max_ns.load(Ordering::Relaxed)),
            p50: quantile_of(&buckets, count, 0.50),
            p90: quantile_of(&buckets, count, 0.90),
            p99: quantile_of(&buckets, count, 0.99),
            p999: quantile_of(&buckets, count, 0.999),
        }
    }
}

/// Snapshot of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: Vt,
    /// Smallest sample ([`Vt::ZERO`] when empty).
    pub min: Vt,
    /// Largest sample.
    pub max: Vt,
    /// Median (bucket upper bound).
    pub p50: Vt,
    /// 90th percentile (bucket upper bound).
    pub p90: Vt,
    /// 99th percentile (bucket upper bound).
    pub p99: Vt,
    /// 99.9th percentile (bucket upper bound) — the SLO tail.
    pub p999: Vt,
}

impl HistogramSummary {
    /// Mean sample value ([`Vt::ZERO`] when empty).
    pub fn mean(&self) -> Vt {
        match self.sum.as_nanos().checked_div(self.count) {
            Some(mean) => Vt::from_nanos(mean),
            None => Vt::ZERO,
        }
    }
}

/// Counter bumped once per read of a never-registered metric name —
/// the loud alternative to silently minting a zero (see
/// [`MetricsRegistry::counter_value`]).
pub const REGISTRY_MISSES: &str = "obs.registry.misses";

/// Named counters and histograms for one node. Lookup by name is
/// mutex-guarded (cold); returned handles are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    /// Never-registered names already warned about (one warning per
    /// name per registry; every miss still bumps [`REGISTRY_MISSES`]).
    warned_misses: Mutex<std::collections::BTreeSet<String>>,
}

/// Deterministically ordered dump of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// `(name, value)` sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, summary)` sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl RegistrySnapshot {
    /// Canonical text serialization: one metric per line, sorted by
    /// name regardless of how the snapshot vectors were assembled, so
    /// same-seed registry dumps are byte-identical like traces are.
    pub fn canonical_text(&self) -> String {
        let mut counters = self.counters.clone();
        counters.sort();
        let mut histograms = self.histograms.clone();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (name, v) in &counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        for (name, s) in &histograms {
            let _ = writeln!(
                out,
                "hist {name} count={} sum={} min={} max={} p50={} p90={} p99={} p999={}",
                s.count,
                s.sum.as_nanos(),
                s.min.as_nanos(),
                s.max.as_nanos(),
                s.p50.as_nanos(),
                s.p90.as_nanos(),
                s.p99.as_nanos(),
                s.p999.as_nanos()
            );
        }
        out
    }
}

/// Canonical text of several nodes' snapshots, sorted by node id — the
/// registry half of a flight-recorder dump.
pub fn merged_registry_text(nodes: &[(u64, RegistrySnapshot)]) -> String {
    let mut sorted: Vec<&(u64, RegistrySnapshot)> = nodes.iter().collect();
    sorted.sort_by_key(|(node, _)| *node);
    let mut out = String::new();
    for (node, snap) in sorted {
        let _ = writeln!(out, "# node {node}");
        out.push_str(&snap.canonical_text());
    }
    out
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    ///
    /// In debug builds, if `OBS_SCHEMA.md` has no counter row `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        #[cfg(debug_assertions)]
        schema::check(name, "counter");
        let mut map = self.counters.lock();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    ///
    /// In debug builds, if `OBS_SCHEMA.md` has no histogram row `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        #[cfg(debug_assertions)]
        schema::check(name, "histogram");
        let mut map = self.histograms.lock();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A read of metric `name` found nothing registered: bump
    /// [`REGISTRY_MISSES`] and warn once per name: a listed metric that
    /// nothing recorded reads as zero, and a report built on it should
    /// say so rather than look plausible.
    fn note_miss(&self, kind: &str, name: &str) {
        if name == REGISTRY_MISSES {
            // Reading the miss counter itself before any miss happened
            // is not a miss — it would recurse into minting itself.
            return;
        }
        self.counter(REGISTRY_MISSES).inc();
        if self.warned_misses.lock().insert(name.to_string()) {
            eprintln!(
                "clouds-obs: read of unregistered {kind} `{name}` returns zero — \
                 nothing ever recorded under that name (see OBS_SCHEMA.md)"
            );
        }
    }

    /// Current value of counter `name`.
    ///
    /// A never-registered name returns 0, but loudly: it bumps the
    /// [`REGISTRY_MISSES`] counter and warns on stderr once per name.
    ///
    /// # Panics
    ///
    /// As for [`MetricsRegistry::counter`].
    pub fn counter_value(&self, name: &str) -> u64 {
        #[cfg(debug_assertions)]
        schema::check(name, "counter");
        let existing = self.counters.lock().get(name).map(Arc::clone);
        match existing {
            Some(c) => c.get(),
            None => {
                self.note_miss("counter", name);
                0
            }
        }
    }

    /// Summary of histogram `name`.
    ///
    /// A never-registered name returns an empty summary, but loudly: it
    /// bumps [`REGISTRY_MISSES`] and warns on stderr once per name.
    ///
    /// # Panics
    ///
    /// As for [`MetricsRegistry::histogram`].
    pub fn histogram_summary(&self, name: &str) -> HistogramSummary {
        #[cfg(debug_assertions)]
        schema::check(name, "histogram");
        let existing = self.histograms.lock().get(name).map(Arc::clone);
        match existing {
            Some(h) => h.summary(),
            None => {
                self.note_miss("histogram", name);
                HistogramSummary {
                    count: 0,
                    sum: Vt::ZERO,
                    min: Vt::ZERO,
                    max: Vt::ZERO,
                    p50: Vt::ZERO,
                    p90: Vt::ZERO,
                    p99: Vt::ZERO,
                    p999: Vt::ZERO,
                }
            }
        }
    }

    /// Name-sorted snapshot of everything registered. The two maps are
    /// read one after the other: values are atomics, so holding both
    /// locks at once would buy no consistency.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect();
        RegistrySnapshot {
            counters,
            histograms,
        }
    }
}

// ---------------------------------------------------------------------------
// Per-node handle
// ---------------------------------------------------------------------------

/// The per-node observability handle: node id + virtual clock +
/// [`MetricsRegistry`] + shared [`TraceSink`]. Every instrumented layer
/// reaches its `NodeObs` through the transport node it already holds.
pub struct NodeObs {
    node: u64,
    clock: Arc<VirtualClock>,
    registry: Arc<MetricsRegistry>,
    sink: Arc<TraceSink>,
}

impl std::fmt::Debug for NodeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeObs").field("node", &self.node).finish()
    }
}

impl NodeObs {
    /// A handle with an explicit registry and (cluster-shared) sink.
    pub fn new(
        node: u64,
        clock: Arc<VirtualClock>,
        registry: Arc<MetricsRegistry>,
        sink: Arc<TraceSink>,
    ) -> Arc<NodeObs> {
        Arc::new(NodeObs {
            node,
            clock,
            registry,
            sink,
        })
    }

    /// A standalone handle with a fresh registry and private sink —
    /// what a node constructed outside a cluster uses.
    pub fn solo(node: u64, clock: Arc<VirtualClock>) -> Arc<NodeObs> {
        NodeObs::new(
            node,
            clock,
            Arc::new(MetricsRegistry::new()),
            Arc::new(TraceSink::default()),
        )
    }

    /// Simulated node id.
    pub fn node(&self) -> u64 {
        self.node
    }

    /// The node's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The node's metrics registry.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The trace sink events go to (shared across a cluster).
    pub fn sink(&self) -> &Arc<TraceSink> {
        &self.sink
    }

    /// Shorthand for [`MetricsRegistry::counter`].
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// Shorthand for [`MetricsRegistry::histogram`].
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// Record an instant event at the current virtual time. When an
    /// ambient context is installed, the instant carries
    /// `(trace, span=0, parent=ambient span)` — a leaf annotation on
    /// the enclosing span.
    pub fn instant(&self, layer: &'static str, name: &'static str, args: String) {
        let ctx = current_ctx().map_or(SpanContext::NONE, |c| SpanContext {
            trace_id: c.trace_id,
            span_id: 0,
            parent_id: c.span_id,
        });
        self.sink.record(TraceEvent {
            ts: self.clock.now(),
            dur: None,
            node: self.node,
            layer,
            name,
            ctx,
            args,
        });
    }

    /// Open an untraced span starting at the current virtual time; it
    /// records on [`Span::finish`] (or drop) with the elapsed virtual
    /// duration.
    pub fn span(self: &Arc<Self>, layer: &'static str, name: &'static str) -> Span {
        Span {
            obs: Arc::clone(self),
            layer,
            name,
            start: self.clock.now(),
            ctx: SpanContext::NONE,
            pushed: false,
            args: String::new(),
            histogram: None,
            done: false,
        }
    }

    /// Open a span as a child of the ambient context if one is
    /// installed, or an untraced span otherwise. `disc` disambiguates
    /// the derived span id from siblings with the same name and start
    /// time (e.g. `dst=… port=… txn=…`); it does not appear in the
    /// event. The span's context becomes ambient until it records.
    pub fn traced_span(
        self: &Arc<Self>,
        layer: &'static str,
        name: &'static str,
        disc: &str,
    ) -> Span {
        self.child_of(current_ctx(), layer, name, disc, true)
    }

    /// Open a span as a child of `parent` — an untraced span when
    /// `None` — **without** making it ambient. For a thread that keeps
    /// several sibling spans open at once (one per call of a fan-out):
    /// opened through [`NodeObs::traced_span`] each would become the
    /// parent of the next.
    pub fn child_span(
        self: &Arc<Self>,
        parent: Option<SpanContext>,
        layer: &'static str,
        name: &'static str,
        disc: &str,
    ) -> Span {
        self.child_of(parent, layer, name, disc, false)
    }

    fn child_of(
        self: &Arc<Self>,
        parent: Option<SpanContext>,
        layer: &'static str,
        name: &'static str,
        disc: &str,
        ambient: bool,
    ) -> Span {
        match parent {
            Some(parent) => self.span_in_trace_at(
                self.clock.now(),
                (parent.trace_id, parent.span_id),
                layer,
                name,
                disc,
                ambient,
            ),
            None => self.span(layer, name),
        }
    }

    /// Open a **root** span of the trace `trace_id` (parent 0). The
    /// span's context becomes ambient until it records.
    pub fn root_span(
        self: &Arc<Self>,
        trace_id: u64,
        layer: &'static str,
        name: &'static str,
        disc: &str,
    ) -> Span {
        self.span_in_trace_at(self.clock.now(), (trace_id, 0), layer, name, disc, true)
    }

    /// Open a root span that **starts at `start`**, which may be before
    /// the clock's current time. This is how open-loop load harnesses
    /// charge queueing delay honestly: the span covers the request from
    /// its *intended arrival* to completion, so time spent waiting
    /// behind a backlog is measured instead of hidden
    /// (coordinated-omission-correct). `start` later than now is
    /// clamped at record time (durations never go negative).
    pub fn root_span_at(
        self: &Arc<Self>,
        start: Vt,
        trace_id: u64,
        layer: &'static str,
        name: &'static str,
        disc: &str,
    ) -> Span {
        self.span_in_trace_at(start, (trace_id, 0), layer, name, disc, true)
    }

    /// `ambient`: the span's context is pushed as this thread's
    /// ambient context until the span records.
    fn span_in_trace_at(
        self: &Arc<Self>,
        start: Vt,
        (trace_id, parent_id): (u64, u64),
        layer: &'static str,
        name: &'static str,
        disc: &str,
        ambient: bool,
    ) -> Span {
        let span_id = derive_id(
            &[trace_id, parent_id, self.node, start.as_nanos()],
            &[layer, name, disc],
        );
        let ctx = SpanContext {
            trace_id,
            span_id,
            parent_id,
        };
        if ambient {
            CTX_STACK.with(|s| s.borrow_mut().push(ctx));
        }
        Span {
            obs: Arc::clone(self),
            layer,
            name,
            start,
            ctx,
            pushed: ambient,
            args: String::new(),
            histogram: None,
            done: false,
        }
    }
}

/// An open span: records a completed [`TraceEvent`] (and optionally a
/// [`Histogram`] sample) covering `start..now` when finished or dropped.
pub struct Span {
    obs: Arc<NodeObs>,
    layer: &'static str,
    name: &'static str,
    start: Vt,
    ctx: SpanContext,
    pushed: bool,
    args: String,
    histogram: Option<Arc<Histogram>>,
    done: bool,
}

impl Span {
    /// Attach a detail string (shown in `args`).
    pub fn set_args(&mut self, args: String) {
        self.args = args;
    }

    /// Also record the span's duration into `histogram` on finish.
    pub fn with_histogram(mut self, histogram: Arc<Histogram>) -> Span {
        self.histogram = Some(histogram);
        self
    }

    /// Span start (virtual time).
    pub fn start(&self) -> Vt {
        self.start
    }

    /// This span's causal context ([`SpanContext::NONE`] when
    /// untraced) — what a transport attaches to outgoing messages.
    pub fn ctx(&self) -> SpanContext {
        self.ctx
    }

    fn record(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        if self.pushed {
            CTX_STACK.with(|s| {
                let mut v = s.borrow_mut();
                if let Some(i) = v.iter().rposition(|c| *c == self.ctx) {
                    v.remove(i);
                }
            });
        }
        let end = self.obs.clock.now();
        let dur = end.saturating_sub(self.start);
        if let Some(h) = &self.histogram {
            h.record(dur);
        }
        self.obs.sink.record(TraceEvent {
            ts: self.start,
            dur: Some(dur),
            node: self.obs.node,
            layer: self.layer,
            name: self.name,
            ctx: self.ctx,
            args: std::mem::take(&mut self.args),
        });
    }

    /// Close the span now (idempotent; drop does the same).
    pub fn finish(mut self) {
        self.record();
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, node: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            ts: Vt::from_nanos(ts),
            dur: None,
            node,
            layer: "test",
            name,
            ctx: SpanContext::NONE,
            args: String::new(),
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let sink = TraceSink::new(3);
        for i in 0..5 {
            sink.record(ev(i, 1, "e"));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let kept: Vec<u64> = sink.snapshot().iter().map(|e| e.ts.as_nanos()).collect();
        assert_eq!(kept, vec![2, 3, 4], "tail of the timeline survives");
    }

    #[test]
    fn canonical_order_is_interleaving_independent() {
        let a = TraceSink::new(16);
        let b = TraceSink::new(16);
        // Same event set, different record order.
        let events = [ev(5, 2, "x"), ev(5, 1, "x"), ev(1, 9, "z"), ev(5, 1, "a")];
        for e in &events {
            a.record(e.clone());
        }
        for e in events.iter().rev() {
            b.record(e.clone());
        }
        assert_ne!(a.snapshot(), b.snapshot());
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical_jsonl(), b.canonical_jsonl());
        // ts dominates, then node, then name.
        let order: Vec<(u64, u64, &str)> = a
            .canonical()
            .iter()
            .map(|e| (e.ts.as_nanos(), e.node, e.name))
            .collect();
        assert_eq!(
            order,
            vec![(1, 9, "z"), (5, 1, "a"), (5, 1, "x"), (5, 2, "x")]
        );
    }

    #[test]
    fn jsonl_shape_and_escaping() {
        let sink = TraceSink::new(4);
        sink.record(TraceEvent {
            ts: Vt::from_nanos(7),
            dur: Some(Vt::from_nanos(3)),
            node: 42,
            layer: "dsm.client",
            name: "fetch_pages",
            ctx: SpanContext::NONE,
            args: "seg=\"s\"\n".to_string(),
        });
        let line = sink.canonical_jsonl();
        assert_eq!(
            line,
            "{\"ts\":7,\"dur\":3,\"node\":42,\"layer\":\"dsm.client\",\"name\":\"fetch_pages\",\"args\":\"seg=\\\"s\\\"\\n\"}\n"
        );
    }

    #[test]
    fn traced_jsonl_carries_ids_between_name_and_args() {
        let sink = TraceSink::new(4);
        sink.record(TraceEvent {
            ts: Vt::from_nanos(7),
            dur: Some(Vt::from_nanos(3)),
            node: 42,
            layer: "invoke",
            name: "invoke",
            ctx: SpanContext {
                trace_id: 9,
                span_id: 5,
                parent_id: 0,
            },
            args: "depth=0".to_string(),
        });
        assert_eq!(
            sink.canonical_jsonl(),
            "{\"ts\":7,\"dur\":3,\"node\":42,\"layer\":\"invoke\",\"name\":\"invoke\",\"trace\":9,\"span\":5,\"parent\":0,\"args\":\"depth=0\"}\n"
        );
    }

    #[test]
    fn chrome_trace_is_wellformed_json_shape() {
        let sink = TraceSink::new(4);
        sink.record(ev(1_000, 1, "i"));
        sink.record(TraceEvent {
            ts: Vt::from_nanos(2_000),
            dur: Some(Vt::from_nanos(500)),
            node: 1,
            layer: "test",
            name: "s",
            ctx: SpanContext::NONE,
            args: String::new(),
        });
        let body = sink.chrome_trace();
        assert!(body.starts_with("{\"traceEvents\":["));
        assert!(body.trim_end().ends_with("]}"));
        assert!(body.contains("\"ph\":\"i\""));
        assert!(body.contains("\"ph\":\"X\""));
        assert!(body.contains("\"dur\":0.500"));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        // Values below 32 ns are exact: one slot per value.
        for ns in 0..32u64 {
            assert_eq!(bucket_index(ns), ns as usize, "exact slot for {ns}");
        }
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(63), 63);
        assert_eq!(bucket_index(64), 64);
        assert_eq!(bucket_index(65), 64, "sub-bucket width 2 at 2^6");
        assert_eq!(bucket_index(66), 65);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let h = Histogram::default();
        for us in [100u64, 200, 300, 400, 10_000] {
            h.record(Vt::from_micros(us));
        }
        let s = h.summary();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, Vt::from_micros(100));
        assert_eq!(s.max, Vt::from_micros(10_000));
        assert_eq!(s.mean(), Vt::from_micros(2200));
        // p50 is the rank-3 sample (300µs) within the ≤3.2% bound.
        assert!(s.p50 >= Vt::from_micros(300) && s.p50 <= Vt::from_micros(310));
        assert!(s.p99 >= Vt::from_micros(10_000) && s.p99 <= Vt::from_micros(10_320));
    }

    /// Every reported quantile must stay within the documented relative
    /// error bound of the true sample: record known value sets, compare
    /// `quantile(q)` against the exact rank statistic.
    #[test]
    fn histogram_percentile_accuracy_within_documented_bound() {
        let within = |reported: Vt, exact: u64| {
            let r = reported.as_nanos();
            assert!(r >= exact, "quantile {r} below exact sample {exact}");
            let bound = ((exact as f64) * HIST_RELATIVE_ERROR).max(1.0);
            assert!(
                (r - exact) as f64 <= bound + 1.0,
                "quantile {r} overshoots exact {exact} by more than {bound}"
            );
        };

        // Uniform 1..=10_000 ns.
        let h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(Vt::from_nanos(v));
        }
        for (q, exact) in [(0.50, 5_000), (0.90, 9_000), (0.99, 9_900), (0.999, 9_990)] {
            within(h.quantile(q), exact);
        }
        let s = h.summary();
        within(s.p50, 5_000);
        within(s.p90, 9_000);
        within(s.p99, 9_900);
        within(s.p999, 9_990);

        // Bimodal with a sparse far tail: 990 fast ops at 8 µs, 10 slow
        // at 90 ms — p99/p999 must resolve the far mode, not round to a
        // power of two.
        let h = Histogram::default();
        for _ in 0..990 {
            h.record(Vt::from_micros(8));
        }
        for _ in 0..10 {
            h.record(Vt::from_millis(90));
        }
        within(h.quantile(0.50), 8_000);
        within(h.quantile(0.99), 8_000);
        within(h.quantile(0.999), 90_000_000);

        // Single values across the full range: reported p100 within
        // bound of the value itself.
        for v in [1u64, 31, 32, 33, 1_000, 123_457, 999_999_937, u64::MAX / 3] {
            let h = Histogram::default();
            h.record(Vt::from_nanos(v));
            within(h.quantile(1.0), v);
        }
    }

    #[test]
    fn registry_handles_are_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("ratp.calls");
        let b = reg.counter("ratp.calls");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter_value("ratp.calls"), 3);
        assert_eq!(reg.counter_value("ratp.timeouts"), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(
        expected = "metric `ratp.call` is used as a counter but OBS_SCHEMA.md lists a histogram"
    )]
    fn registering_a_metric_as_the_wrong_kind_panics() {
        MetricsRegistry::new().counter("ratp.call");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "metric `bogus.metric` has no row in OBS_SCHEMA.md")]
    fn registering_an_unlisted_metric_panics() {
        MetricsRegistry::new().histogram("bogus.metric");
    }

    #[test]
    fn registry_reads_of_unregistered_names_are_counted() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.counter_value(REGISTRY_MISSES), 0, "no misses yet");

        assert_eq!(reg.counter_value("ratp.retransmits"), 0);
        assert_eq!(reg.histogram_summary("ratp.call").count, 0);
        assert_eq!(reg.counter_value("ratp.retransmits"), 0);
        assert_eq!(
            reg.counter_value(REGISTRY_MISSES),
            3,
            "every miss bumps the counter (the warning itself is one-shot per name)"
        );

        // Reading the miss counter itself never recurses or self-counts.
        assert_eq!(reg.counter_value(REGISTRY_MISSES), 3);

        // Registering afterwards stops the counting.
        reg.counter("ratp.retransmits").add(7);
        assert_eq!(reg.counter_value("ratp.retransmits"), 7);
        assert_eq!(reg.counter_value(REGISTRY_MISSES), 3);
    }

    #[test]
    fn registry_snapshot_consistent_under_concurrent_writers() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("ratp.calls");
                let h = reg.histogram("ratp.call");
                for i in 0..1000u64 {
                    c.inc();
                    h.record(Vt::from_nanos(t * 1000 + i));
                    // Interleave snapshots with writes: must never panic
                    // or observe impossible totals.
                    if i % 100 == 0 {
                        let snap = reg.snapshot();
                        for (_, v) in &snap.counters {
                            assert!(*v <= 8000);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("ratp.calls".to_string(), 8000)]);
        let (_, lat) = &snap.histograms[0];
        assert_eq!(lat.count, 8000);
        // Every sample landed in exactly one bucket.
        let h = reg.histogram("ratp.call");
        let bucket_total: u64 = h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum();
        assert_eq!(bucket_total, 8000);
    }

    #[test]
    fn spans_record_virtual_durations() {
        let clock = Arc::new(VirtualClock::new());
        let obs = NodeObs::solo(7, Arc::clone(&clock));
        let hist = obs.histogram("invoke.call");
        {
            let mut span = obs.span("test", "work").with_histogram(Arc::clone(&hist));
            span.set_args("k=1".to_string());
            clock.charge(Vt::from_micros(250));
            span.finish();
        }
        obs.instant("test", "tick", String::new());
        let events = obs.sink().canonical();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "work");
        assert_eq!(events[0].dur, Some(Vt::from_micros(250)));
        assert_eq!(events[0].args, "k=1");
        assert_eq!(events[1].name, "tick");
        assert_eq!(events[1].ts, Vt::from_micros(250));
        assert_eq!(hist.summary().count, 1);
        assert_eq!(hist.summary().max, Vt::from_micros(250));
    }

    #[test]
    fn histogram_bucket_boundaries_at_powers_of_two() {
        // Every power of two ≥ 32 opens a fresh major bucket (first
        // sub-slot); the value just below it is the last sub-slot of the
        // previous major bucket. Indices are contiguous.
        for k in HIST_SUB_BITS..64 {
            let edge = 1u64 << k;
            let expected = HIST_SUB_BUCKETS * (k - HIST_SUB_BITS + 1) as usize;
            assert_eq!(bucket_index(edge), expected, "edge 2^{k}");
            assert_eq!(bucket_index(edge - 1), expected - 1, "below 2^{k}");
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX - 1), HISTOGRAM_BUCKETS - 1);

        // Upper bounds are exclusive, contiguous and monotone: bucket
        // i's bound is bucket i+1's lower edge.
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let ub = bucket_upper_bound(i);
            assert!(ub > 0);
            assert_eq!(
                bucket_index(ub),
                i + 1,
                "upper bound {ub} of bucket {i} opens bucket {}",
                i + 1
            );
            assert_eq!(bucket_index(ub - 1), i, "bound {ub} is exclusive");
        }

        // Top-bucket samples: quantiles saturate at u64::MAX instead of
        // overflowing the exclusive upper bound.
        let h = Histogram::default();
        h.record(Vt::from_nanos(u64::MAX));
        h.record(Vt::from_nanos(u64::MAX - 1));
        let s = h.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, Vt::from_nanos(u64::MAX));
        assert_eq!(s.p50, Vt::from_nanos(u64::MAX));
        assert_eq!(s.p99, Vt::from_nanos(u64::MAX));

        // Zero and one land in their own exact slots.
        let z = Histogram::default();
        z.record(Vt::ZERO);
        z.record(Vt::from_nanos(1));
        let s = z.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, Vt::ZERO);
        assert_eq!(s.p50, Vt::from_nanos(1), "zero slot's upper bound");
        assert_eq!(s.p99, Vt::from_nanos(2), "one slot's upper bound");
    }

    #[test]
    fn empty_histogram_summary_is_all_zero() {
        let s = Histogram::default().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean(), Vt::ZERO, "mean must not divide by zero");
        assert_eq!(s.sum, Vt::ZERO);
        assert_eq!(s.min, Vt::ZERO);
        assert_eq!(s.max, Vt::ZERO);
        assert_eq!(s.p50, Vt::ZERO);
        assert_eq!(s.p90, Vt::ZERO);
        assert_eq!(s.p99, Vt::ZERO);
        assert_eq!(s.p999, Vt::ZERO);
    }

    #[test]
    fn derive_id_is_deterministic_separated_and_nonzero() {
        let a = derive_id(&[1, 2], &["x", "y"]);
        assert_eq!(a, derive_id(&[1, 2], &["x", "y"]));
        assert_ne!(a, derive_id(&[1, 2], &["xy", ""]), "text separator matters");
        assert_ne!(a, derive_id(&[2, 1], &["x", "y"]));
        assert_ne!(derive_trace_id(1, 1), derive_trace_id(1, 2));
        assert_ne!(derive_id(&[], &[]), 0);
    }

    #[test]
    fn traced_spans_nest_and_instants_attach_to_ambient() {
        let clock = Arc::new(VirtualClock::new());
        let obs = NodeObs::solo(3, Arc::clone(&clock));
        assert_eq!(current_ctx(), None);

        let root = obs.root_span(0xDEAD, "invoke", "invoke", "obj=o");
        let root_ctx = root.ctx();
        assert_eq!(root_ctx.trace_id, 0xDEAD);
        assert_eq!(root_ctx.parent_id, 0);
        assert_eq!(current_ctx(), Some(root_ctx));

        clock.charge(Vt::from_micros(10));
        let child = obs.traced_span("ratp", "call", "dst=2");
        let child_ctx = child.ctx();
        assert_eq!(child_ctx.trace_id, 0xDEAD);
        assert_eq!(child_ctx.parent_id, root_ctx.span_id);
        obs.instant("ratp", "retransmit", String::new());
        child.finish();
        assert_eq!(current_ctx(), Some(root_ctx), "child popped on record");
        root.finish();
        assert_eq!(current_ctx(), None);

        // Without an ambient context, traced_span degrades to untraced.
        let plain = obs.traced_span("ratp", "call", "dst=2");
        assert_eq!(plain.ctx(), SpanContext::NONE);
        assert_eq!(current_ctx(), None);
        plain.finish();

        let events = obs.sink().canonical();
        let instant = events.iter().find(|e| e.name == "retransmit").unwrap();
        assert_eq!(instant.ctx.trace_id, 0xDEAD);
        assert_eq!(instant.ctx.span_id, 0);
        assert_eq!(instant.ctx.parent_id, child_ctx.span_id);
    }

    #[test]
    fn child_spans_stay_siblings_and_never_become_ambient() {
        let clock = Arc::new(VirtualClock::new());
        let obs = NodeObs::solo(3, Arc::clone(&clock));
        let root = obs.root_span(0xBEEF, "2pc", "gcp_commit", "txn=1");
        let parent = current_ctx();

        let first = obs.child_span(parent, "ratp", "call", "dst=2");
        let second = obs.child_span(parent, "ratp", "call", "dst=3");
        assert_eq!(current_ctx(), parent, "a child span is not ambient");
        assert_eq!(first.ctx().parent_id, root.ctx().span_id);
        assert_eq!(second.ctx().parent_id, root.ctx().span_id);
        assert_ne!(first.ctx().span_id, second.ctx().span_id);
        // The same ids `traced_span` would have derived.
        let nested = obs.traced_span("ratp", "call", "dst=2");
        assert_eq!(nested.ctx(), first.ctx());
        nested.finish();
        // Closing in any order leaves the ambient stack alone.
        first.finish();
        assert_eq!(current_ctx(), parent);
        second.finish();
        root.finish();
        assert_eq!(current_ctx(), None);
        assert_eq!(
            obs.child_span(None, "ratp", "call", "dst=2").ctx(),
            SpanContext::NONE
        );
    }

    #[test]
    fn installed_ctx_parents_remote_side_spans() {
        let clock = Arc::new(VirtualClock::new());
        let obs = NodeObs::solo(9, Arc::clone(&clock));
        let wire = SpanContext {
            trace_id: 7,
            span_id: 21,
            parent_id: 3,
        };
        {
            let _g = install_ctx(wire);
            let server = obs.traced_span("dsm.server", "serve_fetch", "page=0");
            assert_eq!(server.ctx().trace_id, 7);
            assert_eq!(server.ctx().parent_id, 21, "child of the wire span");
            server.finish();
        }
        assert_eq!(current_ctx(), None);
    }

    #[test]
    fn contexts_set_aside_are_hidden_then_restored() {
        let ctx = |span_id| SpanContext {
            trace_id: 7,
            span_id,
            parent_id: 0,
        };
        let _outer = install_ctx(ctx(1));
        {
            let _aside = set_aside_ctx();
            assert_eq!(
                current_ctx(),
                None,
                "the borrowed thread's spans are hidden"
            );
            let _inner = install_ctx(ctx(2));
            assert_eq!(current_ctx(), Some(ctx(2)));
        }
        assert_eq!(current_ctx(), Some(ctx(1)));
    }

    #[test]
    fn registry_snapshot_text_is_canonically_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("store.appends").add(2);
        reg.counter("2pc.commits").inc();
        reg.histogram("ratp.call").record(Vt::from_nanos(5));
        let text = reg.snapshot().canonical_text();
        assert_eq!(
            text,
            "counter 2pc.commits 1\ncounter store.appends 2\nhist ratp.call count=1 sum=5 min=5 max=5 p50=6 p90=6 p99=6 p999=6\n"
        );

        // Even a hand-assembled snapshot in the wrong order serializes
        // canonically — the byte-identity fix.
        let scrambled = RegistrySnapshot {
            counters: vec![("store.appends".into(), 2), ("2pc.commits".into(), 1)],
            histograms: reg.snapshot().histograms,
        };
        assert_eq!(scrambled.canonical_text(), text);

        let merged = merged_registry_text(&[(5, reg.snapshot()), (1, RegistrySnapshot::default())]);
        assert!(merged.starts_with("# node 1\n# node 5\n"), "{merged}");
    }
}
