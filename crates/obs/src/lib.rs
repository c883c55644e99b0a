//! Lightweight span/event collection for the YAT mediator — the
//! observability substrate behind `EXPLAIN ANALYZE`.
//!
//! The paper's optimizations exist "to minimize the communication costs
//! between the sources and the mediator" (Section 5.3); judging them
//! requires attributing *each* cost to the operator, rewrite or round
//! trip that incurred it. This crate provides the collection side:
//!
//! * a [`Collector`] that records a tree of [`SpanData`] — one span per
//!   algebra operator evaluated (opened by `yat-algebra`'s evaluator),
//!   one per protocol round trip (opened by `yat-mediator`'s transport),
//!   plus free-form phases;
//! * [`profile`] — aggregation of the raw span tree into an annotated
//!   operator profile (calls, cardinalities, wall time, traffic), the
//!   data structure `Mediator::explain` renders.
//!
//! No external subscriber is required: spans go into a list behind a
//! mutex and cost nothing when no collector is attached (every
//! instrumentation site takes `Option<&Collector>`). For integration
//! with a `tracing`-style subscriber, enable the `subscriber` cargo
//! feature and install a `SpanSink`; the sink observes each span as it
//! closes and can forward it to any backend.

#![deny(missing_docs)]

pub mod profile;

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Span kind labels used by the built-in instrumentation sites.
pub mod kind {
    /// An algebra operator evaluation (label = `Alg::describe()`).
    pub const OPERATOR: &str = "operator";
    /// A mediator↔wrapper protocol round trip (label = request kind and
    /// connection name).
    pub const RPC: &str = "rpc";
    /// A coarse execution phase (document prefetch, evaluation, …).
    pub const PHASE: &str = "phase";
    /// An optimizer rule application.
    pub const RULE: &str = "rule";
    /// An answer-cache event (`hit @src` / `miss @src` / `evict @src`).
    /// Excluded from [`crate::profile::build`]: `EXPLAIN ANALYZE`
    /// reports cache activity in its own section, not as operator rows.
    pub const CACHE: &str = "cache";
    /// A serving-layer phase of one client request (`accept`,
    /// `queue-wait`, `execute`, `respond`), recorded by `yat-server`.
    pub const SERVER: &str = "server";
    /// A compiled-program instruction report emitted by the bytecode VM
    /// after a run (label = `#id OPCODE describe`, one event per
    /// instruction, carrying [`crate::attr::BATCHES`] and
    /// [`crate::attr::ROWS_OUT`] totals). Excluded from
    /// [`crate::profile::build`]: `EXPLAIN ANALYZE` renders these in a
    /// dedicated "compiled program" section, not as operator rows.
    pub const VM: &str = "vm";
    /// A streamed-answer delivery (label = `stream answer`), recorded by
    /// the mediator's streaming executor around batch delivery. Carries
    /// [`crate::attr::CHUNKS`], [`crate::attr::BATCH_ROWS`] and
    /// [`crate::attr::ROWS_OUT`]; on the server side, the per-stream
    /// write loop records one too. Excluded from
    /// [`crate::profile::build`] like the other non-operator kinds.
    pub const STREAM: &str = "stream";
    /// An index-plane event: one per index-consulting evaluation — a
    /// wrapper-side pushed plan (label = `<collection> @<source>`) or a
    /// covered mediator-local `Bind` (label = `bind <root> @local`).
    /// Carries [`crate::attr::PROBES`], [`crate::attr::CANDIDATES`],
    /// [`crate::attr::SCANNED`], [`crate::attr::COLLECTION_SIZE`] and
    /// [`crate::attr::ROWS_OUT`]. Excluded from [`crate::profile::build`]
    /// like the other non-operator kinds: `EXPLAIN ANALYZE` reports
    /// index activity in its own section.
    pub const INDEX: &str = "index";
    /// A storage-plane event: one per pushed-plan execution against a
    /// store-backed source (label = `<collection> @<source>`). Carries
    /// [`crate::attr::SEGMENTS`], [`crate::attr::RESIDENT`],
    /// [`crate::attr::SEGMENT_LOADS`], [`crate::attr::EVICTIONS`] and
    /// [`crate::attr::BYTES_READ`]. Excluded from
    /// [`crate::profile::build`] like the other non-operator kinds:
    /// `EXPLAIN ANALYZE` reports storage activity in its own section.
    pub const STORAGE: &str = "storage";
}

/// Attribute names recorded by the built-in instrumentation sites (the
/// profile aggregator understands these).
pub mod attr {
    /// Output cardinality of an operator (`Tab` rows; `1` for a tree).
    pub const ROWS_OUT: &str = "rows_out";
    /// Serialized request bytes of a round trip.
    pub const BYTES_SENT: &str = "bytes_sent";
    /// Serialized response bytes of a round trip.
    pub const BYTES_RECEIVED: &str = "bytes_received";
    /// Documents (trees or result rows) received in a round trip.
    pub const DOCUMENTS: &str = "documents";
    /// Present (with the message) when the spanned work failed.
    pub const ERROR: &str = "error";
    /// Index of the worker lane a scatter/gather job executed on.
    pub const LANE: &str = "lane";
    /// Response bytes a cache hit kept off the wire (or an eviction
    /// freed).
    pub const BYTES_SAVED: &str = "bytes_saved";
    /// Admission-queue depth observed when a server span was recorded.
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Queries executing on worker threads when a server span was
    /// recorded.
    pub const IN_FLIGHT: &str = "in_flight";
    /// Index of the server worker thread that executed a request.
    pub const WORKER: &str = "worker";
    /// Row batches a compiled-program instruction processed during one
    /// VM run (`0` for an instruction that never executed).
    pub const BATCHES: &str = "batches";
    /// Answer chunks a streamed delivery emitted (`stream` spans).
    pub const CHUNKS: &str = "chunks";
    /// Rows per answer chunk a streamed delivery was configured with.
    pub const BATCH_ROWS: &str = "batch_rows";
    /// High-water mark of gathered-but-unconsumed results buffered at
    /// once — the scatter/gather backpressure gauge (`phase` spans) and
    /// the server's per-stream in-flight-chunk gauge (`stream` spans).
    /// Bounded by the configured budget, never by answer size.
    pub const PEAK_PENDING: &str = "peak_pending";
    /// Index lookups one index-driven evaluation performed (`index`
    /// events): posting-list, path-hash or field-index probes.
    pub const PROBES: &str = "probes";
    /// Candidates (documents, objects or nodes) those probes seeded.
    pub const CANDIDATES: &str = "candidates";
    /// Documents/objects actually examined to produce the answer. Equal
    /// to [`COLLECTION_SIZE`] on the scan path; ideally much smaller on
    /// the indexed path.
    pub const SCANNED: &str = "scanned";
    /// Total size of the collection/extent the evaluation addressed.
    pub const COLLECTION_SIZE: &str = "collection_size";
    /// Live segments in a source's persistent store (`storage` events).
    pub const SEGMENTS: &str = "segments";
    /// Segments resident in the store's LRU after the execution.
    pub const RESIDENT: &str = "resident";
    /// Segment loads from disk during the execution.
    pub const SEGMENT_LOADS: &str = "segment_loads";
    /// Segment evictions during the execution.
    pub const EVICTIONS: &str = "evictions";
    /// Bytes read from disk during the execution.
    pub const BYTES_READ: &str = "bytes_read";
}

/// A pluggable destination for [`warn`] messages.
pub type WarnSink = Box<dyn Fn(&str) + Send + Sync>;

/// Where warnings go: the installed sink, or stderr when none is set.
static WARN_SINK: Mutex<Option<WarnSink>> = Mutex::new(None);

/// Emits one out-of-band warning — configuration problems (an invalid
/// `YAT_EXEC_MODE`/`YAT_CACHE` value, say) that have no span to hang off
/// of. Goes to the sink installed by [`set_warn_sink`], or to stderr
/// prefixed `[yat warn]` when none is installed.
pub fn warn(message: impl AsRef<str>) {
    let message = message.as_ref();
    match &*WARN_SINK.lock().unwrap_or_else(|e| e.into_inner()) {
        Some(sink) => sink(message),
        None => eprintln!("[yat warn] {message}"),
    }
}

/// Installs (or, with `None`, removes) the global warning sink. Tests
/// capture warnings this way; embedders can forward them to a logger.
pub fn set_warn_sink(sink: Option<WarnSink>) {
    *WARN_SINK.lock().unwrap_or_else(|e| e.into_inner()) = sink;
}

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned counter.
    Uint(u64),
    /// A signed quantity.
    Int(i64),
    /// Free text.
    Str(String),
}

impl AttrValue {
    /// The value as `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::Uint(v) => Some(*v),
            AttrValue::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Uint(v) => write!(f, "{v}"),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One recorded span: a named piece of work with a parent, attributes
/// and a wall-clock duration.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanData {
    /// Creation number, stable for the collector's lifetime. It is the
    /// span's index in [`Collector::spans`] unless a
    /// [`bounded`](Collector::bounded) collector has evicted older spans.
    pub id: usize,
    /// Enclosing span, `None` for roots.
    pub parent: Option<usize>,
    /// Coarse category (see [`kind`]).
    pub kind: &'static str,
    /// Human-readable label; spans with equal `(kind, label)` under the
    /// same parent aggregate into one profile row.
    pub label: String,
    /// Recorded attributes, in recording order.
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// Wall time between open and close (zero for events and unclosed
    /// spans).
    pub elapsed: Duration,
    /// Whether the span was closed (guard dropped).
    pub closed: bool,
}

impl SpanData {
    /// The first attribute named `name`.
    pub fn attr(&self, name: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// Retained spans in creation order; `spans[i]` has id `base + i`.
    spans: VecDeque<SpanData>,
    /// Id of the oldest retained span: how many were evicted before it.
    base: usize,
    /// How many spans a bounded collector keeps; `None` keeps all.
    cap: Option<usize>,
    /// Open-span stacks, one per thread: a span opened on a worker thread
    /// nests under the innermost span *of that thread*, never under
    /// whatever another thread happens to have open at the same instant.
    stacks: HashMap<ThreadId, Vec<usize>>,
}

impl Inner {
    fn stack(&mut self) -> &mut Vec<usize> {
        self.stacks.entry(std::thread::current().id()).or_default()
    }

    /// The id the next recorded span gets.
    fn next_id(&self) -> usize {
        self.base + self.spans.len()
    }

    /// Appends a span created with [`Inner::next_id`].
    fn push(&mut self, span: SpanData) {
        self.spans.push_back(span);
        self.evict();
    }

    /// Drops closed spans from the front while over the cap. An open
    /// span stops the eviction, so ids of open spans always resolve.
    fn evict(&mut self) {
        let Some(cap) = self.cap else { return };
        while self.spans.len() > cap && self.spans.front().is_some_and(|s| s.closed) {
            self.spans.pop_front();
            self.base += 1;
        }
    }
}

/// A sink observing spans as they close (enable the `subscriber`
/// feature). Implement this to bridge spans into `tracing` or any other
/// backend; the collector still records them.
#[cfg(feature = "subscriber")]
pub trait SpanSink: Send + Sync {
    /// Called exactly once per span, at close time, with the final data.
    fn on_close(&self, span: &SpanData);
}

/// A shared, thread-safe span collector.
///
/// Cloning is cheap (it is an `Arc` handle); all clones feed the same
/// span list. Spans opened while another span is open *on the same
/// thread* become its children, so each thread contributes a faithful
/// call tree; [`Collector::span_under`] stitches the per-thread trees
/// together when work fans out to workers.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Arc<Mutex<Inner>>,
    #[cfg(feature = "subscriber")]
    sink: Arc<Mutex<Option<Arc<dyn SpanSink>>>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("spans", &self.lock().spans.len())
            .finish()
    }
}

impl Collector {
    /// A fresh, empty collector that keeps every span (what `EXPLAIN
    /// ANALYZE` needs to build a whole profile).
    pub fn new() -> Self {
        Collector::default()
    }

    /// A fresh collector that keeps only the latest `cap` spans, for a
    /// long-running process whose span log would otherwise grow with
    /// every request. The oldest spans are evicted first, and only once
    /// closed; ids and parent links of retained spans never change, and
    /// a parent may refer to an evicted span. A trimmed log is not a
    /// whole tree, so [`profile::build`] needs [`Collector::new`].
    pub fn bounded(cap: usize) -> Self {
        let c = Collector::default();
        c.lock().cap = Some(cap);
        c
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs the sink observing span closes.
    #[cfg(feature = "subscriber")]
    pub fn set_sink(&self, sink: Arc<dyn SpanSink>) {
        *self.sink.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
    }

    /// Opens a span; it closes (and records its duration) when the
    /// returned guard drops. Until then, newly opened spans and events
    /// *on the same thread* nest under it.
    pub fn span(&self, kind: &'static str, label: impl Into<String>) -> Span<'_> {
        self.open(kind, label.into(), None)
    }

    /// Opens a span with an explicit parent instead of the current
    /// thread's innermost open span. The scatter/gather executor uses this
    /// to hang worker-lane job spans under the phase span that dispatched
    /// them, even though the jobs open on other threads. Spans opened
    /// afterwards on the same thread still nest under the new span.
    pub fn span_under(
        &self,
        parent: Option<usize>,
        kind: &'static str,
        label: impl Into<String>,
    ) -> Span<'_> {
        self.open(kind, label.into(), Some(parent))
    }

    fn open(&self, kind: &'static str, label: String, explicit: Option<Option<usize>>) -> Span<'_> {
        let mut inner = self.lock();
        let id = inner.next_id();
        let parent = match explicit {
            Some(parent) => parent,
            None => inner.stack().last().copied(),
        };
        inner.push(SpanData {
            id,
            parent,
            kind,
            label,
            attrs: Vec::new(),
            elapsed: Duration::ZERO,
            closed: false,
        });
        inner.stack().push(id);
        Span {
            collector: self,
            id,
            start: Instant::now(),
            buffered: Vec::new(),
        }
    }

    /// Records an instantaneous event (a zero-duration, already-closed
    /// span) under the currently open span.
    pub fn event(
        &self,
        kind: &'static str,
        label: impl Into<String>,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        let mut inner = self.lock();
        let id = inner.next_id();
        let parent = inner.stack().last().copied();
        inner.push(SpanData {
            id,
            parent,
            kind,
            label: label.into(),
            attrs,
            elapsed: Duration::ZERO,
            closed: true,
        });
    }

    /// A snapshot of the retained spans (all spans recorded so far,
    /// unless the collector is bounded), in creation order.
    pub fn spans(&self) -> Vec<SpanData> {
        self.lock().spans.iter().cloned().collect()
    }

    /// Number of spans retained.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// Whether nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded spans (the open-span stacks survive only if
    /// empty; call between executions, not mid-span).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.spans.clear();
        inner.base = 0;
        inner.stacks.clear();
    }

    fn close(&self, id: usize, elapsed: Duration, attrs: Vec<(&'static str, AttrValue)>) {
        let mut inner = self.lock();
        // Usually the span closes on the thread that opened it, but a
        // guard may legally move; search that stack first, then the rest.
        let current = std::thread::current().id();
        let owner = if inner.stacks.get(&current).is_some_and(|s| s.contains(&id)) {
            Some(current)
        } else {
            inner
                .stacks
                .iter()
                .find(|(_, s)| s.contains(&id))
                .map(|(t, _)| *t)
        };
        if let Some(thread) = owner {
            let stack = inner.stacks.get_mut(&thread).expect("stack exists");
            if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                stack.remove(pos);
            }
            if stack.is_empty() {
                inner.stacks.remove(&thread);
            }
        }
        // open spans are never evicted; only a `clear` mid-span loses one
        let Some(span) = id
            .checked_sub(inner.base)
            .and_then(|i| inner.spans.get_mut(i))
        else {
            return;
        };
        span.attrs.extend(attrs);
        span.elapsed = elapsed;
        span.closed = true;
        #[cfg(feature = "subscriber")]
        let done = span.clone();
        inner.evict();
        #[cfg(feature = "subscriber")]
        {
            drop(inner);
            if let Some(sink) = self
                .sink
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
                .cloned()
            {
                sink.on_close(&done);
            }
        }
    }
}

/// An open span. Record attributes while it is live; dropping it closes
/// the span and stores the measured wall time.
pub struct Span<'a> {
    collector: &'a Collector,
    id: usize,
    start: Instant,
    // attrs buffer locally so recording does not take the lock
    buffered: Vec<(&'static str, AttrValue)>,
}

impl Span<'_> {
    /// This span's id (stable across the collector's lifetime).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Records an unsigned counter attribute at close time.
    pub fn record_u64(&mut self, name: &'static str, value: u64) {
        self.pending().push((name, AttrValue::Uint(value)));
    }

    /// Records a signed attribute at close time.
    pub fn record_i64(&mut self, name: &'static str, value: i64) {
        self.pending().push((name, AttrValue::Int(value)));
    }

    /// Records a text attribute at close time.
    pub fn record_str(&mut self, name: &'static str, value: impl Into<String>) {
        self.pending().push((name, AttrValue::Str(value.into())));
    }

    fn pending(&mut self) -> &mut Vec<(&'static str, AttrValue)> {
        &mut self.buffered
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let attrs = std::mem::take(&mut self.buffered);
        self.collector.close(self.id, self.start.elapsed(), attrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close() {
        let c = Collector::new();
        {
            let mut outer = c.span(kind::PHASE, "execute");
            outer.record_u64(attr::ROWS_OUT, 3);
            {
                let _inner = c.span(kind::OPERATOR, "Bind works");
                c.event(kind::RPC, "event under inner", vec![]);
            }
        }
        let spans = c.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.closed));
        assert_eq!(spans[0].attr(attr::ROWS_OUT), Some(&AttrValue::Uint(3)));
    }

    #[test]
    fn out_of_order_guard_drop_is_tolerated() {
        let c = Collector::new();
        let a = c.span(kind::PHASE, "a");
        let b = c.span(kind::PHASE, "b");
        drop(a); // wrong order on purpose
        let d = c.span(kind::PHASE, "c"); // parent should be b, still open
        drop(d);
        drop(b);
        let spans = c.spans();
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.closed));
    }

    #[test]
    fn threads_get_independent_stacks() {
        let c = Collector::new();
        let _outer = c.span(kind::PHASE, "main-thread work");
        std::thread::scope(|s| {
            s.spawn(|| {
                // no explicit parent and nothing open on *this* thread:
                // the span must become a root, not a child of `outer`
                let _w = c.span(kind::PHASE, "worker root");
                c.event(kind::RPC, "under worker", vec![]);
            })
            .join()
            .unwrap();
        });
        let spans = c.spans();
        let worker = spans.iter().find(|s| s.label == "worker root").unwrap();
        assert_eq!(worker.parent, None);
        let nested = spans.iter().find(|s| s.label == "under worker").unwrap();
        assert_eq!(nested.parent, Some(worker.id));
    }

    #[test]
    fn span_under_stitches_cross_thread_trees() {
        let c = Collector::new();
        let scatter_id = {
            let scatter = c.span(kind::PHASE, "scatter");
            let id = scatter.id();
            std::thread::scope(|s| {
                for lane in 0..2u64 {
                    let c = &c;
                    s.spawn(move || {
                        let mut job = c.span_under(Some(id), kind::PHASE, format!("job {lane}"));
                        job.record_u64(attr::LANE, lane);
                        c.event(kind::RPC, format!("rpc of job {lane}"), vec![]);
                    });
                }
            });
            id
        };
        let spans = c.spans();
        assert!(spans.iter().all(|s| s.closed));
        for lane in 0..2u64 {
            let job = spans
                .iter()
                .find(|s| s.label == format!("job {lane}"))
                .unwrap();
            assert_eq!(job.parent, Some(scatter_id));
            assert_eq!(job.attr(attr::LANE), Some(&AttrValue::Uint(lane)));
            let rpc = spans
                .iter()
                .find(|s| s.label == format!("rpc of job {lane}"))
                .unwrap();
            assert_eq!(
                rpc.parent,
                Some(job.id),
                "rpc nests under its own lane's job"
            );
        }
        // profile aggregation sees one scatter root with both jobs under it
        let profile = profile::build(&spans);
        let scatter = &profile[0];
        assert_eq!(scatter.label, "scatter");
        assert_eq!(scatter.children.len(), 2);
    }

    #[test]
    fn warnings_reach_the_installed_sink() {
        let seen = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = seen.clone();
        set_warn_sink(Some(Box::new(move |m| {
            sink.lock().unwrap().push(m.to_string());
        })));
        warn("first");
        warn(String::from("second"));
        set_warn_sink(None);
        warn("after removal this goes to stderr, not the sink");
        assert_eq!(*seen.lock().unwrap(), ["first", "second"]);
    }

    #[test]
    fn bounded_collector_evicts_oldest_closed_spans() {
        let c = Collector::bounded(4);
        let root = c.span(kind::SERVER, "long-lived");
        let root_id = root.id();
        for i in 0..10 {
            let _req = c.span(kind::SERVER, format!("req {i}"));
            c.event(kind::RPC, format!("ev {i}"), vec![]);
        }
        assert_eq!(c.len(), 21, "an open span at the front holds eviction");
        drop(root);
        let spans = c.spans();
        let ids: Vec<usize> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids, [17, 18, 19, 20], "the latest spans keep their ids");
        assert_eq!(spans[0].label, "req 8");
        assert_eq!(spans[0].parent, Some(root_id), "link to an evicted parent");
        assert_eq!(spans[1].parent, Some(17));
        assert_eq!(spans[2].parent, Some(root_id));
        assert_eq!(spans[3].parent, Some(19));
        assert_eq!(c.span(kind::PHASE, "next").id(), 21, "ids keep counting");
    }

    #[test]
    fn bounded_collector_keeps_open_spans_resolvable() {
        let c = Collector::bounded(2);
        drop(c.span(kind::PHASE, "a"));
        let mut b = c.span(kind::PHASE, "b");
        for i in 0..5 {
            c.event(kind::RPC, format!("ev {i}"), vec![]);
        }
        let ids: Vec<usize> = c.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, [1, 2, 3, 4, 5, 6], "closed `a` evicted, open `b` kept");
        b.record_u64(attr::ROWS_OUT, 7);
        drop(b);
        let spans = c.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[1].id), (5, 6));
        assert!(spans.iter().all(|s| s.parent == Some(1)));
        // a child opened across threads under an evicted parent keeps
        // the explicit parent id
        std::thread::scope(|s| {
            s.spawn(|| drop(c.span_under(Some(1), kind::PHASE, "late child")));
        });
        let late = c.spans().pop().unwrap();
        assert_eq!((late.id, late.parent, late.closed), (7, Some(1), true));
    }

    #[test]
    fn clear_resets() {
        let c = Collector::new();
        c.span(kind::PHASE, "x");
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
    }
}
