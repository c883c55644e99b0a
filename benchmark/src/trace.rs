//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the recorder started), the
//! span that caused it, and the id of the query it belongs to. Spans are
//! kept in memory while the traced run replays its operations and are
//! written out when the run ends. Recording is off unless a traced run
//! turns it on, so the untraced run pays one relaxed load per call.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub query: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timed by replaying captured wire messages after the query ended
    /// (the codec spans), not during it.
    pub replayed: bool,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static QUERY: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

fn ns_at(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span log lock: no recorder panics while holding it")
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the query id later spans on this thread belong to.
pub fn set_query(query: u64) {
    QUERY.with(|q| q.set(query));
}

/// The innermost open span on this thread.
pub fn current() -> Option<usize> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An open span; it ends when dropped.
pub struct Guard {
    id: usize,
}

impl Guard {
    pub fn id(&self) -> usize {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = ns_at(Instant::now());
        if let Some(span) = SPANS
            .lock()
            .ok()
            .as_mut()
            .and_then(|log| log.get_mut(self.id))
        {
            span.end_ns = end;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
    }
}

/// Opens a span under the innermost open span of this thread; `None`
/// when recording is off.
pub fn span(name: &'static str) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let parent = current();
    let query = QUERY.with(Cell::get);
    let start_ns = ns_at(Instant::now());
    let id = {
        let mut log = spans();
        let id = log.len();
        log.push(Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns: start_ns,
            replayed: false,
        });
        id
    };
    STACK.with(|s| s.borrow_mut().push(id));
    Some(Guard { id })
}

/// Records a finished span timed outside the query (a codec replay).
pub fn record_replayed(name: &'static str, parent: usize, start: Instant, end: Instant) {
    let query = QUERY.with(Cell::get);
    let mut log = spans();
    let id = log.len();
    log.push(Span {
        id,
        parent: Some(parent),
        query,
        name,
        start_ns: ns_at(start),
        end_ns: ns_at(end),
        replayed: true,
    });
}

/// Takes every recorded span, leaving the log empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// One span per line, as JSON.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {}, \"parent\": {parent}, \"query\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"replayed\": {}}}\n",
            s.id, s.query, s.name, s.start_ns, s.end_ns, s.replayed
        ));
    }
    out
}

/// Self time of every span: its duration minus what its direct children
/// cover (children lie inside their parent, so their durations add).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}
