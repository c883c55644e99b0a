//! The load: wire-protocol connections, the closed and open loops, and
//! the store-churn writer. Every answer is checked against the oracle.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use yat_capability::framing;
use yat_capability::protocol::{ClientRequest, ServerReply};
use yat_capability::xml::WireError;
use yat_prng::Rng;
use yat_server::{read_streamed_reply, StreamedReply};
use yat_wais::WaisSource;

use crate::system::fresh_work;

/// One client connection, speaking the wire protocol exactly as
/// `yat_server::Client` does (one framed request, then the reply frames),
/// but timing the first reply frame for materialized answers too.
pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Conn {
        Conn {
            stream: TcpStream::connect(addr).expect("the in-process server accepts"),
        }
    }

    /// Sends one query and reads its reply; also returns when the
    /// request was written, where the reply's `ttfr` starts.
    fn query(&mut self, text: &str, stream: bool) -> Result<(StreamedReply, Instant), WireError> {
        let request = ClientRequest::Query {
            text: text.to_string(),
            deadline_ms: None,
            stream,
        };
        framing::write_element(&mut self.stream, &request.to_xml())?;
        let written = Instant::now();
        Ok((read_streamed_reply(&mut self.stream)?, written))
    }
}

/// One sent query.
#[derive(Debug, Clone)]
pub struct Sample {
    pub text: usize,
    /// When it was due, from the start of the phase.
    pub due: Duration,
    /// How late the generator sent it (open loop; zero when closed).
    pub late: Duration,
    /// Due time to the last row; `None` when it failed.
    pub latency: Option<Duration>,
    /// Due time to the first reply frame.
    pub ttfr: Option<Duration>,
    /// Answered and byte-identical to the oracle.
    pub correct: bool,
    /// Time spent checking the answer (client think time).
    pub check: Duration,
}

/// Sends `text` at `due` (already past for a closed loop) and checks
/// the reassembled answer byte for byte.
fn send(
    conn: &mut Conn,
    texts: &[String],
    text: usize,
    stream: bool,
    expected: &HashMap<String, String>,
    start: Instant,
    due: Duration,
) -> (Sample, bool) {
    let due_at = start + due;
    let sent = Instant::now();
    let late = sent.saturating_duration_since(due_at);
    let outcome = conn.query(&texts[text], stream);
    let done = Instant::now();
    let mut sample = Sample {
        text,
        due,
        late,
        latency: None,
        ttfr: None,
        correct: false,
        check: Duration::ZERO,
    };
    let alive = match outcome {
        Ok((StreamedReply { reply, ttfr, .. }, written)) => {
            if matches!(reply, ServerReply::Answer { .. }) {
                sample.latency = Some(done - due_at);
                sample.ttfr = Some((written + ttfr).saturating_duration_since(due_at));
                let check = Instant::now();
                let got = reply.to_xml().to_xml();
                sample.correct = expected.get(&texts[text]) == Some(&got);
                sample.check = check.elapsed();
            }
            true
        }
        // a broken stream or socket: the connection is unusable
        Err(_) => false,
    };
    (sample, alive)
}

/// Sends `picks` once before the measured phase, round-robin over the
/// connections, one at a time; returns how many answers were wrong.
pub fn warm_up(
    conns: &mut [Conn],
    texts: &[String],
    picks: &[usize],
    stream: bool,
    expected: &HashMap<String, String>,
) -> u64 {
    let start = Instant::now();
    let mut wrong = 0;
    for (i, &text) in picks.iter().enumerate() {
        let conn = &mut conns[i % conns.len()];
        let (sample, _) = send(conn, texts, text, stream, expected, start, start.elapsed());
        wrong += u64::from(!sample.correct);
    }
    wrong
}

/// Deals the texts of `cards` in seeded shuffled rounds, so every run
/// sends the mix in the same proportions however many queries it sends.
struct Deck<'a> {
    cards: &'a [usize],
    order: Vec<usize>,
    rng: Rng,
}

impl Deck<'_> {
    fn next(&mut self) -> usize {
        if self.order.is_empty() {
            self.order = self.cards.to_vec();
            for i in (1..self.order.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.order.swap(i, j);
            }
        }
        self.order.pop().expect("a deck has cards")
    }
}

/// `conns` closed-loop clients, each sending its next query when the
/// previous one is answered and checked, until `length` has passed.
/// Each client deals its texts from its own seeded deck of `cards`.
pub fn closed_loop(
    conns: Vec<Conn>,
    texts: &[String],
    cards: &[usize],
    seed: u64,
    length: Duration,
    stream: bool,
    expected: &HashMap<String, String>,
) -> Vec<Sample> {
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, mut conn)| {
                scope.spawn(move || {
                    let mut deck = Deck {
                        cards,
                        order: Vec::new(),
                        rng: Rng::seed_from_u64(seed ^ ((i as u64 + 1) * 0x9e37_79b9_7f4a_7c15)),
                    };
                    let mut samples = Vec::new();
                    while start.elapsed() < length {
                        let text = deck.next();
                        let (s, alive) = send(
                            &mut conn,
                            texts,
                            text,
                            stream,
                            expected,
                            start,
                            start.elapsed(),
                        );
                        samples.push(s);
                        if !alive {
                            break;
                        }
                    }
                    samples
                })
            })
            .collect();
        let mut all: Vec<Sample> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load thread panicked"))
            .collect();
        all.sort_by_key(|s| s.due);
        all
    })
}

/// One reader on a fixed schedule: `texts[i]` is due at `i * interval`.
/// A late send is measured from its due time, so a stall is charged to
/// every query queued behind it.
pub fn open_loop(
    mut conn: Conn,
    texts: &[String],
    interval: Duration,
    expected: &HashMap<String, String>,
    start: Instant,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(texts.len());
    for text in 0..texts.len() {
        let due = interval * text as u32;
        if let Some(wait) = (start + due).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let (s, alive) = send(&mut conn, texts, text, false, expected, start, due);
        samples.push(s);
        if !alive {
            // the rest of the schedule goes unanswered
            for text in text + 1..texts.len() {
                samples.push(Sample {
                    text,
                    due: interval * text as u32,
                    late: Duration::ZERO,
                    latency: None,
                    ttfr: None,
                    correct: false,
                    check: Duration::ZERO,
                });
            }
            break;
        }
    }
    samples
}

/// What the store-churn writer did.
pub struct Writes {
    /// Latency of each `add_document` / `remove_document`, lock wait
    /// included.
    pub latencies: Vec<Duration>,
    /// Ids it added (all removed again by the end).
    pub added: Vec<usize>,
    /// Removals that found nothing to remove.
    pub failed: u64,
}

/// Adds fresh documents and removes each again, alternating, one
/// operation every `interval`: `ops` operations from `first` on.
pub fn writer(
    works: &Arc<RwLock<WaisSource>>,
    ops: usize,
    interval: Duration,
    first: usize,
    start: Instant,
) -> Writes {
    let mut w = Writes {
        latencies: Vec::with_capacity(ops),
        added: Vec::new(),
        failed: 0,
    };
    for i in 0..ops {
        if let Some(wait) = (start + interval * i as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let t = Instant::now();
        if i % 2 == 0 {
            let doc = fresh_work(first + i / 2);
            let id = works.write().expect("works lock").add_document(doc);
            w.latencies.push(t.elapsed());
            w.added.push(id);
        } else {
            let id = *w.added.last().expect("every removal follows its add");
            let removed = works.write().expect("works lock").remove_document(id);
            w.latencies.push(t.elapsed());
            if removed.is_none() {
                w.failed += 1;
            }
        }
    }
    w
}
