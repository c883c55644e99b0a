//! The repository benchmark.
//!
//! ```text
//! yat-benchmark --workload <federation-mix|bulk-scan|store-churn>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs against an in-process `yat-server` on a loopback
//! socket; every answer is checked byte for byte against an in-memory
//! oracle built from the same seed. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` serves the same load, then replays its operations
//! in process under spans and prints the per-layer metrics. The last line
//! of standard output is the JSON result; see README.md for the workloads
//! and metrics.

mod alloc;
mod load;
mod replay;
mod stats;
mod system;
mod timed;
mod trace;

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use yat_mediator::MeterSnapshot;
use yat_model::encode_tree;
use yat_prng::Rng;
use yat_server::{Server, ServerConfig, ServerHandle};
use yat_store::{DocStore, StoreStats};
use yat_wais::WaisSource;

use load::{Conn, Sample, Writes};
use system::Workload;
use timed::Probe;

/// The server under test: two workers (the machine's core count), a
/// queue deep enough that two connections are never shed.
pub const SERVER: ServerConfig = ServerConfig {
    workers: 2,
    queue_capacity: 16,
    default_deadline: None,
    retry_after_ms: 5,
};

/// Set-ups per untraced run, before and after the measured phase;
/// `setup_s` is their median. On a shared machine single-thread speed
/// can shift by more than half for tens of seconds at a time, so the
/// short set-ups run half before and half after the measured phase and
/// one run samples two moments; store-churn's two-second set-up spans
/// enough time on its own.
fn setups(w: Workload) -> (usize, usize) {
    match w {
        Workload::FederationMix => (4, 4),
        Workload::BulkScan => (3, 3),
        Workload::StoreChurn => (3, 0),
    }
}

/// Store-churn reader: one lookup every 125 ms (8/s), below the served
/// capacity of one connection.
const READ_INTERVAL: Duration = Duration::from_millis(125);
/// Store-churn writer: one add or remove every 250 ms.
const WRITE_INTERVAL: Duration = Duration::from_millis(250);
/// `peak_heap_mb` is the median over windows of this length of each
/// window's heap high-water mark: a single run-wide maximum hinges on
/// which queries happened to overlap once.
const HEAP_WINDOW: Duration = Duration::from_secs(1);
/// An open-loop run is invalid when its 90th-percentile lateness exceeds
/// this share of the send interval.
const LATE_LIMIT: f64 = 0.25;
/// Per query, the layers' self times must cover the in-process wall time
/// to within this share.
const RECONCILE_TOLERANCE: f64 = 0.10;

/// The latency limit of `slo_ratio`: several times the served p50 each
/// workload shows today, so a stall or a backlog misses it.
fn latency_limit(w: Workload) -> Duration {
    match w {
        Workload::FederationMix => Duration::from_millis(500),
        Workload::BulkScan => Duration::from_millis(2_000),
        Workload::StoreChurn => Duration::from_millis(200),
    }
}

/// The tail percentile each workload reports: the highest its sample
/// supports with ten values beyond it at the default run length.
fn tail_quantile(w: Workload) -> f64 {
    match w {
        Workload::FederationMix | Workload::StoreChurn => 0.9,
        Workload::BulkScan => 0.75,
    }
}

fn connections(w: Workload) -> usize {
    match w {
        Workload::FederationMix => 2,
        Workload::BulkScan | Workload::StoreChurn => 1,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A running system under test.
struct Deployment {
    handle: ServerHandle,
    works: Arc<RwLock<WaisSource>>,
    store: Option<Arc<DocStore>>,
    probes: Vec<(&'static str, Arc<Probe>)>,
    conns: Vec<Conn>,
    base_docs: usize,
    payload_bytes: u64,
    dir: PathBuf,
}

/// Generates the sources, populates the store, connects the wrappers,
/// loads the view, binds the server and connects the clients: set-up.
fn setup(w: Workload, traced: bool, dir: PathBuf) -> (Deployment, f64) {
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let built = system::build(w, traced, &dir);
    let handle = Server::spawn(built.mediator, SERVER).expect("the server binds a loopback port");
    let conns = (0..connections(w))
        .map(|_| Conn::connect(handle.addr()))
        .collect();
    let secs = t.elapsed().as_secs_f64();
    let payload_bytes = built
        .docs
        .children
        .iter()
        .map(|d| encode_tree(d).len() as u64)
        .sum();
    let deployment = Deployment {
        handle,
        works: built.works,
        store: built.store,
        probes: built.probes,
        conns,
        base_docs: built.docs.children.len(),
        payload_bytes,
        dir,
    };
    (deployment, secs)
}

fn teardown(s: Deployment) {
    let Deployment {
        handle,
        works,
        store,
        conns,
        dir,
        ..
    } = s;
    drop(conns);
    handle.shutdown();
    handle.join();
    drop((works, store));
    let _ = std::fs::remove_dir_all(dir);
}

/// The texts of one run. The closed loops deal from theirs; the open
/// loop sends its lookups in order, one per interval (lookups target
/// base documents only).
fn queries(w: Workload, seed: u64, seconds: u64) -> Vec<String> {
    match w {
        Workload::FederationMix => system::federation_texts(),
        Workload::BulkScan => system::scan_texts(),
        Workload::StoreChurn => {
            let n = (Duration::from_secs(seconds).as_nanos() / READ_INTERVAL.as_nanos()) as usize;
            let mut rng = Rng::seed_from_u64(seed ^ 0x10c4_ab1e);
            (0..n)
                .map(|_| {
                    system::lookup_text(rng.gen_range(system::FIRST_LOOKUP..system::CHURN_WORKS))
                })
                .collect()
        }
    }
}

/// What the measured phase observed.
struct Served {
    samples: Vec<Sample>,
    elapsed: Duration,
    writes: Option<Writes>,
    traffic: MeterSnapshot,
    /// Heap high-water mark of each [`HEAP_WINDOW`], MiB.
    peaks: Vec<f64>,
    cache: (u64, u64),
    /// Queries sent to warm up before the measured phase.
    warmed: u64,
    /// Wrong warm-up answers and failures of the end-of-run store checks.
    end_failures: u64,
}

fn store_stats(s: &Deployment) -> StoreStats {
    s.store.as_ref().map(|st| st.stats()).unwrap_or_default()
}

/// The measured phase: the workload's load against the running server.
fn serve(
    w: Workload,
    s: &mut Deployment,
    texts: &[String],
    seed: u64,
    seconds: u64,
    expected: &HashMap<String, String>,
) -> Served {
    let m = s.handle.mediator();
    let traffic_before = m.traffic();
    let cache_before = m.cache_stats();
    let conns = std::mem::take(&mut s.conns);
    let running = AtomicBool::new(true);
    let start = Instant::now();
    let (peaks, (samples, writes)) = std::thread::scope(|scope| {
        // the heap high-water mark of each window of the phase
        let sampler = scope.spawn(|| {
            let mut peaks = Vec::new();
            alloc::reset_peak();
            let mut next = start + HEAP_WINDOW;
            while running.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(10));
                if Instant::now() >= next {
                    peaks.push(alloc::peak_mb());
                    alloc::reset_peak();
                    next += HEAP_WINDOW;
                }
            }
            peaks.push(alloc::peak_mb());
            peaks
        });
        let load = match w {
            Workload::FederationMix | Workload::BulkScan => {
                let cards = if w == Workload::FederationMix {
                    system::federation_cards()
                } else {
                    (0..texts.len()).collect()
                };
                let samples = load::closed_loop(
                    conns,
                    texts,
                    &cards,
                    seed,
                    Duration::from_secs(seconds),
                    w == Workload::BulkScan,
                    expected,
                );
                (samples, None)
            }
            Workload::StoreChurn => {
                let ops = (Duration::from_secs(seconds).as_nanos() / WRITE_INTERVAL.as_nanos())
                    as usize
                    & !1;
                let works = s.works.clone();
                std::thread::scope(|scope| {
                    let writer =
                        scope.spawn(move || load::writer(&works, ops, WRITE_INTERVAL, 0, start));
                    let conn = conns.into_iter().next().expect("one reader connection");
                    let samples = load::open_loop(conn, texts, READ_INTERVAL, expected, start);
                    let writes = writer.join().expect("the writer thread panicked");
                    (samples, Some(writes))
                })
            }
        };
        running.store(false, Ordering::SeqCst);
        (sampler.join().expect("the heap sampler panicked"), load)
    });
    let elapsed = start.elapsed();
    let cache_after = m.cache_stats();
    let mut end_failures = 0;
    if let Some(wr) = &writes {
        // the writer's documents are gone and the collection is back
        // to its base size
        let works = s.works.read().expect("works lock");
        end_failures += wr.failed;
        end_failures += wr
            .added
            .iter()
            .filter(|&&id| works.fetch(id).is_some())
            .count() as u64;
        end_failures += u64::from(works.len() != s.base_docs);
    }
    Served {
        samples,
        elapsed,
        writes,
        traffic: m.traffic() - traffic_before,
        peaks,
        cache: (
            cache_after.hits - cache_before.hits,
            cache_after.misses - cache_before.misses,
        ),
        warmed: 0,
        end_failures,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A printed metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Everything a run prints besides its metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra facts recorded next to the numbers, as JSON members.
    notes: Vec<String>,
}

/// Generator lateness of an open loop: (p90 lateness, valid).
fn lateness(samples: &[Sample]) -> (Duration, bool) {
    let late: Vec<f64> = samples.iter().map(|s| s.late.as_secs_f64()).collect();
    let p90 = Duration::from_secs_f64(stats::quantile(&late, 0.9));
    (
        p90,
        p90.as_secs_f64() <= LATE_LIMIT * READ_INTERVAL.as_secs_f64(),
    )
}

fn end_to_end(w: Workload, s: &Deployment, served: &Served) -> Outcome {
    let sent = served.samples.len() as u64;
    let lat: Vec<f64> = served
        .samples
        .iter()
        .filter_map(|x| x.latency.map(ms))
        .collect();
    let ttfr: Vec<f64> = served
        .samples
        .iter()
        .filter_map(|x| x.ttfr.map(ms))
        .collect();
    let answered = lat.len().max(1) as f64;
    let failed = served.samples.iter().filter(|x| !x.correct).count() as u64 + served.end_failures;
    let limit = latency_limit(w);
    let in_slo = served
        .samples
        .iter()
        .filter(|x| x.correct && x.latency.is_some_and(|l| l <= limit))
        .count();
    // closed-loop clients check each answer before sending the next; that
    // think time is taken out of the elapsed time
    let busy = match w {
        Workload::StoreChurn => served.elapsed,
        _ => {
            let check: Duration = served.samples.iter().map(|x| x.check).sum();
            served.elapsed.saturating_sub(check / connections(w) as u32)
        }
    };
    let (lat_q, lat_tail) = stats::tail(&lat, tail_quantile(w));
    let (ttfr_q, ttfr_tail) = stats::tail(&ttfr, tail_quantile(w));
    let mut notes = vec![format!("\"sent\": {sent}")];
    if w != Workload::StoreChurn {
        // per text: the median latency and how often it was sent
        let mut texts: Vec<usize> = served.samples.iter().map(|x| x.text).collect();
        texts.sort_unstable();
        texts.dedup();
        let by_text: Vec<String> = texts
            .into_iter()
            .map(|t| {
                let l: Vec<f64> = served
                    .samples
                    .iter()
                    .filter(|x| x.text == t)
                    .filter_map(|x| x.latency.map(ms))
                    .collect();
                format!("\"{t}\": [{}, {}]", stats::median(&l), l.len())
            })
            .collect();
        notes.push(format!(
            "\"latency_p50_ms_by_text\": {{{}}}",
            by_text.join(", ")
        ));
    }
    notes.extend([
        format!("\"answered\": {}", lat.len()),
        format!("\"failed_ratio\": {}", failed as f64 / sent.max(1) as f64),
        format!("\"latency_tail_quantile\": {lat_q}"),
        format!("\"latency_tail_n\": {}", lat.len()),
        format!("\"ttfr_tail_quantile\": {ttfr_q}"),
        format!("\"ttfr_tail_n\": {}", ttfr.len()),
        format!("\"latency_limit_ms\": {}", ms(limit)),
        format!("\"elapsed_s\": {}", served.elapsed.as_secs_f64()),
        format!(
            "\"peak_heap_max_mb\": {}",
            served.peaks.iter().copied().fold(0.0, f64::max)
        ),
    ]);
    let mut valid = true;
    if let Some(wr) = &served.writes {
        let (late_p90, ok) = lateness(&served.samples);
        valid = ok;
        let writes: Vec<f64> = wr.latencies.iter().copied().map(ms).collect();
        let disk = s.store.as_ref().map_or(0, |st| st.disk_bytes());
        notes.extend([
            format!("\"generator_late_p90_ms\": {}", ms(late_p90)),
            format!(
                "\"generator_late_limit_ms\": {}",
                LATE_LIMIT * ms(READ_INTERVAL)
            ),
            format!("\"generator_valid\": {ok}"),
            format!("\"offered_qps\": {}", 1.0 / READ_INTERVAL.as_secs_f64()),
            format!("\"writes\": {}", writes.len()),
            format!("\"write_p50_ms\": {}", stats::median(&writes)),
            format!("\"space_amp\": {}", disk as f64 / s.payload_bytes as f64),
        ]);
    }
    let t = served.traffic;
    Outcome {
        correct: failed == 0 && valid,
        attempted: sent + served.warmed,
        failed,
        metrics: vec![
            ("latency_p50_ms", stats::median(&lat), "ms"),
            ("latency_tail_ms", lat_tail, "ms"),
            ("ttfr_p50_ms", stats::median(&ttfr), "ms"),
            ("ttfr_tail_ms", ttfr_tail, "ms"),
            (
                "throughput_qps",
                lat.len() as f64 / busy.as_secs_f64(),
                "1/s",
            ),
            ("slo_ratio", in_slo as f64 / sent.max(1) as f64, "ratio"),
            (
                "wire_bytes_per_query",
                t.total_bytes() as f64 / answered,
                "B",
            ),
            (
                "round_trips_per_query",
                t.round_trips as f64 / answered,
                "count",
            ),
            (
                "docs_per_query",
                t.documents_received as f64 / answered,
                "count",
            ),
            ("peak_heap_mb", stats::median(&served.peaks), "MiB"),
        ],
        notes,
    }
}

/// One replayed operation, in the order the load sent it.
enum Op {
    Query(usize),
    Write(usize),
}

/// The traced run's replay and per-layer metrics.
fn per_layer(
    w: Workload,
    s: &Deployment,
    served: &Served,
    texts: &[String],
    expected: &HashMap<String, String>,
    budget: Duration,
    spans_out: &Path,
) -> Outcome {
    // the server's own view of the served phase
    let server_spans = s.handle.spans();
    let queue_wait: Vec<f64> = server_spans
        .iter()
        .filter(|sp| sp.label == "queue-wait")
        .map(|sp| us(sp.elapsed))
        .collect();
    let shed = s.handle.stats().shed;

    // the same operations, in process, in the order they were due
    let mut ops: Vec<(Duration, Op)> = served
        .samples
        .iter()
        .map(|x| (x.due, Op::Query(x.text)))
        .collect();
    if let Some(wr) = &served.writes {
        ops.extend((0..wr.latencies.len()).map(|i| (WRITE_INTERVAL * i as u32, Op::Write(i))));
    }
    ops.sort_by_key(|(due, _)| *due);

    let m = s.handle.mediator();
    let sources = replay::source_map(m);
    let traffic_before = m.traffic();
    let store_before = store_stats(s);
    let mut failed = 0u64;
    let mut replayed = 0u64;
    let mut firings = 0usize;
    let mut checked_plans: HashSet<usize> = HashSet::new();
    let mut added: Vec<usize> = Vec::new();
    trace::set_enabled(true);
    let start = Instant::now();
    for (_, op) in &ops {
        if start.elapsed() >= budget {
            break;
        }
        match *op {
            Op::Query(text) => {
                // the first replay of each text also checks that the staged
                // plan is the one plan_query builds
                let check_plan = checked_plans.insert(text);
                replayed += 1;
                match replay::query(
                    m,
                    &sources,
                    &s.probes,
                    replayed,
                    &texts[text],
                    w == Workload::BulkScan,
                    check_plan,
                ) {
                    Ok((got, f)) => {
                        firings += f;
                        failed += u64::from(expected.get(&texts[text]) != Some(&got));
                    }
                    Err(_) => failed += 1,
                }
            }
            Op::Write(i) => {
                let mut works = s.works.write().expect("works lock");
                if i % 2 == 0 {
                    added.push(works.add_document(system::fresh_work(1_000_000 + i / 2)));
                } else if let Some(id) = added.pop() {
                    failed += u64::from(works.remove_document(id).is_none());
                }
            }
        }
    }
    trace::set_enabled(false);
    // a write cut off by the budget is undone, so the collection ends at
    // its base size
    for id in added {
        s.works.write().expect("works lock").remove_document(id);
    }
    let store_after = store_stats(s);
    let traffic = m.traffic() - traffic_before;
    let spans = trace::take();
    let _ = std::fs::write(spans_out, trace::to_jsonl(&spans));

    let selfs = trace::self_ns(&spans);
    let q = replayed.max(1) as f64;
    let mut total_ns: HashMap<&str, u64> = HashMap::new();
    let mut self_total_ns: HashMap<&str, u64> = HashMap::new();
    // per query: (wall, attributed)
    let mut per_query: HashMap<u64, (u64, u64)> = HashMap::new();
    for (sp, &own) in spans.iter().zip(&selfs) {
        *total_ns.entry(sp.name).or_default() += sp.ns();
        *self_total_ns.entry(sp.name).or_default() += own;
        let e = per_query.entry(sp.query).or_default();
        if sp.name == "query" {
            e.0 += sp.ns();
        } else {
            e.1 += own;
        }
    }
    let per_us = |name: &str| total_ns.get(name).copied().unwrap_or(0) as f64 / q / 1e3;
    let walls: Vec<f64> = per_query
        .values()
        .map(|&(wall, _)| wall as f64 / 1e3)
        .collect();
    let sums: Vec<f64> = per_query
        .values()
        .map(|&(_, sum)| sum as f64 / 1e3)
        .collect();
    let reconciled = per_query
        .values()
        .filter(|&&(wall, sum)| {
            (wall as f64 - sum as f64).abs() <= RECONCILE_TOLERANCE * wall as f64
        })
        .count();
    let unattributed: f64 = per_query
        .values()
        .map(|&(wall, sum)| wall as f64 - sum as f64)
        .sum::<f64>()
        / per_query
            .values()
            .map(|&(wall, _)| wall as f64)
            .sum::<f64>()
            .max(1.0);

    let count = |f: fn(&Probe) -> u64, only: Option<&str>| -> f64 {
        s.probes
            .iter()
            .filter(|(name, _)| only.is_none_or(|o| *name == o))
            .map(|(_, p)| f(p))
            .sum::<u64>() as f64
            / q
    };
    use std::sync::atomic::Ordering::Relaxed;
    let exec = |p: &Probe| p.execute_trips.load(Relaxed);
    let fetch = |p: &Probe| p.fetch_trips.load(Relaxed);
    let requests = |p: &Probe| p.execute_trips.load(Relaxed) + p.fetch_trips.load(Relaxed);

    let loads = store_after.loads - store_before.loads;
    let hits = store_after.hits - store_before.hits;
    let bytes_read = store_after.bytes_read - store_before.bytes_read;
    let doc_bytes = traffic.documents_received as f64 * s.payload_bytes as f64 / s.base_docs as f64;
    let served_p50_us = 1e3
        * stats::median(
            &served
                .samples
                .iter()
                .filter_map(|x| x.latency.map(ms))
                .collect::<Vec<_>>(),
        );
    let writes: Vec<f64> = served.writes.as_ref().map_or(Vec::new(), |wr| {
        wr.latencies.iter().copied().map(us).collect()
    });
    let space_amp = s
        .store
        .as_ref()
        .map_or(0.0, |st| st.disk_bytes() as f64 / s.payload_bytes as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let reconciled_all = reconciled == per_query.len();
    let notes = vec![
        format!("\"replayed_queries\": {replayed}"),
        format!("\"replay_budget_s\": {}", budget.as_secs_f64()),
        format!("\"reconcile_tolerance\": {RECONCILE_TOLERANCE}"),
        format!("\"reconciled_queries\": {reconciled}"),
        format!("\"spans\": {}", spans.len()),
        format!("\"store_segments\": {}", store_after.segments),
        format!(
            "\"spans_file\": \"{}\"",
            spans_out
                .file_name()
                .map_or(String::new(), |f| f.to_string_lossy().into_owned())
        ),
    ];
    Outcome {
        correct: failed == 0
            && served.end_failures == 0
            && served.samples.iter().all(|x| x.correct)
            && reconciled_all,
        attempted: served.samples.len() as u64 + served.warmed + replayed,
        failed: failed
            + served.end_failures
            + served.samples.iter().filter(|x| !x.correct).count() as u64,
        metrics: vec![
            ("yatl.parse_us", per_us("yatl.parse"), "us"),
            ("yatl.translate_us", per_us("yatl.translate"), "us"),
            ("mediator.compose_us", per_us("mediator.compose"), "us"),
            ("mediator.optimize_us", per_us("mediator.optimize"), "us"),
            ("mediator.rule_firings", firings as f64 / q, "count"),
            ("mediator.execute_us", per_us("mediator.execute"), "us"),
            (
                "mediator.execute_self_us",
                self_total_ns.get("mediator.execute").copied().unwrap_or(0) as f64 / q / 1e3,
                "us",
            ),
            ("wire.execute_trips", count(exec, None), "count"),
            ("wire.fetch_trips", count(fetch, None), "count"),
            ("oql.handle_us", per_us("oql.handle"), "us"),
            ("oql.requests", count(requests, Some("oql.handle")), "count"),
            ("wais.handle_us", per_us("wais.handle"), "us"),
            (
                "wais.requests",
                count(requests, Some("wais.handle")),
                "count",
            ),
            (
                "index.probes",
                count(|p| p.index_probes.load(Relaxed), None),
                "count",
            ),
            (
                "index.candidates",
                count(|p| p.index_candidates.load(Relaxed), None),
                "count",
            ),
            (
                "index.scanned",
                count(|p| p.index_scanned.load(Relaxed), None),
                "count",
            ),
            (
                "model.tree_to_element_us",
                per_us("model.tree_to_element"),
                "us",
            ),
            ("xml.write_us", per_us("xml.write"), "us"),
            ("xml.parse_us", per_us("xml.parse"), "us"),
            (
                "model.element_to_tree_us",
                per_us("model.element_to_tree"),
                "us",
            ),
            (
                "server.answer_encode_us",
                per_us("server.answer_encode"),
                "us",
            ),
            (
                "client.answer_decode_us",
                per_us("client.answer_decode"),
                "us",
            ),
            ("store.segment_loads", loads as f64 / q, "count"),
            ("store.bytes_read", bytes_read as f64 / q, "B"),
            (
                "store.hit_ratio",
                ratio(hits as f64, (hits + loads) as f64),
                "ratio",
            ),
            (
                "store.evictions",
                (store_after.evictions - store_before.evictions) as f64 / q,
                "count",
            ),
            (
                "store.read_amp",
                ratio(bytes_read as f64, doc_bytes),
                "ratio",
            ),
            ("store.write_us", stats::median(&writes), "us"),
            ("store.space_amp", space_amp, "ratio"),
            ("server.queue_wait_us", stats::median(&queue_wait), "us"),
            (
                "server.residual_us",
                served_p50_us - stats::median(&sums),
                "us",
            ),
            ("server.shed", shed as f64, "count"),
            ("server.spans_retained", server_spans.len() as f64, "count"),
            ("cache.hits", served.cache.0 as f64, "count"),
            ("cache.misses", served.cache.1 as f64, "count"),
            ("inprocess.wall_us", stats::median(&walls), "us"),
            ("trace.unattributed_share", unattributed, "ratio"),
        ],
        notes,
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn run(args: &Args, out_dir: &Path) -> (Outcome, String) {
    let w = args.workload;
    let tag = format!("{}-seed{}", w.name(), args.seed);
    let store_dir = |i: usize| out_dir.join(format!("store-{}-{i}", std::process::id()));
    // a traced run serves for half its time and replays for the rest
    let (serve_secs, replay_secs) = if args.trace {
        (args.seconds.div_ceil(2), (args.seconds / 2).max(1))
    } else {
        (args.seconds, 0)
    };
    let texts = queries(w, args.seed, serve_secs);

    // set up (several times when untraced, for a steady setup_s)
    let (before, after) = if args.trace { (1, 0) } else { setups(w) };
    let mut setup_secs = Vec::new();
    let mut deployment = None;
    for i in 0..before {
        let (s, secs) = setup(w, args.trace, store_dir(i));
        setup_secs.push(secs);
        if let Some(previous) = deployment.replace(s) {
            teardown(previous);
        }
    }
    let mut deployment = deployment.expect("at least one set-up");

    let expected = system::oracle(w, &texts);
    let warm = warm_up_texts(w, &texts);
    let warm_failures = load::warm_up(
        &mut deployment.conns,
        &texts,
        &warm,
        w == Workload::BulkScan,
        &expected,
    );
    let mut served = serve(w, &mut deployment, &texts, args.seed, serve_secs, &expected);
    served.warmed = warm.len() as u64;
    served.end_failures += warm_failures;
    let mut csv = String::from("due_ms,text,late_ms,latency_ms,ttfr_ms,correct\n");
    for x in &served.samples {
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            ms(x.due),
            x.text,
            ms(x.late),
            x.latency.map_or(-1.0, ms),
            x.ttfr.map_or(-1.0, ms),
            x.correct
        ));
    }
    let _ = std::fs::write(
        out_dir.join(format!("samples-{tag}-trace{}.csv", u8::from(args.trace))),
        csv,
    );
    let mut outcome = if args.trace {
        per_layer(
            w,
            &deployment,
            &served,
            &texts,
            &expected,
            Duration::from_secs(replay_secs),
            &out_dir.join(format!("spans-{tag}.jsonl")),
        )
    } else {
        end_to_end(w, &deployment, &served)
    };
    teardown(deployment);
    if !args.trace {
        for i in 0..after {
            let (s, secs) = setup(w, false, store_dir(before + i));
            setup_secs.push(secs);
            teardown(s);
        }
        outcome
            .metrics
            .insert(0, ("setup_s", stats::median(&setup_secs), "s"));
        outcome
            .notes
            .push(format!("\"setup_runs_s\": {setup_secs:?}"));
    }
    (outcome, tag)
}

/// The texts each workload sends once before measuring, so lazy
/// initialization and first-touch allocation are not timed: every
/// federation and scan text, the first eight lookups.
fn warm_up_texts(w: Workload, texts: &[String]) -> Vec<usize> {
    match w {
        Workload::StoreChurn => (0..texts.len().min(8)).collect(),
        _ => (0..texts.len()).collect(),
    }
}

fn main() {
    // pin what is measured: no environment knob may change the system
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("YAT_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("yat-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).expect("create the benchmark's output directory");

    let (outcome, tag) = run(&args, &out_dir);
    let config = system::config_json(args.workload);
    let notes = outcome.notes.join(", ");
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    let report = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"config\": {config}, \"notes\": {{{notes}}}}}",
        args.seed, args.seconds, args.trace
    );
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    let _ = std::fs::write(
        out_dir.join(format!("report-{tag}-trace{}.json", u8::from(args.trace))),
        format!("{report}\n{result}\n"),
    );
    println!("{report}");
    println!("{result}");
}
