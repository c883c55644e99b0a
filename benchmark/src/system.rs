//! The three workloads: their sources, their query streams, the system
//! under test built from them, and the in-process oracle.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};
use yat_algebra::EvalOut;
use yat_capability::protocol::{ServerReply, WrapperServer};
use yat_capability::IndexPolicy;
use yat_mediator::{
    CachePolicy, ExecEngine, ExecMode, Mediator, OptimizerOptions, PartialFailure, SchedPolicy,
    StreamPolicy,
};
use yat_model::{Node, Tree};
use yat_oql::art::{art_store, ArtSpec};
use yat_oql::O2Wrapper;
use yat_store::{DocStore, StoreOptions};
use yat_wais::{generate_works, WaisSource, WaisWrapper, WorksSpec};
use yat_yatl::paper;

use crate::timed::{Probe, Timed};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FederationMix,
    BulkScan,
    StoreChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FederationMix,
        Workload::BulkScan,
        Workload::StoreChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FederationMix => "federation-mix",
            Workload::BulkScan => "bulk-scan",
            Workload::StoreChurn => "store-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Documents in the works collection.
    fn docs(self) -> usize {
        match self {
            Workload::FederationMix => FED_DOCS,
            Workload::BulkScan => SCAN_WORKS,
            Workload::StoreChurn => CHURN_WORKS,
        }
    }

    fn stream(self) -> StreamPolicy {
        match self {
            Workload::BulkScan => SCAN_STREAM,
            _ => StreamPolicy::Off,
        }
    }
}

/// Documents in each federation-mix source (artifacts and works).
const FED_DOCS: usize = 1_000;
/// Works in the bulk-scan collection.
const SCAN_WORKS: usize = 16_000;
/// Works in the store-churn collection (about 21 MB encoded).
pub const CHURN_WORKS: usize = 100_000;
/// Store segment roll size: the store's default.
const SEGMENT_BYTES: u64 = yat_store::docstore::DEFAULT_SEGMENT_TARGET;
/// Residency budget of the store-churn mount: two segments, well under
/// the collection, so the working set exceeds the store's own cache.
const BUDGET_BYTES: u64 = 2 * SEGMENT_BYTES;
/// Stream policy of bulk-scan: the repository's default chunking.
const SCAN_STREAM: StreamPolicy = StreamPolicy::Chunked {
    batch_rows: StreamPolicy::DEFAULT_BATCH_ROWS,
    max_pending: StreamPolicy::DEFAULT_MAX_PENDING,
};

const CPLACES: [&str; 5] = ["Giverny", "Paris", "Aix-en-Provence", "London", "Rouen"];
const STYLES: [&str; 5] = [
    "Impressionist",
    "Post-Impressionist",
    "Realist",
    "Cubist",
    "Romantic",
];

/// The seed of the generated sources: the repository's scenario seed.
/// The sources are the same in every run, so a run's figures do not
/// move with the selectivities of its data; the run's own seed drives
/// the operations sent (query order and constants, lookup targets).
const DATA_SEED: u64 = 42;

fn works_spec(works: usize) -> WorksSpec {
    WorksSpec {
        works,
        impressionist_pct: 30,
        optional_pct: 60,
        giverny_pct: 30,
        seed: DATA_SEED,
    }
}

fn art_spec() -> ArtSpec {
    ArtSpec {
        artifacts: FED_DOCS,
        persons: FED_DOCS / 5,
        seed: DATA_SEED,
    }
}

/// Q1 over `cplace`, as in the paper with the constant swapped.
fn q1(cplace: &str) -> String {
    paper::Q1.replace("\"Giverny\"", &format!("\"{cplace}\""))
}

/// Q2 over a style and a price bound.
fn q2(style: &str, bound: u32) -> String {
    paper::Q2
        .replace("\"Impressionist\"", &format!("\"{style}\""))
        .replace("200000.00", &format!("{bound}.00"))
}

/// Q2's price bounds: about a fifth, two fifths and two thirds of the
/// artifacts (prices run from 50,000 to 545,000).
const PRICE_BOUNDS: [u32; 3] = [150_000, 250_000, 400_000];

/// The federation-mix texts: Q1 for each `cplace`, then Q2 for each
/// style under each price bound. The run's seed picks their order.
pub fn federation_texts() -> Vec<String> {
    let mut texts: Vec<String> = CPLACES.iter().map(|c| q1(c)).collect();
    for style in STYLES {
        for b in PRICE_BOUNDS {
            texts.push(q2(style, b));
        }
    }
    texts
}

/// The federation-mix deck: each Q1 three times, each Q2 once, so Q1
/// and Q2 are sent equally often.
pub fn federation_cards() -> Vec<usize> {
    let q1s = (0..CPLACES.len()).flat_map(|i| [i; PRICE_BOUNDS.len()]);
    q1s.chain(CPLACES.len()..CPLACES.len() + STYLES.len() * PRICE_BOUNDS.len())
        .collect()
}

/// The bulk-scan projections: 1, 2 and 4 fields of every work, one
/// answer subtree per work (titles are unique).
pub fn scan_texts() -> Vec<String> {
    [
        vec!["title"],
        vec!["title", "artist"],
        vec!["title", "artist", "style", "size"],
    ]
    .iter()
    .map(|fields| {
        let vars: Vec<String> = (0..fields.len()).map(|i| format!("$v{i}")).collect();
        let bind = |sep: &str| {
            fields
                .iter()
                .zip(&vars)
                .map(|(f, v)| format!("{f}{sep}{v}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "MAKE out *({}) := r [ {} ] MATCH works WITH works *work [ {} ]",
            vars.join(", "),
            bind(": "),
            bind(": ")
        )
    })
    .collect()
}

/// The lowest work a store-churn lookup targets. Titles end in the
/// work's number, and numbers below 100 also occur in `size` values
/// ("42 x 17"), so the `contains` probe an equality on such a title is
/// pushed as returns thousands of candidates; from 100 on, exactly one.
pub const FIRST_LOOKUP: usize = 100;

/// A store-churn point lookup: the artist and style of one title.
pub fn lookup_text(work: usize) -> String {
    format!(
        "MAKE out *($a, $s) := r [ artist: $a, style: $s ] \
         MATCH works WITH works *work [ title: $t, artist: $a, style: $s ] \
         WHERE $t = \"{}\"",
        yat_oql::art::title_of(work)
    )
}

/// A document the store-churn writer adds and later removes. No base
/// title shares its tokens, so no lookup can match it.
pub fn fresh_work(k: usize) -> Tree {
    Node::sym(
        "work",
        vec![
            Node::elem("artist", "Anonymous"),
            Node::elem("title", format!("Fresh Study {}", 9_000_000 + k)),
            Node::elem("style", "Sketch"),
            Node::elem("size", "1 x 1"),
        ],
    )
}

/// Every option that changes what is measured, set explicitly.
fn pin(m: &mut Mediator, stream: StreamPolicy) {
    m.set_exec_mode(ExecMode::Sequential);
    m.set_exec_engine(ExecEngine::Interp);
    m.set_stream_policy(stream);
    m.set_cache_policy(CachePolicy::Off);
    m.set_partial_failure(PartialFailure::Strict);
    m.set_sched_policy(SchedPolicy::Static);
    m.set_index_policy(IndexPolicy::On);
}

/// The effective configuration, recorded next to the numbers.
pub fn config_json(w: Workload) -> String {
    let store = match w {
        Workload::StoreChurn => format!("segment={SEGMENT_BYTES}B,budget={BUDGET_BYTES}B"),
        _ => "none".to_string(),
    };
    format!(
        "{{\"workload\": \"{}\", \"docs\": {}, \"exec_mode\": \"sequential\", \
         \"exec_engine\": \"interp\", \"stream\": \"{:?}\", \"cache\": \"off\", \
         \"partial\": \"strict\", \"sched\": \"static\", \"index\": \"on\", \"store\": \"{store}\", \
         \"server_workers\": {}, \"server_queue\": {}, \"wire_latency\": \"off\", \
         \"available_parallelism\": {}}}",
        w.name(),
        w.docs(),
        w.stream(),
        crate::SERVER.workers,
        crate::SERVER.queue_capacity,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    )
}

/// The mediator under test, plus the handles the benchmark measures it by.
pub struct Built {
    pub mediator: Mediator,
    /// The works collection, shared with the store-churn writer.
    pub works: Arc<RwLock<WaisSource>>,
    pub store: Option<Arc<DocStore>>,
    /// Per-source probes (traced runs only), by span prefix.
    pub probes: Vec<(&'static str, Arc<Probe>)>,
    /// The generated collection the works source was built from.
    pub docs: Tree,
}

fn decorate<W: WrapperServer + 'static>(
    wrapper: W,
    span: &'static str,
    traced: bool,
    probes: &mut Vec<(&'static str, Arc<Probe>)>,
) -> Box<dyn WrapperServer> {
    if traced {
        let (timed, probe) = Timed::new(wrapper, span);
        probes.push((span, probe));
        Box::new(timed)
    } else {
        Box::new(wrapper)
    }
}

/// Generates the workload's sources and connects them;
/// store-churn populates a fresh store under `store_dir`.
pub fn build(w: Workload, traced: bool, store_dir: &Path) -> Built {
    let mut m = Mediator::new();
    let mut probes = Vec::new();
    pin(&mut m, w.stream());
    if w == Workload::FederationMix {
        let o2 = O2Wrapper::new(
            "o2artifact",
            art_store(&art_spec()).with_index_policy(IndexPolicy::On),
        );
        m.connect(decorate(o2, "oql.handle", traced, &mut probes))
            .expect("a fresh mediator accepts the O2 wrapper");
    }
    let root = generate_works(&works_spec(w.docs()));
    let source = match w {
        Workload::StoreChurn => {
            let opts = StoreOptions {
                budget: BUDGET_BYTES,
                segment_target: SEGMENT_BYTES,
            };
            WaisSource::open_store("works", &root, store_dir, opts)
                .expect("a fresh store directory populates")
        }
        _ => WaisSource::new("works", &root),
    }
    .with_index_policy(IndexPolicy::On);
    let store = source.store().cloned();
    let works = Arc::new(RwLock::new(source));
    let wais = WaisWrapper::new_shared("xmlartwork", works.clone());
    m.connect(decorate(wais, "wais.handle", traced, &mut probes))
        .expect("a fresh mediator accepts the Wais wrapper");
    if w == Workload::FederationMix {
        m.load_program(paper::VIEW1).expect("view1 is well-formed");
    }
    Built {
        mediator: m,
        works,
        store,
        probes,
        docs: root,
    }
}

/// The serialized reply a correct server sends for each of `texts`,
/// computed by a separate in-memory mediator over the same sources: no
/// store, no decorator, materialized answers.
pub fn oracle(w: Workload, texts: &[String]) -> HashMap<String, String> {
    let mut built = build_in_memory(w);
    pin(&mut built, StreamPolicy::Off);
    texts
        .iter()
        .map(|t| {
            let out = built
                .query(t, OptimizerOptions::default())
                .unwrap_or_else(|e| panic!("oracle query failed: {e}\n{t}"));
            (t.clone(), expected_reply(out))
        })
        .collect()
}

/// An answer as the server serializes it.
pub fn expected_reply(out: EvalOut) -> String {
    ServerReply::answer(out).to_xml().to_xml()
}

fn build_in_memory(w: Workload) -> Mediator {
    let mut m = Mediator::new();
    if w == Workload::FederationMix {
        m.connect(Box::new(O2Wrapper::new(
            "o2artifact",
            art_store(&art_spec()),
        )))
        .expect("a fresh mediator accepts the O2 wrapper");
    }
    let root = generate_works(&works_spec(w.docs()));
    m.connect(Box::new(WaisWrapper::new(
        "xmlartwork",
        WaisSource::new("works", &root),
    )))
    .expect("a fresh mediator accepts the Wais wrapper");
    if w == Workload::FederationMix {
        m.load_program(paper::VIEW1).expect("view1 is well-formed");
    }
    m
}
