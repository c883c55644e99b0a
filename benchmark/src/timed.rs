//! A timing [`WrapperServer`] decorator.
//!
//! It hands every call to the wrapper it decorates unchanged — `handle`,
//! `take_index_report`, `take_storage_report` and `register_epoch` — so
//! answers and metered traffic are the same with and without it (the
//! test below holds it to that). While tracing is on it also opens a
//! `<source>.handle` span around each request, counts requests by kind,
//! adds up the index reports it passes through, and keeps a copy of each
//! request and response so the wire codec can be timed by replaying them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use yat_capability::protocol::{Request, Response, WrapperServer};
use yat_capability::{IndexReport, StorageReport};

use crate::trace;

/// What one decorated wrapper saw while tracing was on.
#[derive(Default)]
pub struct Probe {
    pub execute_trips: AtomicU64,
    pub fetch_trips: AtomicU64,
    pub index_probes: AtomicU64,
    pub index_candidates: AtomicU64,
    pub index_scanned: AtomicU64,
    captured: Mutex<Vec<(Request, Response)>>,
}

impl Probe {
    /// Takes the requests and responses captured since the last call.
    pub fn take_captured(&self) -> Vec<(Request, Response)> {
        std::mem::take(&mut *self.captured.lock().expect("capture lock"))
    }
}

pub struct Timed<W> {
    inner: W,
    span: &'static str,
    probe: Arc<Probe>,
}

impl<W: WrapperServer> Timed<W> {
    /// Decorates `inner`; its request spans are named `span`.
    pub fn new(inner: W, span: &'static str) -> (Self, Arc<Probe>) {
        let probe = Arc::new(Probe::default());
        (
            Timed {
                inner,
                span,
                probe: probe.clone(),
            },
            probe,
        )
    }
}

impl<W: WrapperServer> WrapperServer for Timed<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn handle(&self, request: &Request) -> Response {
        if !trace::enabled() {
            return self.inner.handle(request);
        }
        let response = {
            let _span = trace::span(self.span);
            self.inner.handle(request)
        };
        match request {
            Request::Execute { .. } => &self.probe.execute_trips,
            Request::GetDocument { .. } => &self.probe.fetch_trips,
            Request::GetInterface => return response,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.probe
            .captured
            .lock()
            .expect("capture lock")
            .push((request.clone(), response.clone()));
        response
    }

    fn take_index_report(&self) -> Option<IndexReport> {
        let report = self.inner.take_index_report();
        if let (true, Some(r)) = (trace::enabled(), &report) {
            self.probe
                .index_probes
                .fetch_add(r.probes, Ordering::Relaxed);
            self.probe
                .index_candidates
                .fetch_add(r.candidates, Ordering::Relaxed);
            self.probe
                .index_scanned
                .fetch_add(r.scanned, Ordering::Relaxed);
        }
        report
    }

    fn take_storage_report(&self) -> Option<StorageReport> {
        self.inner.take_storage_report()
    }

    fn register_epoch(&self, epoch: Arc<AtomicU64>) {
        self.inner.register_epoch(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system;
    use yat_mediator::{Mediator, OptimizerOptions};
    use yat_oql::art::{art_store, ArtSpec};
    use yat_oql::O2Wrapper;
    use yat_wais::{generate_works, WaisSource, WaisWrapper, WorksSpec};

    fn federation(decorated: bool) -> Mediator {
        let art = art_store(&ArtSpec {
            artifacts: 80,
            persons: 16,
            seed: 7,
        });
        let works = WaisSource::new(
            "works",
            &generate_works(&WorksSpec {
                works: 80,
                impressionist_pct: 30,
                optional_pct: 60,
                giverny_pct: 30,
                seed: 7,
            }),
        );
        let o2 = O2Wrapper::new("o2artifact", art);
        let wais = WaisWrapper::new("xmlartwork", works);
        let mut m = Mediator::new();
        if decorated {
            m.connect(Box::new(Timed::new(o2, "oql.handle").0)).unwrap();
            m.connect(Box::new(Timed::new(wais, "wais.handle").0))
                .unwrap();
        } else {
            m.connect(Box::new(o2)).unwrap();
            m.connect(Box::new(wais)).unwrap();
        }
        m.load_program(yat_yatl::paper::VIEW1).unwrap();
        m
    }

    /// The serialized answers and per-source meter snapshots of `texts`.
    fn observe(m: &Mediator, texts: &[String]) -> Vec<String> {
        texts
            .iter()
            .flat_map(|t| {
                let out = m.query(t, OptimizerOptions::default()).unwrap();
                [
                    system::expected_reply(out),
                    format!("{:?}", m.traffic_of("o2artifact")),
                    format!("{:?}", m.traffic_of("xmlartwork")),
                ]
            })
            .collect()
    }

    #[test]
    fn the_decorator_changes_no_answer_and_no_traffic() {
        let mut texts = system::federation_texts();
        texts.extend(system::scan_texts());
        texts.push(system::lookup_text(42));
        let plain = observe(&federation(false), &texts);
        assert_eq!(plain, observe(&federation(true), &texts));
        // recording spans and capturing messages changes nothing either
        trace::set_enabled(true);
        let traced = observe(&federation(true), &texts);
        trace::set_enabled(false);
        assert_eq!(plain, traced);
        assert!(!trace::take().is_empty(), "the traced pass recorded spans");
    }
}
