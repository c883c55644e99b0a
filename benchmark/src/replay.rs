//! The traced in-process replay: the served operations run again against
//! the same mediator, one public call per layer, each under a span.
//!
//! A query's spans, in order:
//!
//! ```text
//! query
//! ├─ yatl.parse              parse_rule
//! ├─ yatl.translate          translate
//! ├─ mediator.compose        compose + qualify (what plan_query adds)
//! ├─ mediator.optimize       Mediator::optimize
//! ├─ mediator.execute        execute_federated / execute_stream_federated
//! │  ├─ oql.handle           the decorated wrappers, per request
//! │  ├─ wais.handle
//! │  ├─ server.answer_encode per chunk frame (streamed answers)
//! │  └─ model.tree_to_element, xml.write, xml.parse, model.element_to_tree
//! │                          replayed after the query from captured messages
//! ├─ server.answer_encode    the answer (or answer-end) frame
//! └─ client.answer_decode    read_streamed_reply over the frame bytes
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use yat_algebra::{Alg, BatchSink, EvalError, EvalOut, Tab};
use yat_capability::framing;
use yat_capability::protocol::{Request, Response, ServerReply, StreamFrame};
use yat_mediator::compose::{compose, qualify};
use yat_mediator::{Mediator, OptimizerOptions};
use yat_model::Tree;

use crate::timed::Probe;
use crate::trace;

/// Maps each exported document to its source, as the mediator resolves
/// names in `plan_query`.
pub fn source_map(m: &Mediator) -> BTreeMap<String, String> {
    m.interfaces()
        .values()
        .flat_map(|i| i.exports.iter().map(|e| e.name.clone()))
        .filter_map(|doc| m.source_of(&doc).map(|s| (doc.clone(), s.to_string())))
        .collect()
}

/// The server's chunk encoding, into an in-memory byte stream.
struct FrameSink {
    buf: Vec<u8>,
    chunks: u64,
}

impl FrameSink {
    fn push(&mut self, payload: EvalOut) -> Result<(), EvalError> {
        let _span = trace::span("server.answer_encode");
        let frame = StreamFrame::Chunk {
            seq: self.chunks,
            payload,
        }
        .to_xml()
        .to_xml();
        framing::write_frame(&mut self.buf, &frame).map_err(|e| EvalError::Sink(e.to_string()))?;
        self.chunks += 1;
        Ok(())
    }
}

impl BatchSink for FrameSink {
    fn on_columns(&mut self, _columns: &[String]) -> Result<(), EvalError> {
        Ok(())
    }

    fn on_batch(&mut self, batch: Tab) -> Result<(), EvalError> {
        self.push(EvalOut::Tab(batch))
    }

    fn on_tree(&mut self, tree: &Tree) -> Result<(), EvalError> {
        self.push(EvalOut::Tree(tree.clone()))
    }
}

/// Replays one query as query `id`; returns the decoded reply serialized
/// (for the oracle check) and the optimizer's rule firings. With
/// `check_plan`, the staged plan must equal the one `plan_query` builds.
pub fn query(
    m: &Mediator,
    sources: &BTreeMap<String, String>,
    probes: &[(&'static str, Arc<Probe>)],
    id: u64,
    text: &str,
    streamed: bool,
    check_plan: bool,
) -> Result<(String, usize), String> {
    trace::set_query(id);
    let root = trace::span("query");
    let rule = {
        let _s = trace::span("yatl.parse");
        yat_yatl::parse_rule(text).map_err(|e| e.to_string())?
    };
    let translated = {
        let _s = trace::span("yatl.translate");
        yat_yatl::translate(&rule)
    };
    let plan: Arc<Alg> = {
        let _s = trace::span("mediator.compose");
        qualify(&compose(&translated, m.views()), sources)
    };
    let (optimized, firings) = {
        let _s = trace::span("mediator.optimize");
        let (optimized, t) = m.optimize(&plan, OptimizerOptions::default());
        (optimized, t.steps.len())
    };
    let execute_span;
    let bytes = if streamed {
        let mut sink = FrameSink {
            buf: Vec::new(),
            chunks: 0,
        };
        let (stats, prov) = {
            let s = trace::span("mediator.execute");
            execute_span = s.as_ref().map(trace::Guard::id);
            m.execute_stream_federated(&optimized, &mut sink)
                .map_err(|e| e.to_string())?
        };
        let _s = trace::span("server.answer_encode");
        assert!(!prov.is_degraded(), "strict answers are never degraded");
        let end = StreamFrame::End {
            chunks: stats.chunks,
            rows: stats.rows,
            answered_by: None,
            missing: None,
        }
        .to_xml()
        .to_xml();
        framing::write_frame(&mut sink.buf, &end).map_err(|e| e.to_string())?;
        sink.buf
    } else {
        let (out, prov) = {
            let s = trace::span("mediator.execute");
            execute_span = s.as_ref().map(trace::Guard::id);
            m.execute_federated(&optimized).map_err(|e| e.to_string())?
        };
        let _s = trace::span("server.answer_encode");
        assert!(!prov.is_degraded(), "strict answers are never degraded");
        let text = ServerReply::answer(out).to_xml().to_xml();
        let mut buf = Vec::new();
        framing::write_frame(&mut buf, &text).map_err(|e| e.to_string())?;
        buf
    };
    let reply = {
        let _s = trace::span("client.answer_decode");
        yat_server::read_streamed_reply(&mut bytes.as_slice())
            .map_err(|e| e.to_string())?
            .reply
    };
    drop(root);
    if check_plan && m.plan_query(text).ok().as_ref() != Some(&plan) {
        return Err("the staged plan differs from plan_query's".into());
    }
    if let Some(parent) = execute_span {
        for (_, probe) in probes {
            for (request, response) in probe.take_captured() {
                replay_codec(parent, &request, &response)?;
            }
        }
    }
    Ok((reply.to_xml().to_xml(), firings))
}

/// Times what the transport does to one round trip's messages: each is
/// turned into an element, written as text, parsed back and decoded.
fn replay_codec(parent: usize, request: &Request, response: &Response) -> Result<(), String> {
    fn step<T>(name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        trace::record_replayed(name, parent, t, Instant::now());
        out
    }
    let el = step("model.tree_to_element", parent, || request.to_xml());
    let text = step("xml.write", parent, || el.to_xml());
    let el =
        step("xml.parse", parent, || yat_xml::parse_element(&text)).map_err(|e| e.to_string())?;
    let back = step("model.element_to_tree", parent, || Request::from_xml(&el))
        .map_err(|e| e.to_string())?;
    if &back != request {
        return Err("a replayed request did not survive the codec".into());
    }
    let el = step("model.tree_to_element", parent, || response.to_xml());
    let text = step("xml.write", parent, || el.to_xml());
    let el =
        step("xml.parse", parent, || yat_xml::parse_element(&text)).map_err(|e| e.to_string())?;
    step("model.element_to_tree", parent, || Response::from_xml(&el)).map_err(|e| e.to_string())?;
    Ok(())
}
