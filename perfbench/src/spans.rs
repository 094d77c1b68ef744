//! Wall-clock spans recorded from the benchmark's own code around its calls
//! into each layer, kept in memory and exported at run end as a
//! `bonsai_obs` trace (Perfetto-loadable through `chrome_trace_json`).
//! Every span sits on one track, so Perfetto nests children under their
//! parent; each child also names its parent in a `parent` argument, and the
//! exporter writes the step id as the event category.

use bonsai_obs::{ArgValue, Lane, Span, SpanId, TraceStore};
use std::time::Instant;

/// In-memory span recorder on a clock starting at its creation.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span now. `step` is the cluster step it belongs to.
    pub fn open(&mut self, step: u64, name: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.origin.elapsed().as_secs_f64();
        self.push(step, name, now, now, parent)
    }

    fn push(
        &mut self,
        step: u64,
        name: &str,
        start: f64,
        end: f64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let args = parent
            .map(|p| vec![("parent", ArgValue::Str(self.spans[p.0].name.clone()))])
            .unwrap_or_default();
        self.spans.push(Span {
            rank: 0,
            step,
            lane: Lane::Cpu,
            name: name.to_string(),
            start,
            end,
            parent,
            args,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Close `id` now and return its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        let span = &mut self.spans[id.0];
        span.end = now;
        span.end - span.start
    }

    /// Record a closed child span of `parent` lasting `dur` seconds from
    /// `start` seconds after the recorder's origin; returns its end.
    pub fn child(&mut self, parent: SpanId, name: &str, start: f64, dur: f64) -> f64 {
        let step = self.spans[parent.0].step;
        self.push(step, name, start, start + dur, Some(parent));
        start + dur
    }

    /// Start of `id`, seconds after the recorder's origin.
    pub fn start_of(&self, id: SpanId) -> f64 {
        self.spans[id.0].start
    }

    /// Attach a count to a span.
    pub fn arg_u64(&mut self, id: SpanId, key: &'static str, v: u64) {
        self.spans[id.0]
            .args
            .push((key, bonsai_obs::ArgValue::U64(v)));
    }

    /// Duration of `id` minus the time its direct children cover.
    pub fn self_time(&self, id: SpanId) -> f64 {
        let s = &self.spans[id.0];
        let children: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end - c.start)
            .sum();
        (s.end - s.start) - children
    }

    /// No span recorded yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Hand the spans to a trace store.
    pub fn into_store(self) -> TraceStore {
        TraceStore::from_parts(self.spans, Vec::new(), Vec::new())
    }
}
