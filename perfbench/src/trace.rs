//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: name, start, end, the span that
//! caused it, and the op it belongs to. Spans stay in memory while the
//! run measures and are written out once at the end. A layer's *self
//! time* is its span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

/// The span store of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        let dur = end_ns - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += dur;
        }
        dur
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span, summed per `(op, name)`, in nanoseconds.
    pub fn self_times_per_op(&self) -> BTreeMap<(u64, &'static str), u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(s.child_ns);
            *out.entry((s.op, s.name)).or_insert(0) += self_ns;
        }
        out
    }

    /// The spans as tab-separated lines: id, parent, op, name, start and
    /// end (ns since the run started), self time (ns).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(s.child_ns);
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
