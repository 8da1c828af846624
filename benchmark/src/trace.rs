//! In-memory span recording for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each
//! public call into a layer (the program itself is not instrumented).
//! Every span records its name, layer, start, end, parent and the op it
//! belongs to. Self time — a span's duration minus the time its child
//! spans cover — is folded into per-layer and per-name totals as each
//! span closes, so the summary covers every span even when the stored
//! list is capped.

use multiverse::mvmetrics::json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Op id of spans recorded outside any op (setup, post-run checks).
pub const NO_OP: u64 = u64::MAX;

/// Spans kept for the written trace; later spans still count in the
/// totals but are not stored.
const STORED_SPAN_CAP: usize = 50_000;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id, in opening order.
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Op id ([`NO_OP`] outside ops).
    pub op: u64,
    /// Call name, e.g. `commit`.
    pub name: &'static str,
    /// Layer (crate) the call enters, e.g. `mvrt`.
    pub layer: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    layer: &'static str,
    start: Instant,
    child_ns: u64,
}

/// Accumulated time for one span name or layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Spans closed.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of span self times, ns.
    pub self_ns: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Guard(Option<usize>);

/// The span recorder. A disabled tracer records nothing and reads no
/// clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    op: u64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    by_name: BTreeMap<(&'static str, &'static str), Totals>,
    by_layer_in_ops: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            op: NO_OP,
            stack: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            by_name: BTreeMap::new(),
            by_layer_in_ops: BTreeMap::new(),
        }
    }

    /// Turns recording on or off; only valid between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span for a call named `name` into `layer`.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Guard {
        if !self.enabled {
            return Guard(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            name,
            layer,
            start: Instant::now(),
            child_ns: 0,
        });
        Guard(Some(self.stack.len() - 1))
    }

    /// Closes the span `g` opened; spans must close in reverse order.
    pub fn end(&mut self, g: Guard) {
        let Some(depth) = g.0 else { return };
        let end = Instant::now();
        assert_eq!(depth + 1, self.stack.len(), "spans closed out of order");
        let open = self.stack.pop().expect("an open span");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let self_ns = dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.by_name.entry((open.layer, open.name)).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += self_ns;
        if self.op != NO_OP {
            let t = self.by_layer_in_ops.entry(open.layer).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += self_ns;
        }
        if self.spans.len() < STORED_SPAN_CAP {
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                parent: self.stack.last().map(|p| p.id),
                op: self.op,
                name: open.name,
                layer: open.layer,
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let g = self.begin(name, layer);
        let out = f();
        self.end(g);
        out
    }

    /// Totals for spans named `name` in `layer` (zero if none closed).
    pub fn totals(&self, layer: &'static str, name: &'static str) -> Totals {
        self.by_name
            .get(&(layer, name))
            .copied()
            .unwrap_or_default()
    }

    /// Per-layer totals over spans recorded inside ops.
    pub fn layers_in_ops(&self) -> &BTreeMap<&'static str, Totals> {
        &self.by_layer_in_ops
    }

    /// Spans stored for the written trace.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans that closed after the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the stored spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(out);
        for s in &self.spans {
            let mut o = json::Obj::new();
            o.u64("id", s.id);
            match s.parent {
                Some(p) => o.u64("parent", p),
                None => o.raw("parent", "null"),
            };
            match s.op {
                NO_OP => o.raw("op", "null"),
                op => o.u64("op", op),
            };
            o.str("name", s.name)
                .str("layer", s.layer)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns);
            writeln!(w, "{}", o.finish())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_op(0);
        let outer = t.begin("op", "bench");
        let inner = t.begin("call", "mvvm");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let op = t.totals("bench", "op");
        let call = t.totals("mvvm", "call");
        assert_eq!(op.total_ns, op.self_ns + call.total_ns);
        assert!(call.self_ns >= 2_000_000);
        assert_eq!(t.spans()[0].parent, Some(t.spans()[1].id));
        assert_eq!(t.layers_in_ops()["mvvm"].self_ns, call.self_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let g = t.begin("op", "bench");
        t.end(g);
        assert!(t.spans().is_empty());
        assert_eq!(t.totals("bench", "op").count, 0);
    }
}
