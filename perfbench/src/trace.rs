//! Benchmark-owned tracing: spans around the calls into each layer, kept
//! in memory and rolled up into per-operation self times.
//!
//! A [`Tracer`] belongs to one client thread. Every operation is a root
//! span named [`OP`]; layer spans opened inside it are its children. A
//! span's *self time* is its duration minus the durations of its children
//! (one thread's spans never overlap, so the children it covers are
//! exactly its children). The root's self time is the time no layer span
//! covers, reported as `unattributed_ms`, so the self times of one
//! operation always sum to its duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the root span of every operation.
pub const OP: &str = "op";

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Operation the span belongs to (shared by all its spans).
    pub op: u64,
    /// Layer name, e.g. `cmir.parse`.
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's span list.
    pub parent: Option<usize>,
    /// Start and end, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
}

/// Records spans and counts for one thread.
pub struct Tracer {
    epoch: Instant,
    next_op: u64,
    open: Vec<usize>,
    /// Closed spans in opening order (a span's slot is reserved when it
    /// opens, so parents precede children).
    pub spans: Vec<SpanRec>,
    /// Counter values recorded inside operations, e.g. bytes serialized.
    pub counts: Vec<(&'static str, f64)>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; `first_op` numbers
    /// its first operation (give each thread its own range).
    pub fn new(epoch: Instant, first_op: u64) -> Tracer {
        Tracer {
            epoch,
            next_op: first_op,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn current_op(&self) -> u64 {
        self.open
            .first()
            .map(|&root| self.spans[root].op)
            .expect("spans are recorded inside an operation")
    }

    fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let slot = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(slot);
        slot
    }

    fn exit(&mut self, slot: usize) {
        self.open.pop();
        self.spans[slot].end_ns = self.now_ns();
    }

    /// Runs one operation under a fresh root span; returns its result and
    /// its duration in milliseconds.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        assert!(self.open.is_empty(), "operations do not nest");
        let op = self.next_op;
        self.next_op += 1;
        let slot = self.enter(OP, op);
        let out = f(self);
        self.exit(slot);
        let span = &self.spans[slot];
        (out, (span.end_ns - span.start_ns) as f64 / 1e6)
    }

    /// Runs `f` under a layer span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let op = self.current_op();
        let slot = self.enter(name, op);
        let out = f();
        self.exit(slot);
        out
    }

    /// Adds `value` to a per-operation counter.
    pub fn count(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.open.is_empty(),
            "counts are recorded inside an operation"
        );
        self.counts.push((name, value));
    }

    /// Writes the spans as JSON lines (one span per line).
    pub fn write_jsonl(&self, out: &mut impl Write, thread: usize) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time and counts rolled up over many operations.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Operations seen.
    pub ops: usize,
    /// Total self time per layer name, in milliseconds; the root's self
    /// time is under `unattributed`.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Total of each counter.
    pub counts: BTreeMap<&'static str, f64>,
    /// Total duration of the operations, in milliseconds.
    pub op_ms: f64,
}

/// Name under which a root span's self time is reported.
pub const UNATTRIBUTED: &str = "unattributed";

impl Breakdown {
    /// Folds one tracer's spans and counts in.
    pub fn add(&mut self, tracer: &Tracer) {
        let mut child_ns = vec![0u64; tracer.spans.len()];
        for s in &tracer.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, covered) in tracer.spans.iter().zip(child_ns) {
            let self_ms = (s.end_ns - s.start_ns - covered) as f64 / 1e6;
            let name = if s.parent.is_none() {
                self.ops += 1;
                self.op_ms += (s.end_ns - s.start_ns) as f64 / 1e6;
                UNATTRIBUTED
            } else {
                s.name
            };
            *self.self_ms.entry(name).or_default() += self_ms;
        }
        for &(name, value) in &tracer.counts {
            *self.counts.entry(name).or_default() += value;
        }
    }

    /// Mean self time per operation of one layer (0 if it never ran).
    pub fn self_ms_per_op(&self, name: &str) -> f64 {
        self.per_op(self.self_ms.get(name).copied().unwrap_or(0.0))
    }

    /// Mean value per operation of one counter (0 if never counted).
    pub fn count_per_op(&self, name: &str) -> f64 {
        self.per_op(self.counts.get(name).copied().unwrap_or(0.0))
    }

    /// Mean operation duration.
    pub fn op_ms_mean(&self) -> f64 {
        self.per_op(self.op_ms)
    }

    fn per_op(&self, total: f64) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            total / self.ops as f64
        }
    }
}
