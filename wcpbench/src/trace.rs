//! In-memory spans recorded by the benchmark around each call into a
//! layer. A disabled tracer records nothing and reads no clock, so the
//! untraced runs pay one branch per call site.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `parent` is the index of the enclosing span in the
/// same tracer (`None` at the root) and `op` the op it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `detect.parallel`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Op id the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Span recorder of one thread.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
    cap: usize,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now(), 0)
    }

    /// A tracer recording up to `cap` spans, timed from `origin` (tracers
    /// of cooperating threads share one origin so their spans line up).
    pub fn new(enabled: bool, origin: Instant, cap: usize) -> Tracer {
        Tracer {
            enabled,
            origin,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            cap,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; open spans are unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether the span budget is used up.
    fn full(&self) -> bool {
        self.spans.len() >= self.cap
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// The shared time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled || self.full() {
            return Open(None);
        }
        let at = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(at);
        Open(Some(at))
    }

    /// Closes `open`. Spans must close innermost first.
    pub fn end(&mut self, open: Open) {
        let Some(at) = open.0 else { return };
        let end = self.now_ns();
        self.spans[at as usize].end_ns = end;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(at), "spans must close innermost first");
    }

    /// Closes every open span now: after a panic unwound through them.
    pub fn unwind(&mut self) {
        while let Some(at) = self.stack.last().copied() {
            self.end(Open(Some(at)));
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one thread never overlap each other).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Durations (ns) of the spans named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// The spans as JSON lines, with self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (s, own) in self.spans.iter().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, own, parent, s.op
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now(), 16);
        let outer = t.begin("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_times_ns();
        assert_eq!(own[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(own[1], spans[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.span("x", || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin, 16);
        a.span("a", || ());
        let mut b = Tracer::new(true, origin, 16);
        let outer = b.begin("b");
        b.span("c", || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
