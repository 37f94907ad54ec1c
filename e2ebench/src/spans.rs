//! Spans recorded by the traced run around calls into the repository's public
//! functions. Each span has a name, start, end, parent and request id; spans stay
//! in memory (one recorder per thread) and are written out when the run ends. A
//! span's self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    /// Time covered by child spans.
    pub child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

/// One thread's spans. Children of a span are recorded on the same thread, so
/// they never overlap each other and their durations add up.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    /// A tracer that is off records nothing, so the same code runs untraced.
    on: bool,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            on: true,
        }
    }

    pub fn off(epoch: Instant) -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(epoch)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
            child_ns: 0,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration (0 when off).
    pub fn exit(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        let idx = self.stack.pop().expect("exit without enter");
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        let dur = self.spans[idx].duration_ns();
        if let Some(p) = self.spans[idx].parent {
            self.spans[p].child_ns += dur;
        }
        dur
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// A child span of the innermost open span, known only by its duration (the
    /// engine's own stage timings); laid out back to back from the parent's start.
    pub fn child(&mut self, name: &'static str, duration_ns: u64) {
        let parent = *self.stack.last().expect("child needs an open span");
        let start_ns = self.spans[parent].start_ns + self.spans[parent].child_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(parent),
            request: self.request,
            child_ns: 0,
        });
        self.spans[parent].child_ns += duration_ns;
    }
}

/// Per-name totals over a set of spans.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.self_ns();
    }
    out
}

/// Write every span as one JSON line: name, start, end, parent, request.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            f,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request
        )?;
    }
    f.flush()
}

/// Concatenate per-thread span lists, shifting parent indices.
pub fn merge(threads: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for spans in threads {
        let offset = all.len();
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.enter("request");
        t.child("a", 1_000);
        t.child("b", 2_000);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        let req = &t.spans[0];
        assert_eq!(req.child_ns, 3_000);
        assert_eq!(req.self_ns(), req.duration_ns() - 3_000);
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[2].start_ns, req.start_ns + 1_000);
        let tot = totals(&t.spans);
        assert_eq!(tot["a"].count, 1);
        assert_eq!(tot["b"].self_ns, 2_000);
        let merged = merge(vec![t.spans.clone(), t.spans.clone()]);
        assert_eq!(merged[5].parent, Some(3));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off(Instant::now());
        t.enter("request");
        assert_eq!(t.time("a", || 7), 7);
        assert_eq!(t.exit(), 0);
        assert!(t.spans.is_empty());
    }
}
