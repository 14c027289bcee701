//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the benchmark's own code around calls into each
//! layer's public functions, on the main thread only, so they nest
//! strictly. A span's self time is its duration minus the durations of
//! its direct children. Spans stay in memory until [`Tracer::write_jsonl`]
//! writes them out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Units of work the span covered (records, accesses, cells, ...).
    pub work: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
    pub work: u64,
}

impl Totals {
    /// Self nanoseconds per unit of work (0 when no work was recorded).
    pub fn self_ns_per_work(&self) -> f64 {
        if self.work == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.work as f64
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(4096), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `work` units.
    pub fn span<T>(&mut self, name: &str, work: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_owned(), start_ns: 0, end_ns: 0, parent, work });
        self.open.push(index);
        self.spans[index].start_ns = self.now_ns();
        let out = f(self);
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Sets the work count of the most recently closed span named `name`
    /// (for spans whose work is only known once they end).
    pub fn set_last_work(&mut self, name: &str, work: u64) {
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.name == name) {
            span.work = work;
        }
    }

    /// Aggregates every closed span by name.
    pub fn totals(&self) -> BTreeMap<String, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut out: BTreeMap<String, Totals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name.clone()).or_default();
            t.count += 1;
            t.dur_ns += span.dur_ns();
            t.self_ns += span.dur_ns().saturating_sub(children);
            t.work += span.work;
        }
        out
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur_ns).collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"work\": {}}}",
                s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", 1, |t| {
            t.span("inner", 10, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("inner", 10, |_| std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let totals = t.totals();
        let (outer, inner) = (&totals["outer"], &totals["inner"]);
        assert_eq!((outer.count, inner.count, inner.work), (1, 2, 20));
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        assert_eq!(inner.self_ns, inner.dur_ns);
        assert_eq!(t.durations("inner").len(), 2);
    }
}
