//! In-memory spans around every call the benchmark makes into a layer.
//!
//! A span records its name, start, end, parent span and the id of the
//! op or batch it serves (spans of one batch share it), plus the number
//! of ops it covers. Spans stay in memory and are written out once, when
//! the run ends. With tracing off, `begin`/`end` record nothing.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub thread: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    thread: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (or of nothing, with tracing off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool, thread: &'static str, origin: Instant) -> Self {
        Self {
            on,
            thread,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock.
    pub fn fork(&self, thread: &'static str) -> Tracer {
        Tracer::new(self.on, thread, self.origin)
    }

    pub fn begin(&mut self, name: &'static str, group: u64, ops: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            ops,
        });
        self.open.push(idx);
        SpanId(Some(idx))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(idx) = id.0 {
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        }
    }

    /// Moves `other`'s spans in (another thread's recorder).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part its child
    /// spans cover (children run nested on the parent's thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Writes one JSON object per span to `path`, then a per-name summary
    /// (count, total and self time) to the returned string.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<String> {
        let selfs = self.self_times_ns();
        let mut out = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"thread\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"ops\":{}}}",
                s.name, s.group, s.thread, s.start_ns, s.end_ns, s.ops
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut summary = String::new();
        for name in names {
            let (mut n, mut total, mut own) = (0u64, 0u64, 0u64);
            for (s, self_ns) in self.spans.iter().zip(&selfs) {
                if s.name == name {
                    n += 1;
                    total += s.end_ns - s.start_ns;
                    own += self_ns;
                }
            }
            let _ = writeln!(
                summary,
                "  span {name:<28} count={n:<8} total_ms={:<10.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, "main", Instant::now());
        let outer = t.begin("outer", 1, 0);
        let inner = t.begin("inner", 1, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let selfs = t.self_times_ns();
        let outer_dur = t.spans[0].end_ns - t.spans[0].start_ns;
        let inner_dur = t.spans[1].end_ns - t.spans[1].start_ns;
        assert_eq!(selfs[0], outer_dur - inner_dur);
        assert_eq!(selfs[1], inner_dur);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, "main", Instant::now());
        let s = t.begin("x", 0, 0);
        t.end(s);
        assert!(t.spans.is_empty());
    }
}
