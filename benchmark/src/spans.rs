//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A traced run keeps them all, folds per-name totals and self
//! times (span minus the part its children cover) and writes them out
//! when the run ends. Untraced runs never construct a recorder.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// `run_id` of a span that belongs to no single request (a whole rung).
pub const NO_REQUEST: u64 = u64::MAX;

/// One closed interval of work inside a named layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request (one task, one solve) share an identifier.
    pub run_id: u64,
}

/// Per-name fold of a recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fold {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The span recorder. Single-threaded: every measured call is made from
/// the benchmark's consumer thread.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, run_id: u64) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            run_id,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a span whose endpoints the caller already read, so a call
    /// that is timed anyway costs no second pair of clock reads.
    pub fn record(&mut self, name: &'static str, run_id: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            run_id,
        });
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, run_id: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, run_id);
        let out = f();
        self.exit(id);
        out
    }

    /// Count, total and self time per span name.
    pub fn fold(&self) -> BTreeMap<&'static str, Fold> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Fold> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let f = out.entry(s.name).or_default();
            f.count += 1;
            f.total_ns += total;
            f.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let run_id = if s.run_id == NO_REQUEST {
                "null".to_string()
            } else {
                s.run_id.to_string()
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run_id\": {run_id}}}{sep}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut spans = Spans::new();
        let root = spans.enter("rung", NO_REQUEST);
        spans.record("call", 7, 10, 40);
        spans.record("call", 8, 50, 60);
        spans.exit(root);
        // Pin the root's interval so the arithmetic is exact.
        spans.spans[0].start_ns = 0;
        spans.spans[0].end_ns = 100;
        let fold = spans.fold();
        assert_eq!(
            fold["call"],
            Fold {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(
            fold["rung"],
            Fold {
                count: 1,
                total_ns: 100,
                self_ns: 60
            }
        );
        assert_eq!(spans.spans[1].parent, 0);
        assert_eq!(spans.spans[0].parent, NO_PARENT);
    }
}
