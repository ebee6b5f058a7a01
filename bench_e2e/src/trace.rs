//! In-memory span tree for the benchmark's own layer boundaries
//! (workload → setup phase / op / probe), written as JSONL at exit.
//!
//! Spans are recorded from outside the library, around calls into its
//! public API; the library's own `train/*`, `sampling/*` and `graph/*`
//! readings arrive separately through `Obs::render_jsonl` and are appended
//! to the same file.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

struct SpanRec {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// A span recorder. Spans nest: a span begun while another is open becomes
/// its child.
pub struct Trace {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    /// Extra JSONL lines (probe rows, histograms, library metrics).
    lines: Vec<String>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            lines: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        crate::stats::nanos_since(self.origin)
    }

    /// Opens a span under the innermost open span; returns its id.
    pub fn begin(&mut self, name: impl Into<String>) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it); returns its
    /// duration in seconds, so a metric and its span share one reading.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns.get_or_insert(now);
            if top == id {
                break;
            }
        }
        let span = &self.spans[id];
        span.end_ns.unwrap_or(now).saturating_sub(span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Appends a raw JSONL line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Renders every span, then the extra lines, as JSONL.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"span\":{},\"id\":{id},\"parent\":",
                json_str(&s.name)
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let end = s.end_ns.unwrap_or(s.start_ns);
            let _ = writeln!(
                out,
                ",\"start_ns\":{},\"dur_ns\":{}}}",
                s.start_ns,
                end.saturating_sub(s.start_ns)
            );
        }
        for line in &self.lines {
            out.push_str(line);
            if !line.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// Writes [`Trace::render`] to `path` atomically.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        mhg_ckpt::atomic_write(path, self.render().as_bytes())
    }
}

/// `s` as a JSON string literal. Names here are ASCII identifiers; quotes
/// and backslashes are escaped for safety.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_parents() {
        let mut t = Trace::new();
        let root = t.begin("workload");
        let (_, secs) = t.time("setup", || ());
        assert!(secs >= 0.0);
        t.end(root);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"span\":\"workload\",\"id\":0,\"parent\":null"));
        assert!(lines[1].starts_with("{\"span\":\"setup\",\"id\":1,\"parent\":0"));
    }
}
