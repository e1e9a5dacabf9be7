//! Spans the benchmark records around its own calls into each layer.
//! They are kept in memory and written out as a Chrome trace when the
//! run ends; nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Spans of one request share `req`; `parent` is the
/// index of the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        let now = self.now_ns();
        self.spans[span].end_ns = now;
    }

    /// Runs `f` inside a span named `name`, child of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, req, Some(parent));
        let out = f();
        self.end(s);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Chrome trace-event JSON of every span (open in chrome://tracing
    /// or Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"req\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.req,
                i,
                parent
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("query", 1, None);
        t.time("exec", 1, root, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let child: u64 = t.spans()[1].dur_ns();
        assert!(child >= 2_000_000);
        assert_eq!(t.self_ns()[root], t.spans()[root].dur_ns() - child);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }
}
