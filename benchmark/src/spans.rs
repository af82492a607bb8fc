//! Benchmark-side spans around every call into a layer.
//!
//! A span is `(name, start, end, parent, repetition)`. Spans live in
//! memory and are written once, when the run ends, as Chrome
//! `trace_event` JSON. A disarmed recorder records nothing and reads no
//! clock, so the untraced repetitions run the same code without the cost.
//! Spans *inside* the program are a later issue; these sit at the call
//! boundary, in the benchmark's own files.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Boundary name, `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span store.
pub struct Recorder {
    armed: bool,
    epoch: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `armed = false` makes every call a no-op.
    pub fn new(armed: bool) -> Self {
        Recorder {
            armed,
            epoch: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Arm or disarm (between repetitions).
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Tag subsequent spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.armed {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per name: `(count, total ns, self ns)`, where self time is the
    /// span minus the part its direct children cover.
    pub fn totals(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.dur_ns();
                    r.3 += own;
                }
                None => rows.push((s.name, 1, s.dur_ns(), own)),
            }
        }
        rows
    }

    /// Render as Chrome `trace_event` JSON (complete events, µs with ns
    /// decimals; `pid` = repetition, `args.parent` = enclosing span).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(String::from("null"), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": {}, \"tid\": 0, \
                 \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.rep,
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns() / 1000,
                s.dur_ns() % 1000,
                i,
                parent
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut r = Recorder::new(true);
        r.scope("a.outer", |r| {
            r.scope("b.inner", |_| std::hint::black_box(1 + 1));
            r.scope("b.inner", |_| std::hint::black_box(2 + 2));
        });
        assert_eq!(r.spans().len(), 3);
        assert_eq!(r.spans()[1].parent, Some(0));
        let totals = r.totals();
        let outer = totals.iter().find(|t| t.0 == "a.outer").unwrap();
        let inner = totals.iter().find(|t| t.0 == "b.inner").unwrap();
        assert_eq!((outer.1, inner.1), (1, 2));
        assert_eq!(outer.3, outer.2 - inner.2, "self = span minus children");
        assert!(r.to_chrome_json().contains("\"parent\": 0"));
    }

    #[test]
    fn disarmed_records_nothing() {
        let mut r = Recorder::new(false);
        assert_eq!(r.scope("a.b", |_| 7), 7);
        assert!(r.spans().is_empty());
    }
}
