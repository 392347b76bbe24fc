//! In-memory spans around the calls into each layer, written out as JSON
//! lines when the traced pass ends.
//!
//! Spans are recorded from the harness side only, at batch granularity
//! (16k records) or per request, never per record.

use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one pass over the input share a run id.
    pub run: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new run: one pass over the input, whose spans are reported
    /// together.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// The run spans are currently recorded under.
    pub fn current_run(&self) -> u32 {
        self.run
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Total seconds of the spans called `name` in `run`.
    pub fn total(&self, run: u32, name: &str) -> f64 {
        let total: f64 = self
            .spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::secs)
            .sum();
        // An empty f64 sum is -0.0, which prints as "-0".
        total + 0.0
    }

    /// Self time per layer in `run`: each span's duration minus its
    /// children's, summed by the span name up to its last dot. Sorted by
    /// layer name.
    pub fn layer_self_times(&self, run: u32) -> Vec<(String, f64)> {
        let mut self_ns: Vec<i128> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i128)
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                self_ns[parent] -= (span.end_ns - span.start_ns) as i128;
            }
        }
        let mut layers = std::collections::BTreeMap::<String, f64>::new();
        for (span, ns) in self.spans.iter().zip(self_ns) {
            if span.run == run {
                let layer = span.name.rsplit_once('.').map_or(span.name, |(l, _)| l);
                *layers.entry(layer.to_string()).or_default() += ns as f64 / 1e9;
            }
        }
        layers.into_iter().collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.run, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `f`, as a span when there is a tracer: for code the untraced reps and
/// the traced pass share.
pub fn spanned<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(name, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new();
        let run = tracer.next_run();
        let root = tracer.enter("harness.chain");
        let child = tracer.enter("core.collect.offer");
        tracer.exit(child);
        tracer.exit(root);
        // Pin the clock readings so the arithmetic is exact.
        tracer.spans[root].start_ns = 0;
        tracer.spans[root].end_ns = 1_000;
        tracer.spans[child].start_ns = 100;
        tracer.spans[child].end_ns = 400;
        let layers = tracer.layer_self_times(run);
        assert_eq!(
            layers,
            vec![
                ("core.collect".to_string(), 300e-9),
                ("harness".to_string(), 700e-9)
            ]
        );
        assert_eq!(tracer.total(run, "core.collect.offer"), 300e-9);
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"parent\":0,\"name\":\"core.collect.offer\""));
    }
}
