//! In-memory span recorder.
//!
//! A span is a name, a job id, a start, an end and the span that caused
//! it. Spans stay in memory while the benchmark runs and are written out
//! once at the end. A span's self time is its duration minus the part of
//! its interval that its children cover (children may overlap, as the
//! daemon's per-scale spans do, so the covered part is a union).

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub job: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        job: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            job: job.to_string(),
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &str,
        job: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (s, e) = (self.ns(start), self.ns(end));
        (out, self.record(name, job, parent, s, e))
    }

    /// Stretch an already-recorded span's end (for spans opened before
    /// their children and closed after them).
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, parallel to [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = span.start_ns;
                for (s, e) in kids {
                    let (s, e) = (s.max(cursor), e.min(span.end_ns));
                    if e > s {
                        covered += e - s;
                        cursor = e;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// All spans as one JSON document (one object per span).
    pub fn to_json(&self) -> String {
        let self_times = self.self_times();
        let mut out = String::from("{\"spans\":[\n");
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"job\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name, span.job, span.start_ns, span.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.record("job", "j", None, 0, 100);
        t.record("a", "j", Some(root), 10, 40);
        t.record("b", "j", Some(root), 30, 60); // overlaps `a`
        t.record("c", "j", Some(root), 90, 120); // runs past the parent
        let selfs = t.self_times();
        assert_eq!(selfs[root], 100 - 50 - 10);
        assert_eq!(selfs[1], 30);
    }
}
