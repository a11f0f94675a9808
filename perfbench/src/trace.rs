//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into each
//! layer, never inside the program. Every span carries the id of the round
//! it belongs to and the id of the span that caused it; a round's root span
//! has no parent. Spans are kept in a vector and written out once, at the
//! end of the run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span: `[start_ns, end_ns)` relative to the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub round: u64,
    pub parent: Option<usize>,
    pub center: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id; close it with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        round: u64,
        parent: Option<usize>,
        center: Option<u32>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            round,
            parent,
            center,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        round: u64,
        parent: Option<usize>,
        center: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, round, parent, center);
        let out = f();
        self.close(id);
        out
    }

    /// Closes every span opened at or after `first` that is still open
    /// (used after a layer call panicked mid-span).
    pub fn close_open_from(&mut self, first: usize) {
        let now = self.now_ns();
        for s in &mut self.spans[first..] {
            if s.end_ns == s.start_ns {
                s.end_ns = now;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it covered
    /// by its children. Children of one span never overlap (the recorded
    /// calls run one after another), so covered time is their sum.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Summed self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Summed duration of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    }

    /// Writes one JSON object per span, with its derived self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((id, s), self_ns) in self.spans.iter().enumerate().zip(self.self_times_ns()) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let center = s.center.map_or("null".to_owned(), |c| c.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"round\":{},\"name\":\"{}\",\"center\":{center},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.round, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("round", 0, None, None);
        t.span("a", 0, Some(root), None, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b", 0, Some(root), None, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let selfs = t.self_times_ns();
        let total = t.spans()[root].duration_ns();
        assert_eq!(selfs[root] + selfs[1] + selfs[2], total);
        assert!(selfs[1] >= 2_000_000 && selfs[2] >= 2_000_000);
    }
}
