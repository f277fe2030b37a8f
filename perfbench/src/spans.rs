//! In-memory spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public API; spans of one operation share its `op` id and point at the
//! span that caused them. Spans the engine records itself (its `spmv-obs`
//! phase spans) are adopted as children of the benchmark span that
//! encloses them in time on the same rank. Everything stays in memory and
//! is written out once, after measuring.

use std::io::Write;

/// One timed interval on one rank, on the `spmv-obs` process clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Operation id shared by every span of one operation.
    pub op: u64,
    /// Layer-qualified name, e.g. `core.spmv` or `engine.waitall`.
    pub name: &'static str,
    /// Rank (0 for the serial configuration).
    pub rank: usize,
    /// Start, seconds on the trace clock.
    pub t0: f64,
    /// End, seconds on the trace clock.
    pub t1: f64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the interval.
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .into_iter()
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    v.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// A rank's spans, in the order they were opened.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Opens a span now; returns its index for [`SpanLog::close`] and for
    /// children's `parent`.
    pub fn open(
        &mut self,
        op: u64,
        name: &'static str,
        rank: usize,
        parent: Option<usize>,
    ) -> usize {
        let t = spmv_obs::clock::now_secs();
        self.spans.push(Span {
            op,
            name,
            rank,
            t0: t,
            t1: t,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes the span at `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].t1 = spmv_obs::clock::now_secs();
    }

    /// Adds an already-timed span (engine phase spans).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// The innermost span of `rank` whose interval contains `[t0, t1]`
    /// (the latest opened one, since spans nest).
    pub fn enclosing(&self, rank: usize, t0: f64, t1: f64) -> Option<usize> {
        self.spans
            .iter()
            .rposition(|s| s.rank == rank && s.t0 <= t0 && t1 <= s.t1)
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another log, rebasing its parent indices.
    pub fn extend(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Direct children of every span.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut ch = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                ch[p].push(i);
            }
        }
        ch
    }

    /// Self time of span `idx`: its duration minus the part of its
    /// interval that its children cover (children running in parallel on
    /// several threads count once).
    pub fn self_time(&self, idx: usize, children: &[Vec<usize>]) -> f64 {
        let s = &self.spans[idx];
        let kids = children[idx]
            .iter()
            .map(|&c| (self.spans[c].t0, self.spans[c].t1));
        s.duration() - covered(s.t0, s.t1, kids)
    }

    /// Writes one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"rank\":{},\"t0\":{:.9},\"t1\":{:.9},\"parent\":{}}}",
                s.op, s.name, s.rank, s.t0, s.t1, parent
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, t0: f64, t1: f64, parent: Option<usize>) -> Span {
        Span {
            op: 0,
            name,
            rank: 0,
            t0,
            t1,
            parent,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        assert_eq!(covered(0.0, 10.0, []), 0.0);
        assert_eq!(
            covered(0.0, 10.0, [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]),
            4.0
        );
        // clipped to the window, disjoint pieces outside it ignored
        assert_eq!(covered(2.0, 5.0, [(0.0, 3.0), (4.0, 9.0), (6.0, 8.0)]), 2.0);
        // a nested interval adds nothing
        assert_eq!(covered(0.0, 10.0, [(1.0, 9.0), (2.0, 3.0)]), 8.0);
    }

    #[test]
    fn self_time_subtracts_the_part_children_cover() {
        let mut log = SpanLog::default();
        let root = log.push(span("op", 0.0, 10.0, None));
        let a = log.push(span("a", 1.0, 4.0, Some(root)));
        // two parallel children (two threads) overlapping each other
        log.push(span("b", 5.0, 8.0, Some(root)));
        log.push(span("c", 6.0, 9.0, Some(root)));
        // a grandchild does not reduce the root's self time twice
        log.push(span("d", 2.0, 3.0, Some(a)));
        let ch = log.children();
        assert_eq!(log.self_time(root, &ch), 10.0 - 3.0 - 4.0);
        assert_eq!(log.self_time(a, &ch), 3.0 - 1.0);
        assert_eq!(log.self_time(2, &ch), 3.0);
    }

    #[test]
    fn enclosing_finds_the_innermost_span_on_the_same_rank() {
        let mut log = SpanLog::default();
        let root = log.push(span("op", 0.0, 10.0, None));
        let inner = log.push(span("core.spmv", 2.0, 6.0, Some(root)));
        assert_eq!(log.enclosing(0, 3.0, 4.0), Some(inner));
        assert_eq!(log.enclosing(0, 1.0, 3.0), Some(root));
        assert_eq!(log.enclosing(1, 3.0, 4.0), None);
        assert_eq!(log.enclosing(0, 9.0, 11.0), None);
    }

    #[test]
    fn extend_rebases_parents_and_jsonl_has_one_line_per_span() {
        let mut a = SpanLog::default();
        a.push(span("x", 0.0, 1.0, None));
        let mut b = SpanLog::default();
        let r = b.push(span("y", 0.0, 1.0, None));
        b.push(span("z", 0.2, 0.4, Some(r)));
        a.extend(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let mut out = Vec::new();
        a.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().ends_with("\"parent\":1}"));
    }
}
