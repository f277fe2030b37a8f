//! Exporters: chrome://tracing JSON, plain-text and ASCII-art per-rank
//! timelines, a JSON metrics summary, and a dependency-free JSON syntax
//! validator.
//!
//! The chrome export uses the Trace Event Format's complete-event form
//! (`"ph": "X"`): one object per span with microsecond `ts`/`dur`,
//! `pid` = rank and `tid` = lane, so chrome://tracing (or Perfetto)
//! renders each rank as a process with its comm / compute / solver lanes
//! as threads. Byte and nonzero payloads travel in `args`.
//!
//! The workspace is dependency-free, so the validator is a small
//! recursive-descent JSON parser — enough for the CI smoke job (and the
//! trace tests) to prove an exported file *parses*, without serde.

use crate::metrics::TraceMetrics;
use crate::phase::Phase;
use crate::recorder::SpanEvent;
use crate::trace::{RunTrace, FAULT_LANE};
use std::fmt::Write as _;

/// Renders `trace` in chrome://tracing `trace_events` JSON.
#[must_use]
pub fn chrome_trace_json(trace: &RunTrace) -> String {
    let mut out = String::with_capacity(trace.events.len() * 120 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, e) in trace.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = e.t0 * 1e6;
        let dur = e.duration() * 1e6;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{},\"tid\":{},\"args\":{{\"bytes\":{},\"nnz\":{}}}}}",
            e.phase.label(),
            category(e),
            ts,
            dur,
            e.rank,
            e.lane,
            e.bytes,
            e.nnz,
        );
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_spans\":{}}}}}",
        trace.dropped
    );
    out
}

fn category(e: &SpanEvent) -> &'static str {
    if e.lane == FAULT_LANE || e.phase.is_fault() {
        "fault"
    } else if e.phase.is_comm() {
        "comm"
    } else if e.phase.is_compute() {
        "compute"
    } else {
        "phase"
    }
}

/// Renders a plain-text per-rank timeline: one line per span, grouped by
/// rank, with epoch-relative times in milliseconds.
#[must_use]
pub fn text_timeline(trace: &RunTrace) -> String {
    let mut out = String::new();
    for rank in trace.ranks() {
        let _ = writeln!(out, "rank {rank}:");
        for e in trace.rank_events(rank) {
            let lane = if e.lane == FAULT_LANE {
                "fault".to_string()
            } else {
                format!("{:>5}", e.lane)
            };
            let _ = writeln!(
                out,
                "  [{:>10.3} .. {:>10.3} ms] lane {lane}  {:<15} bytes={:<9} nnz={}",
                e.t0 * 1e3,
                e.t1 * 1e3,
                e.phase.label(),
                e.bytes,
                e.nnz,
            );
        }
    }
    if trace.dropped > 0 {
        let _ = writeln!(out, "({} spans lost to ring overflow)", trace.dropped);
    }
    out
}

/// Renders an ASCII timeline of one rank (one row per lane), `width`
/// characters across the rank's makespan: the Fig. 4 schematic, drawn
/// from simulated or measured spans alike.
#[must_use]
pub fn ascii_timeline(trace: &RunTrace, rank: usize, width: usize) -> String {
    let mut ev: Vec<&SpanEvent> = trace.rank_events(rank).collect();
    if ev.is_empty() {
        return String::from("(no events)\n");
    }
    ev.sort_by(|a, b| a.t0.total_cmp(&b.t0));
    let t_end = ev.iter().map(|e| e.t1).fold(0.0, f64::max);
    let t_scale = if t_end > 0.0 {
        width as f64 / t_end
    } else {
        0.0
    };
    let lanes: usize = ev.iter().map(|e| e.lane).max().unwrap_or(0) + 1;
    let mut rows = vec![vec![b' '; width]; lanes];
    for e in &ev {
        let c = symbol_for(e.phase);
        let a = (e.t0 * t_scale).floor() as usize;
        let b = ((e.t1 * t_scale).ceil() as usize).clamp(a + 1, width);
        for cell in &mut rows[e.lane][a.min(width - 1)..b] {
            *cell = c;
        }
    }
    let mut out = String::new();
    for (li, row) in rows.iter().enumerate() {
        let name = if lanes == 2 && li == 0 {
            "comm   "
        } else {
            "compute"
        };
        let _ = writeln!(
            out,
            "rank {rank} {name} |{}|",
            std::str::from_utf8(row).expect("ascii")
        );
    }
    out.push_str("legend: g=gather s=send r=post-recvs w=waitall L=spmv(local) N=spmv(nonlocal) F=spmv(full) b=barrier\n");
    out
}

fn symbol_for(phase: Phase) -> u8 {
    match phase {
        Phase::Gather => b'g',
        Phase::Send => b's',
        Phase::PostRecvs => b'r',
        Phase::Waitall => b'w',
        Phase::SpmvLocal => b'L',
        Phase::SpmvNonlocal => b'N',
        Phase::SpmvFull => b'F',
        Phase::Barrier => b'b',
        _ => b'?',
    }
}

/// Renders the metrics summary as JSON (consumed by the bench harness).
#[must_use]
pub fn metrics_json(m: &TraceMetrics) -> String {
    let mut out = String::from("{\n  \"per_rank\": [\n");
    for (i, r) in m.per_rank.iter().enumerate() {
        let comma = if i + 1 < m.per_rank.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"rank\": {}, \"comm_secs\": {:.6e}, \"hidden_comm_secs\": {:.6e}, \
             \"overlap_efficiency\": {:.4}, \"achieved_gflops\": {:.4}, \
             \"achieved_gbs\": {:.4}, \"comm_bytes\": {}}}{comma}",
            r.rank,
            r.comm_secs,
            r.hidden_comm_secs,
            r.overlap_efficiency,
            r.achieved_gflops,
            r.achieved_gbs,
            r.comm_bytes,
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"mean_overlap_efficiency\": {:.4},\n  \"mean_gflops\": {:.4},\n  \
         \"mean_gbs\": {:.4}\n}}",
        m.mean_overlap_efficiency(),
        m.mean_gflops(),
        m.mean_gbs(),
    );
    out
}

/// Validates that `s` is one well-formed JSON value (RFC 8259 syntax; no
/// DOM is built). Returns the byte offset and a message on failure.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.skip_ws();
    p.value()?;
    p.skip_ws();
    if p.i != b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.i))
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a JSON value"),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat(b'"')?;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.i += 1;
                        }
                        Some(b'u') => {
                            self.i += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.i += 1,
                                    _ => return self.err("bad \\u escape"),
                                }
                            }
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                Some(c) if c < 0x20 => return self.err("control char in string"),
                Some(_) => self.i += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        match self.peek() {
            Some(b'0') => self.i += 1,
            Some(c) if c.is_ascii_digit() => self.digits(),
            _ => return self.err("expected digit"),
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            match self.peek() {
                Some(c) if c.is_ascii_digit() => self.digits(),
                _ => return self.err("expected fraction digits"),
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            match self.peek() {
                Some(c) if c.is_ascii_digit() => self.digits(),
                _ => return self.err("expected exponent digits"),
            }
        }
        Ok(())
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RankTrace;

    fn sample() -> RunTrace {
        RunTrace::from_ranks([RankTrace {
            rank: 0,
            events: vec![
                SpanEvent {
                    phase: Phase::Waitall,
                    rank: 0,
                    lane: 0,
                    t0: 0.001,
                    t1: 0.002,
                    bytes: 4096,
                    nnz: 0,
                },
                SpanEvent {
                    phase: Phase::SpmvLocal,
                    rank: 0,
                    lane: 1,
                    t0: 0.001,
                    t1: 0.003,
                    bytes: 0,
                    nnz: 1234,
                },
                SpanEvent {
                    phase: Phase::FaultDelay,
                    rank: 0,
                    lane: FAULT_LANE,
                    t0: 0.0015,
                    t1: 0.0015,
                    bytes: 64,
                    nnz: 3,
                },
            ],
            dropped: 1,
        }])
    }

    #[test]
    fn chrome_export_is_valid_json_with_expected_fields() {
        let json = chrome_trace_json(&sample());
        validate_json(&json).unwrap();
        for needle in [
            "\"traceEvents\"",
            "\"name\":\"waitall\"",
            "\"name\":\"spmv(local)\"",
            "\"name\":\"fault(delay)\"",
            "\"cat\":\"comm\"",
            "\"cat\":\"compute\"",
            "\"cat\":\"fault\"",
            "\"pid\":0",
            "\"dropped_spans\":1",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn text_timeline_mentions_every_phase() {
        let txt = text_timeline(&sample());
        assert!(txt.contains("rank 0:"));
        assert!(txt.contains("waitall"));
        assert!(txt.contains("spmv(local)"));
        assert!(txt.contains("fault(delay)"));
        assert!(txt.contains("lane fault"));
        assert!(txt.contains("ring overflow"));
    }

    /// A task-mode shaped rank: comm lane 0, compute lane 1.
    fn two_lane_sample() -> RunTrace {
        let span = |lane, phase, t0, t1| SpanEvent {
            phase,
            rank: 0,
            lane,
            t0,
            t1,
            bytes: 0,
            nnz: 0,
        };
        RunTrace {
            events: vec![
                span(0, Phase::PostRecvs, 0.0, 0.1),
                span(0, Phase::Waitall, 0.1, 0.9),
                span(1, Phase::Gather, 0.0, 0.2),
                span(1, Phase::SpmvLocal, 0.2, 0.8),
                span(1, Phase::SpmvNonlocal, 0.9, 1.0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn ascii_render_has_two_lanes_and_legend() {
        let art = ascii_timeline(&two_lane_sample(), 0, 40);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 3, "two lanes + legend");
        assert!(lines[0].contains("comm"));
        assert!(lines[1].contains("compute"));
        assert!(lines[0].contains('w'));
        assert!(lines[1].contains('L'));
        assert!(lines[2].starts_with("legend"));
    }

    #[test]
    fn empty_trace_renders_placeholder() {
        assert_eq!(ascii_timeline(&two_lane_sample(), 7, 10), "(no events)\n");
        assert_eq!(ascii_timeline(&RunTrace::default(), 0, 10), "(no events)\n");
    }

    #[test]
    fn metrics_export_is_valid_json() {
        let m = TraceMetrics::from_trace(&sample());
        let json = metrics_json(&m);
        validate_json(&json).unwrap();
        assert!(json.contains("\"overlap_efficiency\""));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "\"a\\u00e9\\n\"",
            "{\"a\": [1, 2, {\"b\": true}], \"c\": null}",
            "  [1]  ",
        ] {
            validate_json(ok).unwrap_or_else(|e| panic!("rejected {ok}: {e}"));
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{'a': 1}",
            "01",
            "1.",
            "\"unterminated",
            "[1] trailing",
            "nul",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad}");
        }
    }
}
