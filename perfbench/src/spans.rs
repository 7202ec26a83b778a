//! Span bookkeeping on both sides of the public API.
//!
//! * [`SpanLog`] is the benchmark's own recorder: it times each public
//!   call it makes (session build, member plans, `annotate_tagged`,
//!   `execute_traced`, `project`, `submit`) as a span with a name, start,
//!   end, parent and query id, in memory, and writes them out as JSON
//!   lines at the end of the run. A disabled log records nothing.
//! * [`OpProfile`] folds the engine's own span trees (the `request` tree
//!   a [`Tracer`](basilisk_types::Tracer) returns) into per-span-name self
//!   times, output rows and atom lane counters.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use basilisk_types::TraceSpan;

use crate::report::json_str;

#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub start_us: f64,
    pub end_us: Option<f64>,
    pub parent: Option<usize>,
    pub query: Option<usize>,
}

/// The benchmark's in-memory span recorder (see the module docs).
pub struct SpanLog {
    enabled: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// Handle to an open [`SpanLog`] span; `None` when the log is disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanHandle(Option<usize>);

impl SpanLog {
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &str, query: Option<usize>) -> SpanHandle {
        if !self.enabled {
            return SpanHandle(None);
        }
        let idx = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(SpanRec {
            name: name.to_string(),
            start_us,
            end_us: None,
            parent: self.open.last().copied(),
            query,
        });
        self.open.push(idx);
        SpanHandle(Some(idx))
    }

    /// Close a span and every span opened after it.
    pub fn end(&mut self, h: SpanHandle) {
        let Some(idx) = h.0 else { return };
        let Some(pos) = self.open.iter().rposition(|&i| i == idx) else {
            return;
        };
        let now = self.now_us();
        for i in self.open.drain(pos..) {
            self.spans[i].end_us.get_or_insert(now);
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, query: Option<usize>, f: impl FnOnce() -> T) -> T {
        let h = self.begin(name, query);
        let out = f();
        self.end(h);
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}, \
                 \"parent\": {}, \"query\": {}}}",
                json_str(&s.name),
                s.start_us,
                s.end_us.unwrap_or(s.start_us),
                opt(s.parent),
                opt(s.query),
            );
        }
        std::fs::write(path, out)
    }
}

/// Per-span-name aggregates over one or more engine span trees.
#[derive(Debug, Default, Clone)]
pub struct OpProfile {
    /// Self time (span duration minus its children's) of every span,
    /// microseconds, by span name.
    pub self_us: BTreeMap<String, Vec<f64>>,
    /// Summed `rows_out` attribute.
    pub rows_out: BTreeMap<String, i64>,
    pub lanes_evaluated: i64,
    pub lanes_short_circuited: i64,
}

impl OpProfile {
    /// Fold one finished tree into the profile.
    pub fn add(&mut self, span: &TraceSpan) {
        let children: u64 = span.children.iter().map(|c| c.duration_micros).sum();
        let self_us = span.duration_micros.saturating_sub(children);
        self.self_us
            .entry(span.name.clone())
            .or_default()
            .push(self_us as f64);
        if let Some(rows) = span.int("rows_out") {
            *self.rows_out.entry(span.name.clone()).or_default() += rows;
        }
        if span.name == "atom" {
            self.lanes_evaluated += span.int("lanes_evaluated").unwrap_or(0);
            self.lanes_short_circuited += span.int("lanes_short_circuited").unwrap_or(0);
        }
        for c in &span.children {
            self.add(c);
        }
    }

    /// Summed self time of every span named `name`, milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_us
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<f64>() / 1e3)
    }

    /// Median self time of a span named `name`, milliseconds (0 when
    /// never seen).
    pub fn median_self_ms(&self, name: &str) -> f64 {
        self.self_us
            .get(name)
            .map_or(0.0, |v| crate::stats::median(v) / 1e3)
    }

    pub fn rows(&self, name: &str) -> f64 {
        self.rows_out.get(name).copied().unwrap_or(0) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_types::TraceValue;

    fn span(name: &str, dur: u64, rows: Option<i64>, children: Vec<TraceSpan>) -> TraceSpan {
        TraceSpan {
            name: name.into(),
            start_micros: 0,
            duration_micros: dur,
            attrs: rows
                .map(|r| vec![("rows_out".to_string(), TraceValue::Int(r))])
                .unwrap_or_default(),
            children,
        }
    }

    #[test]
    fn self_times_subtract_children() {
        let tree = span(
            "request",
            100,
            None,
            vec![
                span("scan", 30, Some(5), vec![]),
                span("scan", 20, Some(7), vec![]),
            ],
        );
        let mut p = OpProfile::default();
        p.add(&tree);
        assert_eq!(p.self_ms("request"), 0.05);
        assert_eq!(p.self_ms("scan"), 0.05);
        assert_eq!(p.rows("scan"), 12.0);
        assert_eq!(p.median_self_ms("scan"), 0.025);
    }

    #[test]
    fn log_nests_and_disables() {
        let mut log = SpanLog::new(true);
        let outer = log.begin("outer", None);
        log.span("inner", Some(3), || ());
        log.end(outer);
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[1].query, Some(3));
        assert!(log.spans.iter().all(|s| s.end_us.is_some()));
        let mut off = SpanLog::new(false);
        off.span("x", None, || ());
        assert!(off.spans.is_empty());
    }
}
