//! The metric catalog and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the benchmark's metric contract;
//! `BENCHMARK.json` lists the same names, units and directions (a
//! self-test pins the two together). A run fills a [`Report`] and
//! prints every metric of the selected set exactly once, as a
//! human-readable table followed by one JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::Summary;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `(name, unit, better)` of one metric.
pub type MetricDef = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// Metrics a user of the engine sees, from untraced runs (`--trace 0`).
/// `BENCHMARK.json` lists exactly these.
pub const END_TO_END: &[MetricDef] = &[
    ("tagged_suite_s", "s", Lower),
    ("tagged_geomean_ms", "ms", Lower),
    ("baseline_suite_s", "s", Lower),
    ("baseline_geomean_ms", "ms", Lower),
    ("setup_s", "s", Lower),
    ("peak_rss_mb", "MB", Lower),
];

/// End-to-end metrics only the `serve` workload reports.
pub const SERVE_END_TO_END: &[MetricDef] = &[
    ("latency_p50_ms", "ms", Lower),
    ("latency_p99_ms", "ms", Lower),
    ("throughput_qps", "1/s", Higher),
];

/// Per-layer metrics (`--trace 1`). `BENCHMARK.json` lists exactly
/// these; which end-to-end metric each should move is documented in
/// `perfbench/README.md`.
pub const PER_LAYER: &[MetricDef] = &[
    // basilisk-plan
    ("plan.tagged_ms", "ms", Lower),
    ("plan.baseline_ms", "ms", Lower),
    ("plan.member.TPushdown_ms", "ms", Lower),
    ("plan.member.TPullup_ms", "ms", Lower),
    ("plan.member.TIterPush_ms", "ms", Lower),
    ("plan.member.TPushConj_ms", "ms", Lower),
    ("plan.chosen.TPushdown", "count", Higher),
    ("plan.chosen.TPullup", "count", Higher),
    ("plan.chosen.TIterPush", "count", Higher),
    ("plan.chosen.TPushConj", "count", Higher),
    ("plan.out_qerror", "ratio", Lower),
    ("plan.tagged_share", "ratio", Lower),
    // basilisk-core
    ("core.tagmap_entries", "count", Lower),
    ("core.annotate_ms", "ms", Lower),
    ("core.pullup_annotate_passes", "count", Lower),
    // basilisk-exec / basilisk-core operators
    ("exec.execute_tagged_ms", "ms", Lower),
    ("exec.execute_baseline_ms", "ms", Lower),
    ("exec.project_ms", "ms", Lower),
    ("exec.op.scan_ms", "ms", Lower),
    ("exec.op.tagged_filter_ms", "ms", Lower),
    ("exec.op.tagged_join_ms", "ms", Lower),
    ("exec.op.project_ms", "ms", Lower),
    ("exec.op.filter_ms", "ms", Lower),
    ("exec.op.hash_join_ms", "ms", Lower),
    ("exec.op.union_ms", "ms", Lower),
    ("exec.op.scan_rows_out", "count", Lower),
    ("exec.op.tagged_filter_rows_out", "count", Lower),
    ("exec.op.tagged_join_rows_out", "count", Lower),
    ("exec.op.project_rows_out", "count", Lower),
    ("exec.op.filter_rows_out", "count", Lower),
    ("exec.op.hash_join_rows_out", "count", Lower),
    ("exec.op.union_rows_out", "count", Lower),
    ("exec.trace_overhead", "ratio", Lower),
    // basilisk-expr
    ("expr.lanes_evaluated", "count", Lower),
    ("expr.lanes_short_circuited", "count", Higher),
    ("expr.short_circuit_ratio", "ratio", Higher),
    // basilisk-sched
    ("sched.tasks", "count", Lower),
    ("sched.steals", "count", Lower),
    ("sched.parks", "count", Lower),
    ("sched.busy_ms", "ms", Lower),
    ("sched.utilization", "ratio", Higher),
    ("sched.region_waits", "count", Lower),
    // basilisk-types arenas
    ("arena.fresh", "count", Lower),
    ("arena.reused", "count", Higher),
    // Set-up split and the paper's headline ratios (reported only).
    ("setup.build_s", "s", Lower),
    ("setup.prepare_s", "s", Lower),
    ("paper.speedup_total", "ratio", Higher),
    ("paper.speedup_exec", "ratio", Higher),
    ("error_rate", "ratio", Lower),
];

/// Per-layer metrics of the layers only the serving path uses (encoded
/// storage, SQL, the server); only the `serve` workload reports them.
pub const SERVE_LAYER: &[MetricDef] = &[
    // basilisk-storage
    ("storage.zone_skipped_morsels", "count", Higher),
    ("storage.zone_scanned_morsels", "count", Lower),
    ("storage.zone_skip_ratio", "ratio", Higher),
    ("storage.encode_s", "s", Lower),
    // basilisk-sql
    ("sql.parse_ms", "ms", Lower),
    // basilisk-serve
    ("serve.bind_ms", "ms", Lower),
    ("serve.execute_ms", "ms", Lower),
    ("serve.queue_wait_p50_ms", "ms", Lower),
    ("serve.queue_wait_p99_ms", "ms", Lower),
    ("serve.span.plan_ms", "ms", Lower),
    ("serve.span.admission_wait_ms", "ms", Lower),
    ("serve.span.execute_ms", "ms", Lower),
    ("serve.materialize_ms", "ms", Lower),
    ("serve.cache_hit_ratio", "ratio", Higher),
    ("serve.rejected", "count", Lower),
    ("serve.errors", "count", Lower),
    ("serve.outstanding", "count", Lower),
];

const CATALOG: [&[MetricDef]; 4] = [END_TO_END, SERVE_END_TO_END, PER_LAYER, SERVE_LAYER];

/// Which metric sets a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// `--trace 0`: end-to-end metrics from untraced passes.
    Off,
    /// `--trace 1`: per-layer metrics (untraced breakdown + one traced
    /// pass).
    On,
    /// `--trace all`: both, end-to-end first.
    All,
}

impl TraceMode {
    pub fn end_to_end(self) -> bool {
        matches!(self, TraceMode::Off | TraceMode::All)
    }

    pub fn per_layer(self) -> bool {
        matches!(self, TraceMode::On | TraceMode::All)
    }
}

/// The titled metric sets a run reports, in order: end-to-end and/or
/// per-layer, each followed by its serving-only part when `serve`.
pub fn sections(mode: TraceMode, serve: bool) -> Vec<(&'static str, &'static [MetricDef])> {
    let mut out = Vec::new();
    if mode.end_to_end() {
        out.push(("end-to-end (untraced)", END_TO_END));
        if serve {
            out.push(("end-to-end, serving only", SERVE_END_TO_END));
        }
    }
    if mode.per_layer() {
        out.push(("per-layer (untraced breakdown + traced pass)", PER_LAYER));
        if serve {
            out.push(("per-layer, serving path only", SERVE_LAYER));
        }
    }
    out
}

fn def(name: &str) -> Option<&'static MetricDef> {
    CATALOG.iter().copied().flatten().find(|d| d.0 == name)
}

/// Metric values collected by a run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, (f64, Option<Summary>)>,
}

impl Report {
    /// Record a metric. Panics on a name outside the catalog or a second
    /// value for the same name — both are benchmark bugs.
    pub fn set(&mut self, name: &str, value: f64) {
        self.insert(name, value, None);
    }

    /// Record a metric together with the sample distribution it is the
    /// median of.
    pub fn set_summary(&mut self, name: &str, value: f64, summary: Summary) {
        self.insert(name, value, Some(summary));
    }

    fn insert(&mut self, name: &str, value: f64, summary: Option<Summary>) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        let prev = self.values.insert(d.0, (value, summary));
        assert!(prev.is_none(), "metric {name} reported twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// The metrics of `sections`, in order, as `(name, unit, value)`.
    /// Panics if any is missing.
    pub fn selected(
        &self,
        sections: &[(&str, &'static [MetricDef])],
    ) -> Vec<(&'static str, &'static str, f64)> {
        sections
            .iter()
            .flat_map(|(_, defs)| defs.iter())
            .map(|&(name, unit, _)| {
                let (v, _) = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name, unit, *v)
            })
            .collect()
    }

    /// Human-readable table: value, unit and, where the value is a
    /// median, its quartiles and sample count.
    pub fn table(&self, sections: &[(&str, &'static [MetricDef])]) -> String {
        let mut out = String::new();
        for (title, defs) in sections {
            let _ = writeln!(out, "# {title}");
            for &(name, unit, _) in defs.iter() {
                let Some((v, s)) = self.values.get(name) else {
                    continue;
                };
                let _ = write!(out, "{name:<34} {v:>16.6} {unit}");
                if let Some(s) = s {
                    let _ = write!(out, "  (q1 {:.6}, q3 {:.6}, n {})", s.q1, s.q3, s.n);
                }
                out.push('\n');
            }
        }
        out
    }
}

/// JSON string literal for `s`.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for a measured value: shortest round-trip form, with
/// non-finite values (never expected) mapped to 0 so the line parses.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in CATALOG.iter().copied().flatten() {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|d| d.0 == "setup_s"));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[("setup_s", "s", 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_panics() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        r.set("setup_s", 2.0);
    }
}
