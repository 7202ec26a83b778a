//! End-to-end benchmark of the Basilisk engine.
//!
//! Three workloads (`job`, `synthetic`, `serve`; see `README.md`), each
//! run in its own process from one seed. Untraced passes give the
//! end-to-end metrics; an untraced breakdown plus one traced pass give
//! the per-layer metrics. Every layer is measured from outside: by
//! timing calls into the engine's public functions and by reading the
//! counters and span trees the engine already exposes.

#![forbid(unsafe_code)]

pub mod check;
pub mod config;
pub mod report;
mod serve;
mod spans;
mod stats;
mod suite;

use std::time::Instant;

use basilisk_plan::PlannerKind;
use basilisk_sched::{RegionStats, SchedStats, WorkerPool};

use crate::check::Checker;
use crate::config::{Config, Workload, MIN_PASSES, MIN_REQUESTS, SETUP_REPS};
use crate::report::Report;
use crate::serve::{arena_counters, closed_loop, traced_requests, Sample, ServeBench};
use crate::spans::{OpProfile, SpanLog};
use crate::stats::{geomean, median, quantile, Summary};
use crate::suite::{analyze_plans, measure, traced_pass, OpTimes, Passes, PlanAnalysis, Suite};

/// What a run measured and how many of its operations were correct.
pub struct Outcome {
    pub report: Report,
    pub check: Checker,
}

/// Run one workload as configured.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut spans = SpanLog::new(cfg.trace.per_layer());
    let mut check = Checker::default();
    let mut report = Report::default();
    match cfg.workload {
        Workload::Job | Workload::Synthetic => run_suite(cfg, &mut spans, &mut check, &mut report),
        Workload::Serve => run_serve(cfg, &mut spans, &mut check, &mut report),
    }
    .map_err(|e| e.to_string())?;
    report.set("error_rate", check.error_rate());
    if let (Some(path), true) = (&cfg.spans_out, cfg.trace.per_layer()) {
        spans
            .write_jsonl(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(Outcome { report, check })
}

/// Set up `SETUP_REPS` times, dropping each set-up before the next, and
/// keep the last. One set-up is `build` (data, encoding, sessions or
/// server) then `prepare` (warm-up, reference row counts); both are
/// timed, and `setup_s` is the median of their sums.
fn timed_setup<T>(
    spans: &mut SpanLog,
    report: &mut Report,
    mut build: impl FnMut(&mut SpanLog) -> basilisk_types::Result<T>,
    mut prepare: impl FnMut(&mut T),
) -> basilisk_types::Result<T> {
    let mut last = None;
    let (mut builds, mut prepares, mut totals) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let mut x = build(spans)?;
        let t1 = Instant::now();
        let h = spans.begin("warm_up", None);
        prepare(&mut x);
        spans.end(h);
        let (b, p) = ((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64());
        builds.push(b);
        prepares.push(p);
        totals.push(b + p);
        last = Some(x);
    }
    set_median(report, "setup_s", &totals);
    set_median(report, "setup.build_s", &builds);
    set_median(report, "setup.prepare_s", &prepares);
    Ok(last.expect("at least one set-up"))
}

/// The process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn set_median(report: &mut Report, name: &str, xs: &[f64]) {
    report.set_summary(name, median(xs), Summary::of(xs));
}

fn ms(xs: impl IntoIterator<Item = f64>) -> Vec<f64> {
    xs.into_iter().map(|x| x * 1e3).collect()
}

fn run_suite(
    cfg: &Config,
    spans: &mut SpanLog,
    check: &mut Checker,
    report: &mut Report,
) -> basilisk_types::Result<()> {
    let mut suite = timed_setup(
        spans,
        report,
        |spans| match cfg.workload {
            Workload::Job => Suite::job(cfg, spans),
            _ => Suite::synthetic(cfg, spans),
        },
        |suite| suite.warm_up(check, cfg.plant_mismatch),
    )?;

    if cfg.trace.end_to_end() {
        let p = measure(&mut suite, cfg.duration(), MIN_PASSES, check);
        set_median(report, "tagged_suite_s", &p.tagged_wall);
        set_median(report, "baseline_suite_s", &p.baseline_wall);
        let geo = |s: &[Vec<OpTimes>]| geomean(&Passes::per_case(s, OpTimes::total)) * 1e3;
        report.set("tagged_geomean_ms", geo(&p.tagged));
        report.set("baseline_geomean_ms", geo(&p.baseline));
        report.set("peak_rss_mb", peak_rss_mb());
    }

    if cfg.trace.per_layer() {
        let (sched0, region0) = (suite.pool.sched_stats(), suite.pool.region_stats());
        suite.reset_arenas();
        let p = spans.span("breakdown", None, || {
            measure(&mut suite, cfg.duration(), 1, check)
        });
        let engine = EngineDelta::new(&suite.pool, &sched0, &region0, p.wall);
        let arena = suite.arena_stats();
        let analysis = analyze_plans(&suite, spans)?;
        let (profile, traced_exec) = traced_pass(&mut suite, spans, check);
        report_plan_exec(report, &p, &analysis, &profile, traced_exec);
        engine.report(report);
        report_arena(report, arena.fresh() as f64, arena.reused() as f64);
    }
    Ok(())
}

fn report_arena(report: &mut Report, fresh: f64, reused: f64) {
    report.set("arena.fresh", fresh);
    report.set("arena.reused", reused);
}

fn report_zones(report: &mut Report, skipped: u64, scanned: u64) {
    report.set("storage.zone_skipped_morsels", skipped as f64);
    report.set("storage.zone_scanned_morsels", scanned as f64);
    let total = skipped + scanned;
    report.set(
        "storage.zone_skip_ratio",
        if total == 0 {
            0.0
        } else {
            skipped as f64 / total as f64
        },
    );
}

/// Scheduler counter deltas over a measured interval.
struct EngineDelta {
    tasks: u64,
    steals: u64,
    parks: u64,
    busy_us: u64,
    worker_busy_us: u64,
    workers: u64,
    region_waits: u64,
    wall_s: f64,
}

impl EngineDelta {
    fn new(pool: &WorkerPool, s0: &SchedStats, r0: &RegionStats, wall_s: f64) -> EngineDelta {
        let s1 = pool.sched_stats();
        let r1 = pool.region_stats();
        let busy = |s: &SchedStats, n: usize| s.busy_micros.iter().take(n).sum::<u64>();
        let workers = s1.workers as usize;
        EngineDelta {
            tasks: s1.tasks - s0.tasks,
            steals: s1.steals - s0.steals,
            parks: s1.parks - s0.parks,
            busy_us: busy(&s1, usize::MAX) - busy(s0, usize::MAX),
            worker_busy_us: busy(&s1, workers) - busy(s0, workers),
            workers: s1.workers,
            region_waits: r1.waits - r0.waits,
            wall_s,
        }
    }

    fn report(&self, report: &mut Report) {
        report.set("sched.tasks", self.tasks as f64);
        report.set("sched.steals", self.steals as f64);
        report.set("sched.parks", self.parks as f64);
        report.set("sched.busy_ms", self.busy_us as f64 / 1e3);
        let capacity_us = self.workers.max(1) as f64 * self.wall_s * 1e6;
        report.set(
            "sched.utilization",
            self.worker_busy_us as f64 / capacity_us.max(1.0),
        );
        report.set("sched.region_waits", self.region_waits as f64);
    }
}

/// The plan, core, exec, expr and paper metrics of a suite breakdown.
fn report_plan_exec(
    report: &mut Report,
    p: &Passes,
    a: &PlanAnalysis,
    profile: &OpProfile,
    traced_exec_s: f64,
) {
    let sum = |s: &[Vec<OpTimes>], f: fn(&OpTimes) -> f64| -> f64 {
        Passes::per_case(s, f).iter().sum::<f64>() * 1e3
    };
    let plan_t = sum(&p.tagged, |t| t.plan);
    let total_t = sum(&p.tagged, OpTimes::total);
    let exec_t = sum(&p.tagged, |t| t.exec);
    let exec_b = sum(&p.baseline, |t| t.exec);
    report.set("plan.tagged_ms", plan_t);
    report.set("plan.baseline_ms", sum(&p.baseline, |t| t.plan));
    for (k, kind) in PlannerKind::ALL_TAGGED.into_iter().enumerate() {
        report.set(&format!("plan.member.{}_ms", kind.name()), a.member_ms[k]);
        report.set(&format!("plan.chosen.{}", kind.name()), a.chosen[k] as f64);
    }
    report.set("plan.out_qerror", a.out_qerror);
    report.set("plan.tagged_share", plan_t / total_t.max(1e-9));

    report.set("core.tagmap_entries", a.tagmap_entries as f64);
    report.set("core.annotate_ms", a.annotate_ms);
    let pullup = a.member_ms[1];
    report.set(
        "core.pullup_annotate_passes",
        if a.annotate_ms > 0.0 {
            pullup / a.annotate_ms
        } else {
            0.0
        },
    );

    report.set("exec.execute_tagged_ms", exec_t);
    report.set("exec.execute_baseline_ms", exec_b);
    report.set(
        "exec.project_ms",
        sum(&p.tagged, |t| t.project) + sum(&p.baseline, |t| t.project),
    );
    for span in [
        "scan",
        "tagged_filter",
        "tagged_join",
        "project",
        "filter",
        "hash_join",
        "union",
    ] {
        report.set(&format!("exec.op.{span}_ms"), profile.self_ms(span));
        report.set(&format!("exec.op.{span}_rows_out"), profile.rows(span));
    }
    report.set(
        "exec.trace_overhead",
        traced_exec_s * 1e3 / (exec_t + exec_b).max(1e-9),
    );

    let (ev, sc) = (
        profile.lanes_evaluated as f64,
        profile.lanes_short_circuited as f64,
    );
    report.set("expr.lanes_evaluated", ev);
    report.set("expr.lanes_short_circuited", sc);
    report.set(
        "expr.short_circuit_ratio",
        if ev > 0.0 { sc / ev } else { 0.0 },
    );

    let geo = |s: &[Vec<OpTimes>], f: fn(&OpTimes) -> f64| geomean(&Passes::per_case(s, f));
    report.set(
        "paper.speedup_total",
        geo(&p.baseline, OpTimes::total) / geo(&p.tagged, OpTimes::total),
    );
    report.set(
        "paper.speedup_exec",
        geo(&p.baseline, |t| t.exec) / geo(&p.tagged, |t| t.exec),
    );
}

/// Geometric mean over requests of each request's median latency, ms.
fn request_geomean_ms(samples: &[Sample], requests: usize) -> f64 {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); requests];
    for s in samples {
        per[s.request].push(s.latency);
    }
    let medians: Vec<f64> = per
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();
    geomean(&medians) * 1e3
}

fn run_serve(
    cfg: &Config,
    spans: &mut SpanLog,
    check: &mut Checker,
    report: &mut Report,
) -> basilisk_types::Result<()> {
    let mut encode = Vec::new();
    let mut bench = timed_setup(
        spans,
        report,
        |spans| {
            let b = ServeBench::build(cfg, spans)?;
            encode.push(b.encode_s);
            Ok(b)
        },
        |bench| bench.prepare(cfg, check),
    )?;
    let n = bench.requests.len();

    if cfg.trace.end_to_end() {
        let r = closed_loop(bench.target(), cfg, cfg.seconds, MIN_REQUESTS, MIN_PASSES);
        check.merge(r.check);
        set_median(report, "tagged_suite_s", &r.tagged_phase);
        set_median(report, "baseline_suite_s", &r.baseline_phase);
        report.set("tagged_geomean_ms", request_geomean_ms(&r.tagged, n));
        report.set("baseline_geomean_ms", request_geomean_ms(&r.baseline, n));
        let lat = ms(r.tagged.iter().map(|s| s.latency));
        let s = Summary::of(&lat);
        report.set_summary("latency_p50_ms", s.median, s);
        report.set_summary("latency_p99_ms", quantile(&lat, 0.99), s);
        let busy_s: f64 = r.tagged_phase.iter().sum();
        report.set("throughput_qps", lat.len() as f64 / busy_s.max(1e-9));
        report.set("peak_rss_mb", peak_rss_mb());
    }

    if cfg.trace.per_layer() {
        let server = &bench.server;
        let pool = server.pool();
        let (stats0, sched0, region0) = (server.stats(), pool.sched_stats(), pool.region_stats());
        let (fresh0, reused0) = arena_counters(server);
        let r = spans.span("closed_loop", None, || {
            closed_loop(bench.target(), cfg, cfg.seconds, 0, 1)
        });
        check.merge(r.check);
        let engine = EngineDelta::new(pool, &sched0, &region0, r.wall);
        let stats1 = server.stats();
        let (fresh1, reused1) = arena_counters(server);

        let pick = |f: fn(&Sample) -> f64, hits_only: bool| -> Vec<f64> {
            ms(r.tagged.iter().filter(|s| s.cache_hit || !hits_only).map(f))
        };
        set_median(report, "serve.bind_ms", &pick(|s| s.planning, true));
        set_median(report, "serve.execute_ms", &pick(|s| s.execution, false));
        let waits = pick(|s| s.queue_wait, false);
        report.set("serve.queue_wait_p50_ms", median(&waits));
        report.set("serve.queue_wait_p99_ms", quantile(&waits, 0.99));
        let hits = (stats1.cache_hits - stats0.cache_hits) as f64;
        let misses = (stats1.cache_misses - stats0.cache_misses) as f64;
        report.set("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        report.set("serve.rejected", (stats1.rejected - stats0.rejected) as f64);
        report.set("serve.errors", (stats1.errors - stats0.errors) as f64);
        engine.report(report);
        report_arena(report, fresh1 - fresh0, reused1 - reused0);
        report_zones(
            report,
            stats1.skipped_morsels_total - stats0.skipped_morsels_total,
            stats1.scanned_morsels_total - stats0.scanned_morsels_total,
        );
        report.set("storage.encode_s", median(&encode));

        let traced = traced_requests(&bench, spans, check);
        report.set("sql.parse_ms", traced.median_self_ms("parse"));
        report.set("serve.span.plan_ms", traced.median_self_ms("plan"));
        report.set(
            "serve.span.admission_wait_ms",
            traced.median_self_ms("admission_wait"),
        );
        report.set("serve.span.execute_ms", traced.median_self_ms("execute"));
        report.set("serve.materialize_ms", traced.median_self_ms("request"));
        report.set("serve.outstanding", bench.server.outstanding() as f64);

        // Plan and execution layers, on the reference sessions.
        let suite = &mut bench.suite;
        let p = spans.span("breakdown", None, || {
            measure(suite, cfg.duration(), 1, check)
        });
        let analysis = analyze_plans(suite, spans)?;
        let (profile, traced_exec) = traced_pass(suite, spans, check);
        report_plan_exec(report, &p, &analysis, &profile, traced_exec);
    }
    Ok(())
}
