//! Query suites driven through `QuerySession`: the `job` and `synthetic`
//! workloads, and the in-process reference sessions of `serve`.
//!
//! A [`Suite`] is a list of [`Case`]s, each a session built during setup
//! with a baseline planner. One *operation* is `plan` + `execute` +
//! `project` of one case under one planner. Every operation's row count
//! is checked: the first pass records each case's TCombined count and
//! checks the baseline against it; later passes check both planners
//! against that reference.

use std::sync::Arc;
use std::time::{Duration, Instant};

use basilisk_catalog::Catalog;
use basilisk_core::{TagMapBuilder, TagMapStrategy};
use basilisk_expr::factor_common_conjuncts;
use basilisk_plan::planners::PlannedQuery;
use basilisk_plan::{
    annotate_tagged, CostModel, ExecContext, Plan, PlannerKind, Query, QuerySession, TPlan,
};
use basilisk_sched::WorkerPool;
use basilisk_types::{ArenaStats, Result, Tracer};
use basilisk_workload::{
    cnf_query, dnf_query, generate_imdb, generate_synthetic, job_queries, ImdbConfig,
    SyntheticConfig,
};

use crate::check::Checker;
use crate::config::{Config, JOB_QUERY_SEED};
use crate::spans::{OpProfile, SpanLog};
use crate::stats::{geomean, median};

/// One query of a suite.
pub struct Case {
    pub label: String,
    pub session: QuerySession,
    /// BDisj for OR-rooted (DNF) forms, BPushConj for AND-rooted ones.
    pub baseline: PlannerKind,
}

/// Which planner family an operation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Tagged,
    Baseline,
}

impl Side {
    pub fn kind(self, case: &Case) -> PlannerKind {
        match self {
            Side::Tagged => PlannerKind::TCombined,
            Side::Baseline => case.baseline,
        }
    }
}

pub struct Suite {
    pub cases: Vec<Case>,
    /// The worker pool every session executes on.
    pub pool: Arc<WorkerPool>,
    /// Per-case reference row count (TCombined, first pass).
    pub reference: Vec<Option<usize>>,
}

/// Times of one operation, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTimes {
    pub plan: f64,
    pub exec: f64,
    pub project: f64,
    pub rows: usize,
}

impl OpTimes {
    pub fn total(&self) -> f64 {
        self.plan + self.exec + self.project
    }
}

/// Build a session on `pool` for `query`, timed as a `session_build`
/// span. `QuerySession::new` spawns (and this replaces) a default-sized
/// pool; both happen here, during setup.
pub fn session(
    catalog: &Catalog,
    query: Query,
    pool: &Arc<WorkerPool>,
    spans: &mut SpanLog,
    id: usize,
) -> Result<QuerySession> {
    spans.span("session_build", Some(id), || {
        Ok(QuerySession::new(catalog, query)?
            .with_context(ExecContext::with_pool(Arc::clone(pool))))
    })
}

impl Suite {
    pub fn new(cases: Vec<Case>, pool: Arc<WorkerPool>) -> Suite {
        let n = cases.len();
        Suite {
            cases,
            pool,
            reference: vec![None; n],
        }
    }

    /// The `job` suite: every JOB group in DNF form (baseline BDisj) and
    /// in common-conjunct-factored form (baseline BPushConj).
    pub fn job(cfg: &Config, spans: &mut SpanLog) -> Result<Suite> {
        let mut catalog = Catalog::new();
        for t in generate_imdb(&ImdbConfig {
            scale: cfg.scale,
            seed: cfg.seed,
        })? {
            catalog.add_table(t)?;
        }
        let pool = Arc::new(WorkerPool::new(cfg.workers));
        let mut cases = Vec::new();
        for q in job_queries(JOB_QUERY_SEED).into_iter().take(cfg.groups) {
            let mut factored = q.query.clone();
            factored.predicate = factored.predicate.as_ref().map(factor_common_conjuncts);
            for (form, query, baseline) in [
                ("dnf", q.query, PlannerKind::BDisj),
                ("factored", factored, PlannerKind::BPushConj),
            ] {
                let id = cases.len();
                cases.push(Case {
                    label: format!("g{:02}.{form}", q.group),
                    session: session(&catalog, query, &pool, spans, id)?,
                    baseline,
                });
            }
        }
        Ok(Suite::new(cases, pool))
    }

    /// The `synthetic` suite: DNF and CNF with two root clauses at
    /// selectivity 0.2 and 0.5.
    pub fn synthetic(cfg: &Config, spans: &mut SpanLog) -> Result<Suite> {
        let mut catalog = Catalog::new();
        for t in generate_synthetic(&SyntheticConfig {
            rows: cfg.rows,
            num_attrs: 7,
            zipf_shape: 1.5,
            seed: cfg.seed,
        })? {
            catalog.add_table(t)?;
        }
        let pool = Arc::new(WorkerPool::new(cfg.workers));
        let mut cases = Vec::new();
        for sel in [0.2, 0.5] {
            for (form, query, baseline) in [
                ("dnf", dnf_query(2, sel, None), PlannerKind::BDisj),
                ("cnf", cnf_query(2, sel, None), PlannerKind::BPushConj),
            ] {
                let id = cases.len();
                cases.push(Case {
                    label: format!("{form}@{sel}"),
                    session: session(&catalog, query, &pool, spans, id)?,
                    baseline,
                });
            }
        }
        Ok(Suite::new(cases, pool))
    }

    /// Plan, execute and project case `i` under `side`.
    pub fn run_op(&self, i: usize, side: Side) -> Result<OpTimes> {
        let case = &self.cases[i];
        let s = &case.session;
        let t0 = Instant::now();
        let plan = s.plan(side.kind(case))?;
        let t1 = Instant::now();
        let out = s.execute(&plan)?;
        let t2 = Instant::now();
        let cols = s.project(&out)?;
        let rows = out.count();
        drop(cols);
        drop(out);
        let t3 = Instant::now();
        Ok(OpTimes {
            plan: (t1 - t0).as_secs_f64(),
            exec: (t2 - t1).as_secs_f64(),
            project: (t3 - t2).as_secs_f64(),
            rows,
        })
    }

    /// Check an operation's row count: the first tagged result becomes
    /// the case's reference, everything else is compared with it.
    pub fn check_rows(&mut self, i: usize, side: Side, rows: usize, check: &mut Checker) {
        match (self.reference[i], side) {
            (None, Side::Tagged) => {
                self.reference[i] = Some(rows);
                check.pass();
            }
            (None, Side::Baseline) => check.fail(format!(
                "{}: baseline ran before the reference",
                self.cases[i].label
            )),
            (Some(r), _) if r == rows => check.pass(),
            (Some(r), _) => check.fail(format!(
                "{} ({}): {rows} rows, reference {r}",
                self.cases[i].label,
                side.kind(&self.cases[i])
            )),
        }
    }

    /// Run one operation and check it; errors count as failures.
    pub fn checked_op(&mut self, i: usize, side: Side, check: &mut Checker) -> Option<OpTimes> {
        match self.run_op(i, side) {
            Ok(t) => {
                self.check_rows(i, side, t.rows, check);
                Some(t)
            }
            Err(e) => {
                check.fail(format!("{}: {e}", self.cases[i].label));
                None
            }
        }
    }

    /// One pass over every case under `side`; returns its wall time and
    /// the per-case times.
    pub fn pass(&mut self, side: Side, check: &mut Checker) -> (f64, Vec<Option<OpTimes>>) {
        let t0 = Instant::now();
        let times = (0..self.cases.len())
            .map(|i| self.checked_op(i, side, check))
            .collect();
        (t0.elapsed().as_secs_f64(), times)
    }

    /// The warm-up pass (tagged, then baseline). It settles arena pools
    /// and page faults, records the reference row counts and checks the
    /// two planners against each other. Its times are discarded.
    pub fn warm_up(&mut self, check: &mut Checker, plant_mismatch: bool) {
        self.pass(Side::Tagged, check);
        self.pass(Side::Baseline, check);
        if plant_mismatch {
            if let Some(r) = self.reference.first_mut().and_then(Option::as_mut) {
                *r += 1;
            }
        }
    }

    /// Zero the session and worker arena counters.
    pub fn reset_arenas(&self) {
        for c in &self.cases {
            c.session.reset_arena_stats();
        }
        self.pool.reset_stats();
    }

    /// Session and worker arena counters, summed.
    pub fn arena_stats(&self) -> ArenaStats {
        let mut total = self.pool.arena_stats();
        for c in &self.cases {
            total.merge(&c.session.arena_stats());
        }
        total
    }
}

/// Timing samples of repeated passes, per side and case.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall time of each pass, per side.
    pub tagged_wall: Vec<f64>,
    pub baseline_wall: Vec<f64>,
    /// `tagged[case]` holds that case's operation samples (same for
    /// `baseline`).
    pub tagged: Vec<Vec<OpTimes>>,
    pub baseline: Vec<Vec<OpTimes>>,
    /// Wall time of the whole measurement.
    pub wall: f64,
}

impl Passes {
    fn record(samples: &mut Vec<Vec<OpTimes>>, times: Vec<Option<OpTimes>>) {
        if samples.is_empty() {
            samples.resize(times.len(), Vec::new());
        }
        for (s, t) in samples.iter_mut().zip(times) {
            s.extend(t);
        }
    }

    /// Per-case median of `f` over the samples of one side.
    pub fn per_case(samples: &[Vec<OpTimes>], f: impl Fn(&OpTimes) -> f64) -> Vec<f64> {
        samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(&s.iter().map(&f).collect::<Vec<_>>()))
            .collect()
    }
}

/// Alternate tagged and baseline passes until `budget` has elapsed and
/// at least `min_passes` of each have run.
pub fn measure(
    suite: &mut Suite,
    budget: Duration,
    min_passes: usize,
    check: &mut Checker,
) -> Passes {
    let mut p = Passes::default();
    let t0 = Instant::now();
    loop {
        let (w, times) = suite.pass(Side::Tagged, check);
        p.tagged_wall.push(w);
        Passes::record(&mut p.tagged, times);
        let (w, times) = suite.pass(Side::Baseline, check);
        p.baseline_wall.push(w);
        Passes::record(&mut p.baseline, times);
        if p.tagged_wall.len() >= min_passes && t0.elapsed() >= budget {
            break;
        }
    }
    p.wall = t0.elapsed().as_secs_f64();
    p
}

/// What planning each case's tagged form looks like.
#[derive(Debug, Default)]
pub struct PlanAnalysis {
    /// Summed planning time of each TCombined member on its own, ms,
    /// in `PlannerKind::ALL_TAGGED` order.
    pub member_ms: [f64; 4],
    /// How often each member won TCombined, same order.
    pub chosen: [u64; 4],
    pub tagmap_entries: u64,
    /// One `annotate_tagged` call per chosen plan, summed, ms.
    pub annotate_ms: f64,
    /// Geometric-mean q-error of the estimated output rows.
    pub out_qerror: f64,
}

fn tagmap_entries(plan: &TPlan) -> u64 {
    match plan {
        TPlan::Scan { .. } => 0,
        TPlan::Filter { map, child, .. } => map.entries().len() as u64 + tagmap_entries(child),
        TPlan::Join {
            map, left, right, ..
        } => map.entries.len() as u64 + tagmap_entries(left) + tagmap_entries(right),
    }
}

/// Plan every tagged member on its own, then inspect TCombined's choice:
/// which member won, its tag-map size, the cost of one annotation pass,
/// and how far its output estimate is from the reference row count.
pub fn analyze_plans(suite: &Suite, spans: &mut SpanLog) -> Result<PlanAnalysis> {
    let mut a = PlanAnalysis::default();
    let mut qerrors = Vec::new();
    for (i, case) in suite.cases.iter().enumerate() {
        let s = &case.session;
        for (k, kind) in PlannerKind::ALL_TAGGED.into_iter().enumerate() {
            let name = format!("plan.{}", kind.name());
            let t0 = Instant::now();
            spans.span(&name, Some(i), || s.plan(kind))?;
            a.member_ms[k] += t0.elapsed().as_secs_f64() * 1e3;
        }
        let plan = s.plan(PlannerKind::TCombined)?;
        let (Plan::WithPredicate(PlannedQuery::Tagged { aplan, ann, chosen }), Some(tree)) =
            (&plan, s.tree())
        else {
            continue;
        };
        if let Some(k) = PlannerKind::ALL_TAGGED.iter().position(|m| m == chosen) {
            a.chosen[k] += 1;
        }
        a.tagmap_entries += tagmap_entries(&ann.plan);
        let builder = TagMapBuilder::new(tree, TagMapStrategy::Generalized { use_closure: true })
            .with_three_valued(s.three_valued());
        let cm = CostModel::default();
        let t0 = Instant::now();
        spans.span("annotate_tagged", Some(i), || {
            annotate_tagged(aplan, tree, &builder, s.estimator(), &cm)
        })?;
        a.annotate_ms += t0.elapsed().as_secs_f64() * 1e3;
        if let Some(actual) = suite.reference[i] {
            let (est, act) = (ann.out_rows.max(1.0), (actual as f64).max(1.0));
            qerrors.push((est / act).max(act / est));
        }
    }
    a.out_qerror = geomean(&qerrors);
    Ok(a)
}

/// One traced pass: every case under both planners through
/// `execute_traced`, folding the engine's span trees into a profile.
/// Returns the profile and the summed traced execution time (s).
pub fn traced_pass(
    suite: &mut Suite,
    spans: &mut SpanLog,
    check: &mut Checker,
) -> (OpProfile, f64) {
    let mut profile = OpProfile::default();
    let mut exec_s = 0.0;
    for i in 0..suite.cases.len() {
        for side in [Side::Tagged, Side::Baseline] {
            let case = &suite.cases[i];
            let s = &case.session;
            let result = (|| {
                let plan = s.plan(side.kind(case))?;
                let tracer = Tracer::new();
                let t0 = Instant::now();
                let out = spans.span("execute_traced", Some(i), || {
                    s.execute_traced(&plan, Some(&tracer))
                })?;
                let dt = t0.elapsed().as_secs_f64();
                let cols = spans.span("project", Some(i), || s.project(&out))?;
                let rows = out.count();
                drop(cols);
                drop(out);
                Ok::<_, basilisk_types::BasiliskError>((rows, dt, tracer.finish()))
            })();
            match result {
                Ok((rows, dt, tree)) => {
                    exec_s += dt;
                    profile.add(&tree);
                    suite.check_rows(i, side, rows, check);
                }
                Err(e) => check.fail(format!("{} traced: {e}", suite.cases[i].label)),
            }
        }
    }
    (profile, exec_s)
}
