//! Golden planner output: TCombined's choice on every JOB group (DNF and
//! common-conjunct-factored forms) over a small fixed-seed IMDB, plus the
//! §5.2 synthetic DNF/CNF forms at selectivity 0.2 and 0.5.
//!
//! Each query pins the winning member, the abstract plan, and the bit
//! patterns of the estimated cost and output rows. Planner optimizations
//! must not move any of them: the file `tests/golden/plan_golden.txt` is
//! compared byte for byte. On a mismatch the actual output is written
//! next to the test binaries (the path is in the failure message); copy
//! it over the golden file only when a plan change is intended.

use basilisk_catalog::Catalog;
use basilisk_expr::factor_common_conjuncts;
use basilisk_plan::planners::PlannedQuery;
use basilisk_plan::{ExecContext, Plan, PlannerKind, Query, QuerySession};
use basilisk_workload::{
    cnf_query, dnf_query, generate_imdb, generate_synthetic, job_queries, ImdbConfig,
    SyntheticConfig,
};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plan_golden.txt");

fn render(out: &mut String, label: &str, catalog: &Catalog, query: Query) {
    let session = QuerySession::new(catalog, query)
        .unwrap()
        .with_context(ExecContext::new(1));
    let tree = session.tree().expect("every golden query has a predicate");
    let plan = session.plan(PlannerKind::TCombined).unwrap();
    let Plan::WithPredicate(PlannedQuery::Tagged { aplan, ann, chosen }) = &plan else {
        panic!("{label}: TCombined must produce a tagged plan");
    };
    out.push_str(&format!(
        "== {label}\nchosen {chosen}\ncost {:016x}\nout_rows {:016x}\n{}\n",
        ann.cost.to_bits(),
        ann.out_rows.to_bits(),
        aplan.display(tree).trim_end(),
    ));
}

fn golden_text() -> String {
    let mut out = String::new();

    let mut imdb = Catalog::new();
    for t in generate_imdb(&ImdbConfig {
        scale: 0.1,
        seed: 7,
    })
    .unwrap()
    {
        imdb.add_table(t).unwrap();
    }
    for q in job_queries(42) {
        let mut factored = q.query.clone();
        factored.predicate = factored.predicate.as_ref().map(factor_common_conjuncts);
        render(&mut out, &format!("g{:02}.dnf", q.group), &imdb, q.query);
        render(
            &mut out,
            &format!("g{:02}.factored", q.group),
            &imdb,
            factored,
        );
    }

    let mut synth = Catalog::new();
    for t in generate_synthetic(&SyntheticConfig {
        rows: 2_000,
        seed: 7,
        ..SyntheticConfig::default()
    })
    .unwrap()
    {
        synth.add_table(t).unwrap();
    }
    for sel in [0.2, 0.5] {
        render(
            &mut out,
            &format!("dnf@{sel}"),
            &synth,
            dnf_query(2, sel, None),
        );
        render(
            &mut out,
            &format!("cnf@{sel}"),
            &synth,
            cnf_query(2, sel, None),
        );
    }
    out
}

#[test]
fn tcombined_plans_match_golden() {
    let actual = golden_text();
    let expected = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    if actual != expected {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("plan_golden.actual");
        std::fs::write(&dump, &actual).unwrap();
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or(actual.lines().count().min(expected.lines().count()), |i| i);
        panic!(
            "planner output differs from {GOLDEN} at line {}; actual output written to {}",
            first + 1,
            dump.display()
        );
    }
}
