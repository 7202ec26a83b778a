//! A cached tagged plan must not be re-driven over a binding whose
//! literals imply differently between atoms.
//!
//! The statement below was prepared with `year > 2005 … > 2015` and
//! `info > '8.8' … > '7.6'`: `year > 2015 ⇒ year > 2005` and
//! `info > '8.8' ⇒ info > '7.6'`. The rebinding `1995 … 2000` /
//! `'6.0' … '6.7'` flips the rating implication, so the prepare-time tag
//! maps drop slices the new literals need. On IMDB scale 1.0, seed 1 the
//! rebound query returns 4111 rows under every in-process planner; the
//! stale cached plan returned 2436.

use basilisk_catalog::Catalog;
use basilisk_plan::{ExecContext, PlannerKind, QuerySession};
use basilisk_serve::{Server, ServerConfig};
use basilisk_sql::parse_select;
use basilisk_workload::{generate_imdb, ImdbConfig};

fn statement(y1: i64, r1: &str, y2: i64, r2: &str) -> String {
    format!(
        "SELECT t.id, t.title FROM title t JOIN movie_info_idx mi ON t.id = mi.movie_id \
         WHERE mi.info_type_id = 99 AND ((t.production_year > {y1} AND mi.info > '{r1}') OR \
         (t.production_year > {y2} AND mi.info > '{r2}'))"
    )
}

#[test]
fn rebinding_with_flipped_implications_replans() {
    let mut catalog = Catalog::new();
    for t in generate_imdb(&ImdbConfig {
        scale: 1.0,
        seed: 1,
    })
    .unwrap()
    {
        catalog.add_table(t.encode().unwrap()).unwrap();
    }
    let rebound = statement(1995, "6.0", 2000, "6.7");
    let reference = QuerySession::new(&catalog, parse_select(&rebound).unwrap().into_query())
        .unwrap()
        .with_context(ExecContext::new(1));
    for kind in [PlannerKind::BDisj, PlannerKind::TCombined] {
        let (out, _) = reference.run(kind).unwrap();
        assert_eq!(out.count(), 4111, "{kind} in process");
    }

    let server = Server::new(
        catalog,
        ServerConfig::builder()
            .contexts(1)
            .workers(1)
            .build()
            .unwrap(),
    );
    let prepared = server.sql(&statement(2005, "8.8", 2015, "7.6")).unwrap();
    assert!(!prepared.cache_hit);
    let planned = server.stats().statements_prepared;

    let r = server.sql(&rebound).unwrap();
    assert_eq!(r.row_count, 4111, "served from the cached statement");
    assert!(!r.cache_hit, "the cached plan was not reused");
    assert_eq!(
        server.stats().statements_prepared,
        planned + 1,
        "re-planned"
    );

    // A binding that keeps every implication still reuses the plan.
    let r = server.sql(&statement(2006, "8.9", 2016, "7.7")).unwrap();
    assert!(r.cache_hit);
    assert_eq!(server.stats().statements_prepared, planned + 1);
}
