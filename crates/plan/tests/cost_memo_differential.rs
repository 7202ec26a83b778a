//! Memoized tagged costing against fresh annotation.
//!
//! Every candidate plan TPullup and TIterPush visit is costed through one
//! shared [`TaggedCoster`] memo (as a planning call does) and, separately,
//! by [`annotate_tagged`] with a fresh `TagMapBuilder`. Costs must agree
//! bit for bit, and the memo's annotation of each candidate must carry
//! the same tag maps, projection and output estimate.

use basilisk_catalog::Catalog;
use basilisk_core::{TagMapBuilder, TagMapStrategy};
use basilisk_expr::{factor_common_conjuncts, PredicateTree};
use basilisk_plan::benefit::benefiting_order;
use basilisk_plan::planners::{t_pushdown, PlannerInput};
use basilisk_plan::{
    annotate_tagged, greedy_join_tree, APlan, CostModel, ExecContext, QuerySession, TPlan,
    TaggedAnnotation,
};
use basilisk_workload::{generate_imdb, job_query, ImdbConfig};

const GROUPS: [usize; 4] = [4, 28, 1, 33];

fn same_tplan(a: &TPlan, b: &TPlan) -> bool {
    match (a, b) {
        (TPlan::Scan { alias: x }, TPlan::Scan { alias: y }) => x == y,
        (
            TPlan::Filter {
                node: n1,
                map: m1,
                child: c1,
            },
            TPlan::Filter {
                node: n2,
                map: m2,
                child: c2,
            },
        ) => n1 == n2 && m1.entries() == m2.entries() && same_tplan(c1, c2),
        (
            TPlan::Join {
                cond: k1,
                map: m1,
                left: l1,
                right: r1,
            },
            TPlan::Join {
                cond: k2,
                map: m2,
                left: l2,
                right: r2,
            },
        ) => k1 == k2 && m1.entries == m2.entries && same_tplan(l1, l2) && same_tplan(r1, r2),
        _ => false,
    }
}

fn assert_same(label: &str, memo: &TaggedAnnotation, fresh: &TaggedAnnotation) {
    assert_eq!(memo.cost.to_bits(), fresh.cost.to_bits(), "{label}: cost");
    assert_eq!(
        memo.out_rows.to_bits(),
        fresh.out_rows.to_bits(),
        "{label}: out_rows"
    );
    assert_eq!(
        memo.projection.allowed, fresh.projection.allowed,
        "{label}: projection"
    );
    assert!(same_tplan(&memo.plan, &fresh.plan), "{label}: tag maps");
}

/// The candidates TPullup's Algorithm 2 walk visits, in visit order.
fn pullup_candidates(input: &PlannerInput<'_>) -> Vec<APlan> {
    let coster = input.coster();
    let mut best = t_pushdown(input).unwrap();
    let mut best_cost = coster.cost(&best).unwrap();
    let mut seen = vec![best.clone()];
    let mut order = benefiting_order(input.tree, input.est, &input.tree.atom_ids()).unwrap();
    order.reverse();
    for filter in order {
        let mut plan = best.clone();
        while let Some(candidate) = plan
            .can_pull_up(filter)
            .then(|| plan.pull_up_filter(filter))
            .flatten()
        {
            let cost = coster.cost(&candidate).unwrap();
            if cost < best_cost {
                best = candidate.clone();
                best_cost = cost;
            }
            seen.push(candidate.clone());
            plan = candidate;
        }
    }
    seen
}

/// The candidates TIterPush visits, in visit order.
fn iterpush_candidates(input: &PlannerInput<'_>) -> Vec<APlan> {
    let coster = input.coster();
    let leaves = input
        .query
        .aliases
        .iter()
        .map(|(a, _)| {
            (
                a.clone(),
                APlan::scan(a.clone()),
                input.est.rows(a).unwrap(),
            )
        })
        .collect();
    let mut plan = greedy_join_tree(leaves, &input.query.joins, input.est).unwrap();
    let order = benefiting_order(input.tree, input.est, &input.tree.atom_ids()).unwrap();
    for &node in &order {
        plan = APlan::filter(node, plan);
    }
    let mut best_cost = coster.cost(&plan).unwrap();
    let mut best = plan;
    let mut seen = vec![best.clone()];
    for &filter in &order {
        let alias = input.tree.atom(filter).unwrap().table().to_owned();
        let (removed, found) = best.remove_filter(filter);
        let Some(candidate) = found
            .then(|| removed.insert_filter_above_scan(filter, &alias))
            .flatten()
        else {
            continue;
        };
        let cost = coster.cost(&candidate).unwrap();
        seen.push(candidate.clone());
        if cost < best_cost {
            best = candidate;
            best_cost = cost;
        }
    }
    seen
}

#[test]
fn memoized_cost_matches_fresh_annotation() {
    let mut catalog = Catalog::new();
    for t in generate_imdb(&ImdbConfig {
        scale: 0.02,
        seed: 3,
    })
    .unwrap()
    {
        catalog.add_table(t).unwrap();
    }
    let cm = CostModel::default();
    let strategy = TagMapStrategy::Generalized { use_closure: true };
    let mut checked = 0;
    for group in GROUPS {
        let q = job_query(group, 42);
        let mut factored = q.query.clone();
        factored.predicate = factored.predicate.as_ref().map(factor_common_conjuncts);
        for (form, query) in [("dnf", q.query), ("factored", factored)] {
            let session = QuerySession::new(&catalog, query)
                .unwrap()
                .with_context(ExecContext::new(1));
            let tree: &PredicateTree = session.tree().unwrap();
            let builder =
                TagMapBuilder::new(tree, strategy).with_three_valued(session.three_valued());
            let input =
                PlannerInput::new(session.query(), tree, session.estimator(), &builder, &cm);
            let mut candidates = pullup_candidates(&input);
            candidates.extend(iterpush_candidates(&input));
            for (i, plan) in candidates.iter().enumerate() {
                let label = format!("g{group:02}.{form} candidate {i}");
                let fresh_builder =
                    TagMapBuilder::new(tree, strategy).with_three_valued(session.three_valued());
                let fresh =
                    annotate_tagged(plan, tree, &fresh_builder, session.estimator(), &cm).unwrap();
                let memo_cost = input.coster().cost(plan).unwrap();
                assert_eq!(memo_cost.to_bits(), fresh.cost.to_bits(), "{label}: cost");
                assert_same(&label, &input.coster().annotate(plan).unwrap(), &fresh);
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "only {checked} candidates visited");
}
