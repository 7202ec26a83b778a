//! The benefit score (Appendix A, Algorithm 3) and "benefiting order".
//!
//! The benefit score estimates the value of applying one filter before a
//! *set* of still-unapplied filters: if the unapplied filter sits below an
//! AND-parent of the scored filter, applying the scored filter first
//! removes `1 − selectivity` of the tuples from the unapplied filter's
//! input; below an OR-parent it removes `selectivity` (the true tuples
//! bypass it). Duplicate instances are handled through ancestor *paths*:
//! an unapplied filter only receives the benefit if the relevant parent
//! appears on **every** one of its paths to the root.

use basilisk_catalog::Estimator;
use basilisk_expr::{ExprId, PredicateTree};
use basilisk_types::Result;

/// All upward paths from `node` to the root. Each path lists the strict
/// ancestors in bottom-up order. The root yields one empty path.
pub fn ancestor_paths(tree: &PredicateTree, node: ExprId) -> Vec<Vec<ExprId>> {
    let mut out = Vec::new();
    let mut current = Vec::new();
    walk_up(tree, node, &mut current, &mut out);
    out
}

fn walk_up(
    tree: &PredicateTree,
    node: ExprId,
    current: &mut Vec<ExprId>,
    out: &mut Vec<Vec<ExprId>>,
) {
    let parents = tree.parents(node);
    if parents.is_empty() {
        out.push(current.clone());
        return;
    }
    for &p in parents {
        current.push(p);
        walk_up(tree, p, current, out);
        current.pop();
    }
}

/// Whether a filter with ancestor paths `u_paths` is an AND- and/or an
/// OR-descendant of the filter whose parents are `parents`: the relevant
/// parent must appear on **every** path.
fn descendant_relation(
    tree: &PredicateTree,
    parents: &[ExprId],
    u_paths: &[Vec<ExprId>],
) -> (bool, bool) {
    let mut is_and_descendant = true;
    let mut is_or_descendant = true;
    for path in u_paths {
        // "if ∀parent ∈ parents(to_score), parent ∉ path ∨ isOr(parent)
        //  then is_and_descendant ← false"
        if parents.iter().all(|p| !path.contains(p) || tree.is_or(*p)) {
            is_and_descendant = false;
        }
        if parents.iter().all(|p| !path.contains(p) || tree.is_and(*p)) {
            is_or_descendant = false;
        }
    }
    (is_and_descendant, is_or_descendant)
}

/// `CalcBenefitScore` (Algorithm 3): the benefit of applying `to_score`
/// before every filter in `unapplied`.
pub fn benefit_score(
    tree: &PredicateTree,
    est: &Estimator,
    to_score: ExprId,
    unapplied: &[ExprId],
) -> Result<f64> {
    let sel = est.node_selectivity(tree, to_score)?;
    let parents = tree.parents(to_score);
    let mut benefit = 0.0;
    for &u in unapplied {
        if u == to_score {
            continue;
        }
        let (is_and, is_or) = descendant_relation(tree, parents, &ancestor_paths(tree, u));
        if is_and {
            benefit += 1.0 - sel;
        }
        if is_or {
            benefit += sel;
        }
    }
    Ok(benefit)
}

/// The evaluation-cost factor of a filter node (`F_P` in §4.1): the sum of
/// its atoms' cost factors, dominated by LIKE patterns.
pub fn filter_cost_factor(tree: &PredicateTree, node: ExprId) -> f64 {
    tree.atoms_under(node)
        .iter()
        .map(|&a| tree.atom(a).expect("atom id").cost_factor())
        .sum()
}

/// Sort filters into benefiting order: repeatedly pick the filter with the
/// highest `benefit / cost-factor` with respect to the filters still
/// unapplied (ties broken by node id for determinism).
///
/// The AND/OR-descendant relation of every filter pair, each filter's
/// selectivity and its cost factor are computed once up front, so the
/// greedy loop only sums. Each score adds the same terms in the same
/// order as [`benefit_score`] over the remaining filters.
pub fn benefiting_order(
    tree: &PredicateTree,
    est: &Estimator,
    filters: &[ExprId],
) -> Result<Vec<ExprId>> {
    let sel: Vec<f64> = filters
        .iter()
        .map(|&f| est.node_selectivity(tree, f))
        .collect::<Result<_>>()?;
    let paths: Vec<Vec<Vec<ExprId>>> = filters.iter().map(|&f| ancestor_paths(tree, f)).collect();
    // relation[i][j]: is filters[j] an (AND, OR)-descendant of filters[i]?
    let relation: Vec<Vec<(bool, bool)>> = filters
        .iter()
        .map(|&f| {
            let parents = tree.parents(f);
            paths
                .iter()
                .map(|p| descendant_relation(tree, parents, p))
                .collect()
        })
        .collect();

    let mut remaining: Vec<usize> = (0..filters.len()).collect();
    let mut out = Vec::with_capacity(filters.len());
    while !remaining.is_empty() {
        let mut best: Option<(usize, f64)> = None;
        for (pos, &i) in remaining.iter().enumerate() {
            let f = filters[i];
            let mut b = 0.0;
            for &j in &remaining {
                if filters[j] == f {
                    continue;
                }
                let (is_and, is_or) = relation[i][j];
                if is_and {
                    b += 1.0 - sel[i];
                }
                if is_or {
                    b += sel[i];
                }
            }
            let score = b / filter_cost_factor(tree, f).max(1e-9);
            let better = match best {
                None => true,
                Some((bpos, s)) => {
                    score > s + 1e-12
                        || ((score - s).abs() <= 1e-12 && f < filters[remaining[bpos]])
                }
            };
            if better {
                best = Some((pos, score));
            }
        }
        let (pos, _) = best.expect("non-empty remaining");
        out.push(filters[remaining.remove(pos)]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_catalog::Catalog;
    use basilisk_expr::{and, col, or, Expr};
    use basilisk_storage::TableBuilder;
    use basilisk_types::DataType;

    /// One table with attributes of controlled selectivity: `a<k` has
    /// selectivity k/100 for k in 0..=100.
    fn setup(expr: &Expr) -> (PredicateTree, Estimator) {
        let mut b = TableBuilder::new("t")
            .column("a", DataType::Int)
            .column("b", DataType::Int)
            .column("c", DataType::Int)
            .column("d", DataType::Int);
        for i in 0..100i64 {
            b.push_row(vec![i.into(), i.into(), i.into(), i.into()])
                .unwrap();
        }
        let mut cat = Catalog::new();
        cat.add_table(b.finish().unwrap()).unwrap();
        let est = Estimator::new(&cat, &[("t".into(), "t".into())]).unwrap();
        (PredicateTree::build(expr), est)
    }

    fn find(tree: &PredicateTree, s: &str) -> ExprId {
        tree.atom_ids()
            .into_iter()
            .find(|&id| tree.display(id) == s)
            .unwrap()
    }

    #[test]
    fn ancestor_paths_simple_and_duplicate() {
        // (A∧B) ∨ (A∧C): A has two paths to the root.
        let a = || col("t", "a").lt(10i64);
        let e = or(vec![
            and(vec![a(), col("t", "b").lt(20i64)]),
            and(vec![a(), col("t", "c").lt(30i64)]),
        ]);
        let (tree, _) = setup(&e);
        let a_id = find(&tree, "t.a < 10");
        let paths = ancestor_paths(&tree, a_id);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.len(), 2, "AND then OR");
            assert!(tree.is_and(p[0]));
            assert!(tree.is_or(p[1]));
        }
        // Root has a single empty path.
        assert_eq!(ancestor_paths(&tree, tree.root()), vec![Vec::new()]);
    }

    #[test]
    fn and_siblings_get_one_minus_sel() {
        // A∧B: benefit(A; {B}) = 1 - sel(A).
        let e = and(vec![col("t", "a").lt(10i64), col("t", "b").lt(50i64)]);
        let (tree, est) = setup(&e);
        let a = find(&tree, "t.a < 10");
        let b = find(&tree, "t.b < 50");
        let ben = benefit_score(&tree, &est, a, &[b]).unwrap();
        assert!((ben - 0.9).abs() < 1e-6, "got {ben}");
        let ben = benefit_score(&tree, &est, b, &[a]).unwrap();
        assert!((ben - 0.5).abs() < 1e-6, "got {ben}");
    }

    #[test]
    fn or_siblings_get_sel() {
        // A∨B: benefit(A; {B}) = sel(A) — true tuples bypass B.
        let e = or(vec![col("t", "a").lt(10i64), col("t", "b").lt(50i64)]);
        let (tree, est) = setup(&e);
        let a = find(&tree, "t.a < 10");
        let b = find(&tree, "t.b < 50");
        let ben = benefit_score(&tree, &est, a, &[b]).unwrap();
        assert!((ben - 0.1).abs() < 1e-6, "got {ben}");
    }

    #[test]
    fn unrelated_filters_no_benefit() {
        // (A∧B) ∨ (C∧D): A's parent is not on C's paths… C's path goes
        // through the other AND. So benefit(A; {C}) = 0.
        let e = or(vec![
            and(vec![col("t", "a").lt(10i64), col("t", "b").lt(20i64)]),
            and(vec![col("t", "c").lt(30i64), col("t", "d").lt(40i64)]),
        ]);
        let (tree, est) = setup(&e);
        let a = find(&tree, "t.a < 10");
        let c = find(&tree, "t.c < 30");
        assert_eq!(benefit_score(&tree, &est, a, &[c]).unwrap(), 0.0);
    }

    #[test]
    fn duplicate_instance_requires_every_path() {
        // (A∧B) ∨ (A∧C): scoring B against {A}: A's two paths go through
        // different ANDs; B's parent (the first AND) is on only one of
        // them → no benefit. Scoring A against {B}: B has one path through
        // A's first-AND parent → AND benefit.
        let a = || col("t", "a").lt(10i64);
        let e = or(vec![
            and(vec![a(), col("t", "b").lt(20i64)]),
            and(vec![a(), col("t", "c").lt(30i64)]),
        ]);
        let (tree, est) = setup(&e);
        let a_id = find(&tree, "t.a < 10");
        let b_id = find(&tree, "t.b < 20");
        assert_eq!(benefit_score(&tree, &est, b_id, &[a_id]).unwrap(), 0.0);
        let ben = benefit_score(&tree, &est, a_id, &[b_id]).unwrap();
        assert!((ben - 0.9).abs() < 1e-6, "A kills 90% of B's input");
    }

    #[test]
    fn benefiting_order_prefers_selective_cheap_filters() {
        // A (sel .1) vs B (sel .5) vs C (sel .9), all AND siblings.
        let e = and(vec![
            col("t", "c").lt(90i64),
            col("t", "a").lt(10i64),
            col("t", "b").lt(50i64),
        ]);
        let (tree, est) = setup(&e);
        let order = benefiting_order(
            &tree,
            &est,
            &[
                find(&tree, "t.c < 90"),
                find(&tree, "t.a < 10"),
                find(&tree, "t.b < 50"),
            ],
        )
        .unwrap();
        let names: Vec<String> = order.iter().map(|&id| tree.display(id)).collect();
        assert_eq!(names, vec!["t.a < 10", "t.b < 50", "t.c < 90"]);
    }

    #[test]
    fn benefiting_order_penalizes_expensive_filters() {
        // LIKE is ~10× costlier; even with equal benefit it sorts last.
        let mut b = TableBuilder::new("t")
            .column("a", DataType::Int)
            .column("s", DataType::Str);
        for i in 0..100i64 {
            b.push_row(vec![i.into(), format!("row{i}").into()])
                .unwrap();
        }
        let mut cat = Catalog::new();
        cat.add_table(b.finish().unwrap()).unwrap();
        let est = Estimator::new(&cat, &[("t".into(), "t".into())]).unwrap();
        let e = and(vec![col("t", "s").like("%5%"), col("t", "a").lt(19i64)]);
        let tree = PredicateTree::build(&e);
        let like = find(&tree, "t.s LIKE '%5%'");
        let lt = find(&tree, "t.a < 19");
        let order = benefiting_order(&tree, &est, &[like, lt]).unwrap();
        assert_eq!(order, vec![lt, like]);
    }

    /// The greedy loop as written before the relation was precomputed:
    /// `benefit_score` against the remaining filters on every round.
    fn reference_order(tree: &PredicateTree, est: &Estimator, filters: &[ExprId]) -> Vec<ExprId> {
        let mut remaining: Vec<ExprId> = filters.to_vec();
        let mut out = Vec::new();
        while !remaining.is_empty() {
            let mut best: Option<(usize, f64)> = None;
            for (i, &f) in remaining.iter().enumerate() {
                let others: Vec<ExprId> = remaining.iter().copied().filter(|&g| g != f).collect();
                let b = benefit_score(tree, est, f, &others).unwrap();
                let score = b / filter_cost_factor(tree, f).max(1e-9);
                let better = match best {
                    None => true,
                    Some((bi, s)) => {
                        score > s + 1e-12 || ((score - s).abs() <= 1e-12 && f < remaining[bi])
                    }
                };
                if better {
                    best = Some((i, score));
                }
            }
            out.push(remaining.remove(best.unwrap().0));
        }
        out
    }

    #[test]
    fn benefiting_order_matches_per_round_scoring() {
        let a = || col("t", "a").lt(10i64);
        let exprs = [
            or(vec![
                and(vec![a(), col("t", "b").lt(20i64)]),
                and(vec![a(), col("t", "c").lt(30i64)]),
                and(vec![col("t", "d").lt(70i64), col("t", "b").lt(45i64)]),
            ]),
            and(vec![
                or(vec![a(), col("t", "b").lt(50i64), col("t", "c").lt(5i64)]),
                or(vec![
                    and(vec![col("t", "d").lt(90i64), col("t", "c").lt(60i64)]),
                    a(),
                ]),
                col("t", "d").lt(33i64),
            ]),
        ];
        for e in &exprs {
            let (tree, est) = setup(e);
            let atoms = tree.atom_ids();
            let mut reversed = atoms.clone();
            reversed.reverse();
            for filters in [atoms, reversed] {
                assert_eq!(
                    benefiting_order(&tree, &est, &filters).unwrap(),
                    reference_order(&tree, &est, &filters),
                    "{e}"
                );
            }
        }
    }

    #[test]
    fn filter_cost_factor_sums_atoms() {
        let e = or(vec![
            col("t", "a").lt(10i64),
            and(vec![col("t", "b").lt(20i64), col("t", "c").lt(30i64)]),
        ]);
        let (tree, _) = setup(&e);
        assert_eq!(filter_cost_factor(&tree, tree.root()), 3.0);
        let a = find(&tree, "t.a < 10");
        assert_eq!(filter_cost_factor(&tree, a), 1.0);
    }
}
