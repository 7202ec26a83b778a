//! The precomputed implication table of [`Closure`] against the pairwise
//! `implied_truth` fixpoint it replaces: on random same-column atom sets
//! and random assignment sets, `close` must reach the same assignments and
//! agree on satisfiability.

use std::collections::BTreeMap;

use basilisk_expr::subsume::{implied_truth, Closure};
use basilisk_expr::{col, or, Expr, ExprId, PredicateTree};
use basilisk_types::{Truth, Value};
use proptest::prelude::*;

/// Atoms over two columns of one table, with small literals so ranges,
/// points and lists overlap often.
fn atom_strategy() -> impl Strategy<Value = Expr> {
    let column = prop_oneof![Just("x"), Just("y")];
    (column, 0u8..9, 0i64..6, 0i64..6).prop_map(|(c, kind, v, w)| {
        let b = || col("t", c);
        match kind {
            0 => b().lt(v),
            1 => b().le(v),
            2 => b().gt(v),
            3 => b().ge(v),
            4 => b().eq(v),
            5 => b().ne(v),
            6 => b().in_list(vec![Value::Int(v), Value::Int(w)]),
            7 => b().is_null(),
            _ => b().lt(Value::Null),
        }
    })
}

fn truth_strategy() -> impl Strategy<Value = Truth> {
    prop_oneof![Just(Truth::True), Just(Truth::False), Just(Truth::Unknown)]
}

/// The closure as it was computed before the table: every fixpoint pass
/// evaluates `implied_truth` for each assigned src and unassigned dst,
/// then every id-ordered pair is checked for a contradiction.
fn reference_close(tree: &PredicateTree, assignments: &mut BTreeMap<ExprId, Truth>) -> bool {
    let atoms = tree.atom_ids();
    loop {
        let mut changed = false;
        for &src in &atoms {
            let Some(&truth) = assignments.get(&src) else {
                continue;
            };
            let src_atom = tree.atom(src).unwrap();
            for &dst in &atoms {
                if dst == src || assignments.contains_key(&dst) {
                    continue;
                }
                if let Some(implied) = implied_truth(src_atom, truth, tree.atom(dst).unwrap()) {
                    assignments.insert(dst, implied);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (i, (&a, &ta)) in assignments.iter().enumerate() {
        let Some(atom_a) = tree.atom(a) else { continue };
        for (&b, &tb) in assignments.iter().skip(i + 1) {
            let Some(atom_b) = tree.atom(b) else { continue };
            if implied_truth(atom_a, ta, atom_b).is_some_and(|implied| implied != tb) {
                return false;
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn table_close_matches_pairwise_fixpoint(
        atoms in proptest::collection::vec(atom_strategy(), 2..9),
        picks in proptest::collection::vec((0usize..16, truth_strategy()), 1..5),
    ) {
        let tree = PredicateTree::build(&or(atoms));
        let closure = Closure::new(&tree);
        let ids = tree.atom_ids();
        // The table holds exactly the non-trivial pairwise implications.
        for &src in &ids {
            for t in Truth::ALL {
                let expected: Vec<(ExprId, Truth)> = ids
                    .iter()
                    .filter(|&&dst| dst != src)
                    .filter_map(|&dst| {
                        implied_truth(tree.atom(src).unwrap(), t, tree.atom(dst).unwrap())
                            .map(|i| (dst, i))
                    })
                    .collect();
                prop_assert_eq!(closure.implications(src, t), &expected[..]);
            }
        }
        // Assignments may also name inner nodes, which carry no edges.
        let nodes: Vec<ExprId> = (0..tree.len() as u32).map(ExprId).collect();
        let start: BTreeMap<ExprId, Truth> =
            picks.iter().map(|&(i, t)| (nodes[i % nodes.len()], t)).collect();
        let mut slots = vec![None; tree.len()];
        for (&id, &t) in &start {
            slots[id.index()] = Some(t);
        }
        let mut want = start;
        let ok_got = closure.close(&mut slots);
        let ok_want = reference_close(&tree, &mut want);
        prop_assert_eq!(ok_got, ok_want);
        let got: BTreeMap<ExprId, Truth> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.map(|t| (ExprId(i as u32), t)))
            .collect();
        prop_assert_eq!(got, want);
    }
}
