//! The §4.1 cost models.
//!
//! Tagged costs "are summations of the costs of individual relational
//! slices": the annotation pass simulates tag flow bottom-up through an
//! abstract plan, building every operator's tag map along the way and
//! tracking a cardinality estimate per tag. Filter cost is
//! `α Σ_{I∈M} F_P · |R[I]|`; join cost decomposes into hash build, hash
//! lookup and output-index build, with the build side chosen as the
//! cheaper of the two (footnote 4).
//!
//! Planners cost many candidate plans that differ in one filter's
//! position, so the simulation runs through a per-planning-call
//! [`SubtreeMemo`]: each distinct subtree is simulated once, and a hit
//! replays the subtree root's recorded cost increments in their original
//! order, which keeps every summed cost bit-identical to a fresh walk.
//! Only the winning candidate's [`TPlan`] is materialized, sharing the
//! builder's tag maps.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use basilisk_catalog::Estimator;
use basilisk_core::{FilterTagMap, JoinTagMap, ProjectionTags, Tag, TagMapBuilder};
use basilisk_exec::FxHashMap;
use basilisk_expr::{ExprId, PredicateTree};
use basilisk_types::{BasiliskError, Result};

use crate::aplan::APlan;
use crate::benefit::filter_cost_factor;
use crate::query::JoinCond;

/// Calibration constants of the cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Calibrates filter cost against join cost (`α`).
    pub alpha: f64,
    pub f_hash_lookup: f64,
    pub f_hash_build: f64,
    pub f_index_build: f64,
    /// Per-tuple cost of the deduplicating union (BDisj plans).
    pub f_union: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            alpha: 1.0,
            f_hash_lookup: 1.0,
            f_hash_build: 1.5,
            f_index_build: 0.5,
            f_union: 1.0,
        }
    }
}

/// A tagged physical plan: the abstract tree with a tag map attached to
/// every filter and join, plus the projection's admitted tags.
#[derive(Debug, Clone)]
pub enum TPlan {
    Scan {
        alias: String,
    },
    Filter {
        node: ExprId,
        map: Arc<FilterTagMap>,
        child: Box<TPlan>,
    },
    Join {
        cond: JoinCond,
        map: Arc<JoinTagMap>,
        left: Box<TPlan>,
        right: Box<TPlan>,
    },
}

/// The result of annotating an abstract plan for tagged execution.
#[derive(Debug, Clone)]
pub struct TaggedAnnotation {
    pub plan: TPlan,
    pub projection: ProjectionTags,
    /// Estimated total cost under the §4.1 model.
    pub cost: f64,
    /// Estimated output cardinality.
    pub out_rows: f64,
}

/// Per-tag cardinality estimates flowing along one plan edge.
type TagCards = Vec<(Tag, f64)>;

/// Annotate an abstract plan with tag maps and cost it (§4.1), with a
/// memo of its own. Planners cost through a [`TaggedCoster`] that shares
/// one memo across every candidate of a planning call.
pub fn annotate_tagged(
    plan: &APlan,
    tree: &PredicateTree,
    builder: &TagMapBuilder<'_>,
    est: &Estimator,
    cm: &CostModel,
) -> Result<TaggedAnnotation> {
    let memo = SubtreeMemo::default();
    TaggedCoster {
        tree,
        builder,
        est,
        cm,
        memo: &memo,
    }
    .annotate(plan)
}

/// One simulated operator: its output tag cardinalities, its own cost
/// increments in the order the simulation adds them, its tag map, and
/// its simulated inputs.
struct SimNode {
    /// Memo identity: equal ids mean structurally equal subtrees.
    id: u32,
    cards: TagCards,
    increments: Vec<f64>,
    op: SimOp,
}

enum SimOp {
    Scan,
    Filter(Arc<FilterTagMap>, Rc<SimNode>),
    Join(Arc<JoinTagMap>, Rc<SimNode>, Rc<SimNode>),
}

/// A filter or join, identified by its parameters and its inputs' ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum NodeKey {
    Filter(ExprId, u32),
    /// Interned join condition, left input, right input.
    Join(u32, u32, u32),
}

/// The subtree memo of one planning call.
///
/// Candidate plans of TPullup/TIterPush (and the four members of
/// TCombined) share most of their subtrees, and a subtree's simulation
/// depends only on its structure. Subtrees are hash-consed bottom-up: a
/// node's key is its operator plus its inputs' ids, so a lookup is one
/// probe per operator and nothing under a hit is re-simulated.
///
/// **Increment-replay invariant.** A hit adds the node's stored cost
/// increments to the running total one by one, in the order the original
/// simulation added them, after its inputs (post-order, exactly as an
/// unmemoized walk would). The summed cost is therefore bit-identical to
/// simulating the plan from scratch; `plan_golden` and the memo
/// differential tests pin this.
///
/// The memo must only be used with one `(tree, builder, estimator, cost
/// model)` — [`crate::planners::PlannerInput`] owns it next to them — and
/// lives exactly as long as one planning call.
#[derive(Default)]
pub(crate) struct SubtreeMemo {
    scans: RefCell<FxHashMap<String, Rc<SimNode>>>,
    conds: RefCell<FxHashMap<JoinCond, u32>>,
    ops: RefCell<FxHashMap<NodeKey, Rc<SimNode>>>,
    next_id: Cell<u32>,
}

impl SubtreeMemo {
    fn fresh_id(&self) -> u32 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    fn cond_id(&self, cond: &JoinCond) -> u32 {
        if let Some(&id) = self.conds.borrow().get(cond) {
            return id;
        }
        let id = self.fresh_id();
        self.conds.borrow_mut().insert(cond.clone(), id);
        id
    }
}

/// Accumulates per-tag cardinalities in first-appearance order.
#[derive(Default)]
struct CardAccum {
    cards: TagCards,
    index: FxHashMap<Tag, usize>,
}

impl CardAccum {
    fn push(&mut self, tag: &Tag, card: f64) {
        let i = *self.index.entry(tag.clone()).or_insert_with(|| {
            self.cards.push((tag.clone(), 0.0));
            self.cards.len() - 1
        });
        self.cards[i].1 += card;
    }
}

/// Tagged costing for one planning call: the cost-model inputs plus the
/// call's subtree memo (see [`crate::planners::PlannerInput::coster`]).
pub struct TaggedCoster<'a> {
    pub(crate) tree: &'a PredicateTree,
    pub(crate) builder: &'a TagMapBuilder<'a>,
    pub(crate) est: &'a Estimator,
    pub(crate) cm: &'a CostModel,
    pub(crate) memo: &'a SubtreeMemo,
}

impl TaggedCoster<'_> {
    /// The §4.1 cost of a plan, without materializing its [`TPlan`].
    pub fn cost(&self, plan: &APlan) -> Result<f64> {
        let mut total = 0.0;
        self.sim(plan, &mut total)?;
        Ok(total)
    }

    /// Cost a plan and materialize its tag maps and projection.
    pub fn annotate(&self, plan: &APlan) -> Result<TaggedAnnotation> {
        let mut total = 0.0;
        let node = self.sim(plan, &mut total)?;
        let tags: Vec<Tag> = node.cards.iter().map(|(t, _)| t.clone()).collect();
        let projection = self.builder.projection_tags(&tags);
        let out_rows = node
            .cards
            .iter()
            .filter(|(t, _)| projection.allowed.contains(t))
            .map(|(_, c)| c)
            .sum();
        Ok(TaggedAnnotation {
            plan: materialize(plan, &node),
            projection,
            cost: total,
            out_rows,
        })
    }

    /// Simulate `plan` bottom-up through the memo, adding every
    /// operator's cost increments to `total` in post-order.
    fn sim(&self, plan: &APlan, total: &mut f64) -> Result<Rc<SimNode>> {
        let memo = self.memo;
        let node = match plan {
            APlan::Scan { alias } => {
                let hit = memo.scans.borrow().get(alias.as_str()).cloned();
                match hit {
                    Some(node) => node,
                    None => {
                        let node = Rc::new(SimNode {
                            id: memo.fresh_id(),
                            cards: vec![(Tag::empty(), self.est.rows(alias)?)],
                            increments: Vec::new(),
                            op: SimOp::Scan,
                        });
                        memo.scans
                            .borrow_mut()
                            .insert(alias.clone(), Rc::clone(&node));
                        node
                    }
                }
            }
            APlan::Filter { node, child } => {
                let child = self.sim(child, total)?;
                let key = NodeKey::Filter(*node, child.id);
                let hit = memo.ops.borrow().get(&key).cloned();
                match hit {
                    Some(hit) => hit,
                    None => {
                        let sim = Rc::new(self.sim_filter(*node, child)?);
                        memo.ops.borrow_mut().insert(key, Rc::clone(&sim));
                        sim
                    }
                }
            }
            APlan::Join { cond, left, right } => {
                let left = self.sim(left, total)?;
                let right = self.sim(right, total)?;
                let key = NodeKey::Join(memo.cond_id(cond), left.id, right.id);
                let hit = memo.ops.borrow().get(&key).cloned();
                match hit {
                    Some(hit) => hit,
                    None => {
                        let sim = Rc::new(self.sim_join(cond, left, right)?);
                        memo.ops.borrow_mut().insert(key, Rc::clone(&sim));
                        sim
                    }
                }
            }
            APlan::Union { .. } => {
                return Err(BasiliskError::Plan(
                    "union operators do not exist under tagged execution".into(),
                ))
            }
        };
        for inc in &node.increments {
            *total += inc;
        }
        Ok(node)
    }

    fn sim_filter(&self, node: ExprId, child: Rc<SimNode>) -> Result<SimNode> {
        let in_tags: Vec<Tag> = child.cards.iter().map(|(t, _)| t.clone()).collect();
        let map = self.builder.filter_map(node, &in_tags);
        let f_p = filter_cost_factor(self.tree, node);
        let sel = self.est.node_selectivity(self.tree, node)?;

        let mut out = CardAccum::default();
        let mut increments = Vec::new();
        for (tag, card) in &child.cards {
            match map.entry_for(tag) {
                None => out.push(tag, *card),
                Some(e) => {
                    // Dead entries (no outputs) are dropped without
                    // evaluation; live entries cost α·F_P·|R[I]|.
                    if e.pos.is_some() || e.neg.is_some() || e.unk.is_some() {
                        increments.push(self.cm.alpha * f_p * card);
                    }
                    if let Some(t) = &e.pos {
                        out.push(t, card * sel);
                    }
                    if let Some(t) = &e.neg {
                        out.push(t, card * (1.0 - sel));
                    }
                    // Unknown mass is not modelled separately (the
                    // estimator has no NULL statistics for predicates,
                    // so its cardinality share is folded into the
                    // negative branch above) — but the unknown TAG
                    // must still flow downstream: join tag maps are
                    // built from this tag set, and omitting the tag
                    // would discard the whole unknown slice at the
                    // next join.
                    if let Some(t) = &e.unk {
                        out.push(t, 0.0);
                    }
                }
            }
        }
        Ok(SimNode {
            id: self.memo.fresh_id(),
            cards: out.cards,
            increments,
            op: SimOp::Filter(map, child),
        })
    }

    fn sim_join(&self, cond: &JoinCond, left: Rc<SimNode>, right: Rc<SimNode>) -> Result<SimNode> {
        let (est, cm) = (self.est, self.cm);
        let ltags: Vec<Tag> = left.cards.iter().map(|(t, _)| t.clone()).collect();
        let rtags: Vec<Tag> = right.cards.iter().map(|(t, _)| t.clone()).collect();
        let map = self.builder.join_map(&ltags, &rtags);

        let lidx: FxHashMap<&Tag, usize> = ltags.iter().enumerate().map(|(i, t)| (t, i)).collect();
        let ridx: FxHashMap<&Tag, usize> = rtags.iter().enumerate().map(|(i, t)| (t, i)).collect();

        // R'_left / R'_right: union of participating slices, summed in
        // first-appearance order of the map entries so the float result
        // does not depend on hash iteration order.
        let (mut seen_l, mut seen_r) = (vec![false; ltags.len()], vec![false; rtags.len()]);
        let (mut part_l, mut part_r) = (Vec::new(), Vec::new());
        // Output cardinalities per entry.
        let mut out = CardAccum::default();
        let mut out_total = 0.0;
        let jsel = est.join_selectivity(&cond.left, &cond.right)?;
        for e in &map.entries {
            let (l, r) = (lidx.get(&e.left), ridx.get(&e.right));
            if let Some(&i) = l {
                if !std::mem::replace(&mut seen_l[i], true) {
                    part_l.push(left.cards[i].1);
                }
            }
            if let Some(&j) = r {
                if !std::mem::replace(&mut seen_r[j], true) {
                    part_r.push(right.cards[j].1);
                }
            }
            let (Some(&i), Some(&j)) = (l, r) else {
                continue;
            };
            let c = left.cards[i].1 * right.cards[j].1 * jsel;
            out_total += c;
            out.push(&e.out, c);
        }
        let r_left: f64 = part_l.iter().sum();
        let r_right: f64 = part_r.iter().sum();

        // Build side: cheaper of the two (footnote 4).
        let unique_l = r_left.min(est.ndv(&cond.left)?);
        let unique_r = r_right.min(est.ndv(&cond.right)?);
        let build_left =
            cm.f_hash_lookup * r_left + cm.f_hash_build * unique_l + cm.f_hash_lookup * r_right;
        let build_right =
            cm.f_hash_lookup * r_right + cm.f_hash_build * unique_r + cm.f_hash_lookup * r_left;
        Ok(SimNode {
            id: self.memo.fresh_id(),
            cards: out.cards,
            increments: vec![build_left.min(build_right) + cm.f_index_build * out_total],
            op: SimOp::Join(map, left, right),
        })
    }
}

/// Build the [`TPlan`] of a simulated plan by sharing the memo's maps.
fn materialize(plan: &APlan, node: &SimNode) -> TPlan {
    match (plan, &node.op) {
        (APlan::Filter { node: id, child }, SimOp::Filter(map, sim_child)) => TPlan::Filter {
            node: *id,
            map: Arc::clone(map),
            child: Box::new(materialize(child, sim_child)),
        },
        (APlan::Join { cond, left, right }, SimOp::Join(map, sim_left, sim_right)) => TPlan::Join {
            cond: cond.clone(),
            map: Arc::clone(map),
            left: Box::new(materialize(left, sim_left)),
            right: Box::new(materialize(right, sim_right)),
        },
        (APlan::Scan { alias }, SimOp::Scan) => TPlan::Scan {
            alias: alias.clone(),
        },
        _ => unreachable!("simulation mirrors the plan's shape"),
    }
}

/// Cost a traditional plan under the same constants (single cardinality
/// per edge instead of per-slice sums).
pub fn cost_traditional(
    plan: &APlan,
    tree: &PredicateTree,
    est: &Estimator,
    cm: &CostModel,
) -> Result<f64> {
    let mut total = 0.0;
    sim_traditional(plan, tree, est, cm, &mut total)?;
    Ok(total)
}

fn sim_traditional(
    plan: &APlan,
    tree: &PredicateTree,
    est: &Estimator,
    cm: &CostModel,
    total: &mut f64,
) -> Result<f64> {
    match plan {
        APlan::Scan { alias } => est.rows(alias),
        APlan::Filter { node, child } => {
            let rows = sim_traditional(child, tree, est, cm, total)?;
            *total += cm.alpha * filter_cost_factor(tree, *node) * rows;
            Ok(rows * est.node_selectivity(tree, *node)?)
        }
        APlan::Join { cond, left, right } => {
            let l = sim_traditional(left, tree, est, cm, total)?;
            let r = sim_traditional(right, tree, est, cm, total)?;
            let jsel = est.join_selectivity(&cond.left, &cond.right)?;
            let out = l * r * jsel;
            let unique_l = l.min(est.ndv(&cond.left)?);
            let unique_r = r.min(est.ndv(&cond.right)?);
            let build_left =
                cm.f_hash_lookup * l + cm.f_hash_build * unique_l + cm.f_hash_lookup * r;
            let build_right =
                cm.f_hash_lookup * r + cm.f_hash_build * unique_r + cm.f_hash_lookup * l;
            *total += build_left.min(build_right) + cm.f_index_build * out;
            Ok(out)
        }
        APlan::Union { children } => {
            let mut sum = 0.0;
            for c in children {
                sum += sim_traditional(c, tree, est, cm, total)?;
            }
            *total += cm.f_union * sum;
            Ok(sum)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_catalog::Catalog;
    use basilisk_core::TagMapStrategy;
    use basilisk_expr::{and, col, or, ColumnRef};
    use basilisk_storage::TableBuilder;
    use basilisk_types::DataType;

    fn setup() -> (Catalog, Estimator, PredicateTree) {
        let mut cat = Catalog::new();
        let mut b = TableBuilder::new("t")
            .column("id", DataType::Int)
            .column("year", DataType::Int);
        for i in 0..100i64 {
            b.push_row(vec![i.into(), (1950 + i).into()]).unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        let mut b = TableBuilder::new("mi")
            .column("movie_id", DataType::Int)
            .column("score", DataType::Float);
        for i in 0..100i64 {
            b.push_row(vec![i.into(), ((i % 10) as f64).into()])
                .unwrap();
        }
        cat.add_table(b.finish().unwrap()).unwrap();
        let est = Estimator::new(
            &cat,
            &[("t".into(), "t".into()), ("mi".into(), "mi".into())],
        )
        .unwrap();
        let e = or(vec![
            and(vec![
                col("t", "year").gt(2000i64),
                col("mi", "score").gt(7.0),
            ]),
            and(vec![
                col("t", "year").gt(1980i64),
                col("mi", "score").gt(8.0),
            ]),
        ]);
        (cat, est, PredicateTree::build(&e))
    }

    fn find(tree: &PredicateTree, s: &str) -> ExprId {
        tree.atom_ids()
            .into_iter()
            .find(|&id| tree.display(id) == s)
            .unwrap()
    }

    fn pushdown_plan(tree: &PredicateTree) -> APlan {
        APlan::join(
            JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id")),
            APlan::filter(
                find(tree, "t.year > 1980"),
                APlan::filter(find(tree, "t.year > 2000"), APlan::scan("t")),
            ),
            APlan::filter(
                find(tree, "mi.score > 7"),
                APlan::filter(find(tree, "mi.score > 8"), APlan::scan("mi")),
            ),
        )
    }

    #[test]
    fn annotate_builds_maps_and_costs() {
        let (_cat, est, tree) = setup();
        let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let cm = CostModel::default();
        let plan = pushdown_plan(&tree);
        let ann = annotate_tagged(&plan, &tree, &builder, &est, &cm).unwrap();
        assert!(ann.cost > 0.0);
        assert!(ann.out_rows > 0.0);
        assert!(!ann.projection.allowed.is_empty());
        // The annotated plan mirrors the abstract structure.
        let TPlan::Join { map, left, .. } = &ann.plan else {
            panic!("root is a join");
        };
        assert!(!map.entries.is_empty());
        let TPlan::Filter { map: fm, .. } = &**left else {
            panic!("left child is a filter");
        };
        // The outer-left filter is year>1980 over pushdown tags.
        assert!(fm.entries().len() <= 2);
    }

    #[test]
    fn pushdown_cheaper_than_no_pushdown_for_tagged() {
        let (_cat, est, tree) = setup();
        let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        let cm = CostModel::default();
        let pushed = pushdown_plan(&tree);
        // All filters above the join.
        let mut unpushed = APlan::join(
            JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id")),
            APlan::scan("t"),
            APlan::scan("mi"),
        );
        for f in pushed.filters() {
            unpushed = APlan::filter(f, unpushed);
        }
        let a = annotate_tagged(&pushed, &tree, &builder, &est, &cm).unwrap();
        let b = annotate_tagged(&unpushed, &tree, &builder, &est, &cm).unwrap();
        assert!(
            a.cost < b.cost,
            "pushdown {:.1} should beat pullup {:.1} on this selective workload",
            a.cost,
            b.cost
        );
        // Both estimates are for the same query; they need not agree
        // exactly (the independence assumption composes differently per
        // plan shape — the paper itself observes its cost model is
        // imperfect, §5.1), but both must be positive and same order of
        // magnitude.
        assert!(a.out_rows > 0.0 && b.out_rows > 0.0);
        let ratio = a.out_rows.max(b.out_rows) / a.out_rows.min(b.out_rows);
        assert!(
            ratio < 10.0,
            "estimates differ wildly: {} vs {}",
            a.out_rows,
            b.out_rows
        );
    }

    #[test]
    fn traditional_cost_monotone_in_filters() {
        let (_cat, est, tree) = setup();
        let cm = CostModel::default();
        let join_only = APlan::join(
            JoinCond::new(ColumnRef::new("t", "id"), ColumnRef::new("mi", "movie_id")),
            APlan::scan("t"),
            APlan::scan("mi"),
        );
        let with_filter = APlan::filter(tree.root(), join_only.clone());
        let c0 = cost_traditional(&join_only, &tree, &est, &cm).unwrap();
        let c1 = cost_traditional(&with_filter, &tree, &est, &cm).unwrap();
        assert!(c1 > c0);
    }

    #[test]
    fn union_costs_per_tuple_and_rejected_in_tagged() {
        let (_cat, est, tree) = setup();
        let cm = CostModel::default();
        let u = APlan::Union {
            children: vec![APlan::scan("t"), APlan::scan("t")],
        };
        let c = cost_traditional(&u, &tree, &est, &cm).unwrap();
        assert!(c >= 200.0 * cm.f_union);
        let builder = TagMapBuilder::new(&tree, TagMapStrategy::Generalized { use_closure: true });
        assert!(annotate_tagged(&u, &tree, &builder, &est, &cm).is_err());
    }
}
