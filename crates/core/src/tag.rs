//! Tags: sets of truth assignments to predicate-tree nodes (§2.1).
//!
//! > "The tags themselves are sets of true/false assignments to
//! > arbitrarily complex predicate expressions from the query [...] Each
//! > tag may have any number of assignments, and each tuple in the
//! > corresponding relational slice must satisfy every assignment present
//! > in the associated tag."
//!
//! With the §3.4 extension, assignment values are ternary.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use basilisk_expr::{ExprId, PredicateTree};
use basilisk_types::Truth;

/// A set of `⟨expr⟩ = T/F/U` assignments, keyed by interned node id.
///
/// Stored as an immutable, shared slice sorted by id, so tags are
/// canonical and cheap to pass around: planners copy and hash the same
/// tags millions of times while costing candidate plans. Cloning is a
/// reference-count bump, hashing writes one precomputed word, and
/// equality tries pointer identity before comparing assignments.
#[derive(Clone)]
pub struct Tag {
    hash: u64,
    assignments: Arc<[(ExprId, Truth)]>,
}

impl Tag {
    /// The empty tag `{}` carried by base tagged relations.
    pub fn empty() -> Tag {
        static EMPTY: OnceLock<Tag> = OnceLock::new();
        EMPTY.get_or_init(|| Tag::from_sorted(Vec::new())).clone()
    }

    /// Wrap assignments already sorted by id without duplicates.
    fn from_sorted(assignments: Vec<(ExprId, Truth)>) -> Tag {
        debug_assert!(assignments.windows(2).all(|w| w[0].0 < w[1].0));
        // FxHash-style fold: deterministic across processes.
        let mut hash = assignments.len() as u64;
        for &(id, t) in &assignments {
            let word = (u64::from(id.0) << 2) | t as u64;
            hash = (hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
        Tag {
            hash,
            assignments: assignments.into(),
        }
    }

    /// Build from assignment pairs (later duplicates must agree).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ExprId, Truth)>) -> Tag {
        let mut v: Vec<(ExprId, Truth)> = pairs.into_iter().collect();
        // Stable sort, then keep the last pair of each id (map semantics).
        v.sort_by_key(|&(id, _)| id);
        let mut out: Vec<(ExprId, Truth)> = Vec::with_capacity(v.len());
        for p in v {
            match out.last_mut() {
                Some(last) if last.0 == p.0 => *last = p,
                _ => out.push(p),
            }
        }
        Tag::from_sorted(out)
    }

    pub fn from_map(map: &BTreeMap<ExprId, Truth>) -> Tag {
        Tag::from_sorted(map.iter().map(|(&k, &v)| (k, v)).collect())
    }

    pub fn to_map(&self) -> BTreeMap<ExprId, Truth> {
        self.assignments.iter().copied().collect()
    }

    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// The assignment for a node, if present.
    pub fn get(&self, id: ExprId) -> Option<Truth> {
        self.assignments
            .binary_search_by_key(&id, |&(k, _)| k)
            .ok()
            .map(|i| self.assignments[i].1)
    }

    pub fn contains(&self, id: ExprId) -> bool {
        self.get(id).is_some()
    }

    /// Iterate assignments in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ExprId, Truth)> + '_ {
        self.assignments.iter().copied()
    }

    /// A new tag with one more assignment (overwrites any existing one for
    /// the same node).
    pub fn with(&self, id: ExprId, truth: Truth) -> Tag {
        let mut v = self.assignments.to_vec();
        match v.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(i) => v[i].1 = truth,
            Err(i) => v.insert(i, (id, truth)),
        }
        Tag::from_sorted(v)
    }

    /// Union of two tags. Returns `None` if they assign conflicting values
    /// to the same node (an impossible combination — used by join tag-map
    /// construction to discard unsatisfiable pairings defensively).
    pub fn union(&self, other: &Tag) -> Option<Tag> {
        let (a, b) = (&self.assignments[..], &other.assignments[..]);
        let mut v = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                Ordering::Less => {
                    v.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    v.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    if a[i].1 != b[j].1 {
                        return None;
                    }
                    v.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        v.extend_from_slice(&a[i..]);
        v.extend_from_slice(&b[j..]);
        Some(Tag::from_sorted(v))
    }

    /// Render with expression text, e.g. `{t.year > 2000 = T}`.
    pub fn display(&self, tree: &PredicateTree) -> String {
        let mut s = String::from("{");
        for (i, (id, t)) in self.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&tree.display(id));
            s.push_str(" = ");
            s.push(t.code());
        }
        s.push('}');
        s
    }
}

impl Default for Tag {
    fn default() -> Tag {
        Tag::empty()
    }
}

impl PartialEq for Tag {
    fn eq(&self, other: &Tag) -> bool {
        self.hash == other.hash
            && (Arc::ptr_eq(&self.assignments, &other.assignments)
                || self.assignments == other.assignments)
    }
}

impl Eq for Tag {}

impl Hash for Tag {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// Lexicographic over the id-sorted assignments.
impl Ord for Tag {
    fn cmp(&self, other: &Tag) -> Ordering {
        self.assignments.cmp(&other.assignments)
    }
}

impl PartialOrd for Tag {
    fn partial_cmp(&self, other: &Tag) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tag")
            .field("assignments", &&self.assignments[..])
            .finish()
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (id, t)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}={t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basilisk_expr::{col, or, PredicateTree};

    #[test]
    fn canonical_ordering_and_equality() {
        let a = Tag::from_pairs([(ExprId(3), Truth::True), (ExprId(1), Truth::False)]);
        let b = Tag::from_pairs([(ExprId(1), Truth::False), (ExprId(3), Truth::True)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(ExprId(1)), Some(Truth::False));
        assert_eq!(a.get(ExprId(2)), None);
        assert!(a.contains(ExprId(3)));
        let ids: Vec<_> = a.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![ExprId(1), ExprId(3)]);
    }

    #[test]
    fn empty_tag() {
        let t = Tag::empty();
        assert!(t.is_empty());
        assert_eq!(t.to_string(), "{}");
        assert_eq!(t, Tag::from_pairs([]));
    }

    #[test]
    fn with_and_union() {
        let a = Tag::from_pairs([(ExprId(0), Truth::True)]);
        let b = a.with(ExprId(1), Truth::False);
        assert_eq!(b.len(), 2);
        assert_eq!(a.len(), 1, "with() does not mutate");

        let c = Tag::from_pairs([(ExprId(1), Truth::False), (ExprId(2), Truth::Unknown)]);
        let u = b.union(&c).unwrap();
        assert_eq!(u.len(), 3);

        let conflict = Tag::from_pairs([(ExprId(0), Truth::False)]);
        assert_eq!(a.union(&conflict), None);
    }

    #[test]
    fn display_with_tree() {
        let e = or(vec![
            col("t", "year").gt(2000i64),
            col("t", "year").gt(1980i64),
        ]);
        let tree = PredicateTree::build(&e);
        let a2000 = tree
            .atom_ids()
            .into_iter()
            .find(|&id| tree.display(id) == "t.year > 2000")
            .unwrap();
        let tag = Tag::from_pairs([(a2000, Truth::True)]);
        assert_eq!(tag.display(&tree), "{t.year > 2000 = T}");
    }

    #[test]
    fn hashable_as_key() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        m.insert(Tag::from_pairs([(ExprId(1), Truth::True)]), 7);
        assert_eq!(
            m.get(&Tag::from_pairs([(ExprId(1), Truth::True)])),
            Some(&7)
        );
    }
}
