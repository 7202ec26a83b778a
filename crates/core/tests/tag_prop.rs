//! `Tag` against a `BTreeMap` reference model: construction, lookup,
//! `with`, `union`, ordering, equality and hashing must agree with the
//! plain sorted-map semantics tags had before they became shared slices.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use basilisk_core::Tag;
use basilisk_expr::ExprId;
use basilisk_types::Truth;
use proptest::prelude::*;

type Model = BTreeMap<ExprId, Truth>;

fn truth_strategy() -> impl Strategy<Value = Truth> {
    prop_oneof![Just(Truth::True), Just(Truth::False), Just(Truth::Unknown)]
}

/// Pairs over a small id space, so duplicates and overlaps are common.
fn pairs_strategy() -> impl Strategy<Value = Vec<(ExprId, Truth)>> {
    proptest::collection::vec(((0u32..10).prop_map(ExprId), truth_strategy()), 0..8)
}

fn model_of(pairs: &[(ExprId, Truth)]) -> Model {
    pairs.iter().copied().collect()
}

fn assert_matches(tag: &Tag, model: &Model) {
    prop_assert_eq!(
        tag.iter().collect::<Vec<_>>(),
        model.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
    );
    prop_assert_eq!(tag.len(), model.len());
    prop_assert_eq!(tag.is_empty(), model.is_empty());
    prop_assert_eq!(&tag.to_map(), model);
    for id in (0..11).map(ExprId) {
        prop_assert_eq!(tag.get(id), model.get(&id).copied());
        prop_assert_eq!(tag.contains(id), model.contains_key(&id));
    }
}

fn hash_of(tag: &Tag) -> u64 {
    let mut h = DefaultHasher::new();
    tag.hash(&mut h);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_pairs_and_get_match_model(pairs in pairs_strategy()) {
        let model = model_of(&pairs);
        let tag = Tag::from_pairs(pairs.iter().copied());
        assert_matches(&tag, &model);
        prop_assert_eq!(Tag::from_map(&model), tag);
    }

    #[test]
    fn with_matches_model(pairs in pairs_strategy(), id in 0u32..10, t in truth_strategy()) {
        let tag = Tag::from_pairs(pairs.iter().copied());
        let mut model = model_of(&pairs);
        let extended = tag.with(ExprId(id), t);
        model.insert(ExprId(id), t);
        assert_matches(&extended, &model);
        // `with` never mutates the receiver.
        assert_matches(&tag, &model_of(&pairs));
    }

    #[test]
    fn union_matches_model(a in pairs_strategy(), b in pairs_strategy()) {
        let (ta, tb) = (Tag::from_pairs(a.iter().copied()), Tag::from_pairs(b.iter().copied()));
        let (ma, mb) = (model_of(&a), model_of(&b));
        let mut expected = Some(ma.clone());
        for (id, t) in &mb {
            if let Some(m) = expected.as_mut() {
                if m.insert(*id, *t).is_some_and(|prev| prev != *t) {
                    expected = None;
                }
            }
        }
        match (ta.union(&tb), expected) {
            (Some(u), Some(m)) => assert_matches(&u, &m),
            (None, None) => {}
            (got, want) => panic!("union {got:?} vs model {want:?}"),
        }
    }

    #[test]
    fn order_equality_and_hash_match_model(a in pairs_strategy(), b in pairs_strategy()) {
        let (ta, tb) = (Tag::from_pairs(a.iter().copied()), Tag::from_pairs(b.iter().copied()));
        let (ma, mb) = (model_of(&a), model_of(&b));
        let (va, vb): (Vec<_>, Vec<_>) = (ma.into_iter().collect(), mb.into_iter().collect());
        prop_assert_eq!(ta.cmp(&tb), va.cmp(&vb));
        prop_assert_eq!(ta.partial_cmp(&tb), va.partial_cmp(&vb));
        prop_assert_eq!(ta == tb, va == vb);
        if ta == tb {
            prop_assert_eq!(hash_of(&ta), hash_of(&tb));
        }
        // A rebuilt equal tag (a different allocation) hashes the same.
        let rebuilt = Tag::from_pairs(va.iter().copied());
        prop_assert_eq!(&rebuilt, &ta);
        prop_assert_eq!(hash_of(&rebuilt), hash_of(&ta));
    }
}
