//! Property tests: the Thompson NFA agrees with a naive recursive
//! matcher on random path expressions and label sequences, the
//! incremental `step` interface is consistent with whole-sequence
//! matching, and the lazily determinized DFA agrees with the NFA it was
//! built from state by state.

use mix_nav::LabelPred;
use mix_xmas::path::PathExpr;
use mix_xmas::{Dfa, DfaState, Nfa, StateSet};
use mix_xml::Label;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Ground-truth matcher by structural recursion.
fn naive_matches(e: &PathExpr, labels: &[&str]) -> bool {
    match e {
        PathExpr::Label(l) => labels.len() == 1 && labels[0] == l,
        PathExpr::Wildcard => labels.len() == 1,
        PathExpr::Seq(parts) => {
            fn seq(parts: &[PathExpr], labels: &[&str]) -> bool {
                match parts.first() {
                    None => labels.is_empty(),
                    Some(p) => (0..=labels.len()).any(|k| {
                        naive_matches(p, &labels[..k]) && seq(&parts[1..], &labels[k..])
                    }),
                }
            }
            seq(parts, labels)
        }
        PathExpr::Alt(parts) => parts.iter().any(|p| naive_matches(p, labels)),
        PathExpr::Star(inner) => {
            if labels.is_empty() {
                return true;
            }
            // Try every non-empty split of a first repetition.
            (1..=labels.len()).any(|k| {
                naive_matches(inner, &labels[..k])
                    && naive_matches(e, &labels[k..])
            })
        }
    }
}

fn arb_path() -> impl Strategy<Value = PathExpr> {
    let leaf = prop_oneof![
        prop_oneof![Just("a"), Just("b"), Just("c")]
            .prop_map(|l| PathExpr::Label(l.to_string())),
        Just(PathExpr::Wildcard),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(PathExpr::Seq),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(PathExpr::Alt),
            inner.prop_map(|e| PathExpr::Star(Box::new(e))),
        ]
    })
}

fn arb_labels() -> impl Strategy<Value = Vec<&'static str>> {
    proptest::collection::vec(prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")], 0..6)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn nfa_agrees_with_naive_matcher(e in arb_path(), labels in arb_labels()) {
        let nfa = Nfa::compile(&e);
        let owned: Vec<Label> = labels.iter().map(Label::new).collect();
        prop_assert_eq!(nfa.matches(&owned), naive_matches(&e, &labels),
            "path {} on {:?}", e, labels);
    }

    #[test]
    fn stepping_equals_whole_sequence(e in arb_path(), labels in arb_labels()) {
        let nfa = Nfa::compile(&e);
        let mut set = nfa.start_set();
        let mut alive = true;
        for l in &labels {
            set = nfa.step(&set, &Label::new(l));
            if set.is_empty() {
                alive = false;
                break;
            }
        }
        let owned: Vec<Label> = labels.iter().map(Label::new).collect();
        prop_assert_eq!(alive && nfa.is_accepting(&set), nfa.matches(&owned));
    }

    #[test]
    fn display_parse_roundtrip_preserves_semantics(e in arb_path(), labels in arb_labels()) {
        // The printed form may re-associate, so compare by behavior.
        let reparsed = mix_xmas::parse_path(&e.to_string()).expect("display parses");
        let owned: Vec<Label> = labels.iter().map(Label::new).collect();
        prop_assert_eq!(
            Nfa::compile(&e).matches(&owned),
            Nfa::compile(&reparsed).matches(&owned),
            "path {}", e
        );
    }

    #[test]
    fn dead_states_never_resurrect(e in arb_path(), labels in arb_labels()) {
        let nfa = Nfa::compile(&e);
        let mut set = nfa.start_set();
        for l in &labels {
            let next = nfa.step(&set, &Label::new(l));
            if set.is_empty() {
                prop_assert!(next.is_empty());
            }
            set = next;
        }
    }
}

/// `e` with every label renamed into a vocabulary no other case uses, so
/// the case controls which of its labels are interned.
fn rename(e: &PathExpr, suffix: &str) -> PathExpr {
    match e {
        PathExpr::Label(l) => PathExpr::Label(format!("{l}_{suffix}")),
        PathExpr::Wildcard => PathExpr::Wildcard,
        PathExpr::Seq(v) => PathExpr::Seq(v.iter().map(|p| rename(p, suffix)).collect()),
        PathExpr::Alt(v) => PathExpr::Alt(v.iter().map(|p| rename(p, suffix)).collect()),
        PathExpr::Star(p) => PathExpr::Star(Box::new(rename(p, suffix))),
    }
}

/// A label step: a word (0–2 name path labels, 3 is outside the path's
/// vocabulary) and whether the label is taken after the DFA was built.
fn arb_steps() -> impl Strategy<Value = Vec<(usize, bool)>> {
    proptest::collection::vec((0usize..4, 0usize..2).prop_map(|(w, late)| (w, late == 1)), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn lazy_dfa_agrees_with_the_nfa(e in arb_path(), steps in arb_steps()) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let suffix = format!("dfa{}", CASE.fetch_add(1, Ordering::Relaxed));
        let e = rename(&e, &suffix);
        let words: Vec<String> =
            ["a", "b", "c", "d"].iter().map(|w| format!("{w}_{suffix}")).collect();
        // Labels minted before the DFA interns the path's vocabulary are
        // uninterned; minted after, the in-vocabulary ones are interned.
        let before: Vec<Label> = words.iter().map(Label::new).collect();
        prop_assert!(before.iter().all(|l| l.symbol().is_none()));
        let nfa = Nfa::compile(&e);
        let mut dfa = Dfa::new(nfa.clone());
        let after: Vec<Label> = words.iter().map(Label::new).collect();
        // An out-of-vocabulary label that is interned nonetheless.
        let interned_oov = Label::intern(format!("oov_{suffix}"));

        let labels: Vec<Label> = steps
            .iter()
            .map(|&(word, late)| match (word, late) {
                (3, true) => interned_oov.clone(),
                (w, false) => before[w].clone(),
                (w, true) => after[w].clone(),
            })
            .collect();

        let mut set = nfa.start_set();
        let mut state = Dfa::START;
        check_state(&nfa, &dfa, &set, state)?;
        for label in &labels {
            set = nfa.step(&set, label);
            state = dfa.step(state, label);
            check_state(&nfa, &dfa, &set, state)?;
        }
        // Re-walking the same labels reuses the states and edges built.
        let built = dfa.state_count();
        let again = labels.iter().fold(Dfa::START, |s, l| dfa.step(s, l));
        prop_assert_eq!(again, state);
        prop_assert_eq!(dfa.state_count(), built);
    }
}

/// The DFA state's flags and `select_φ` frontier are those of the NFA set.
fn check_state(nfa: &Nfa, dfa: &Dfa, set: &StateSet, state: DfaState) -> Result<(), TestCaseError> {
    prop_assert_eq!(dfa.is_accepting(state), nfa.is_accepting(set));
    prop_assert_eq!(dfa.can_continue(state), nfa.can_continue(set));
    let expected = nfa.label_frontier(set).map(|labels| match labels.as_slice() {
        [one] => LabelPred::equals(one.as_str()),
        many => LabelPred::OneOf(many.iter().map(Label::new).collect()),
    });
    prop_assert_eq!(dfa.frontier(state).map(|p| &**p), expected.as_ref());
    Ok(())
}
