//! Thompson-construction NFAs for generalized path expressions, and the
//! lazily determinized automaton the lazy `getDescendants` runs.
//!
//! The lazy `getDescendants` operator matches a path expression while
//! navigating *downwards only* (`d`/`r` commands), so it runs the
//! automaton along each root-to-node label sequence. [`StateSet`]s are
//! small sorted vectors; the typical path has a handful of states. The
//! [`Dfa`] turns each state set into a `u32` id the first time it is
//! reached, so a step over a sibling is an edge lookup instead of a new
//! state set. The eager evaluator keeps stepping the [`Nfa`] itself.

use crate::path::PathExpr;
use mix_nav::LabelPred;
use mix_xml::Label;
use std::collections::HashMap;
use std::sync::Arc;

/// A set of NFA states, kept sorted and deduplicated.
pub type StateSet = Vec<u32>;

#[derive(Debug, Clone, Default)]
struct State {
    /// ε-transitions.
    eps: Vec<u32>,
    /// Label transitions: `(test, target)`.
    trans: Vec<(StepTest, u32)>,
}

/// The test on one label step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum StepTest {
    /// Matches exactly this label.
    Label(String),
    /// `_` — matches any label.
    Any,
}

/// A compiled path-expression NFA.
#[derive(Debug, Clone)]
pub struct Nfa {
    states: Vec<State>,
    start: u32,
    accept: u32,
}

impl Nfa {
    /// Compile a path expression.
    pub fn compile(expr: &PathExpr) -> Nfa {
        let mut nfa = Nfa { states: Vec::new(), start: 0, accept: 0 };
        let start = nfa.new_state();
        let accept = nfa.new_state();
        nfa.start = start;
        nfa.accept = accept;
        nfa.build(expr, start, accept);
        nfa
    }

    fn new_state(&mut self) -> u32 {
        let id = self.states.len() as u32;
        self.states.push(State::default());
        id
    }

    fn build(&mut self, expr: &PathExpr, from: u32, to: u32) {
        match expr {
            PathExpr::Label(l) => {
                self.states[from as usize].trans.push((StepTest::Label(l.clone()), to));
            }
            PathExpr::Wildcard => {
                self.states[from as usize].trans.push((StepTest::Any, to));
            }
            PathExpr::Seq(parts) => {
                let mut cur = from;
                for (i, p) in parts.iter().enumerate() {
                    let next = if i + 1 == parts.len() { to } else { self.new_state() };
                    self.build(p, cur, next);
                    cur = next;
                }
                if parts.is_empty() {
                    self.states[from as usize].eps.push(to);
                }
            }
            PathExpr::Alt(parts) => {
                for p in parts {
                    self.build(p, from, to);
                }
            }
            PathExpr::Star(inner) => {
                let s = self.new_state();
                self.states[from as usize].eps.push(s);
                self.states[s as usize].eps.push(to);
                let t = self.new_state();
                self.build(inner, s, t);
                self.states[t as usize].eps.push(s);
            }
        }
    }

    /// The ε-closed start state set.
    pub fn start_set(&self) -> StateSet {
        let mut set = vec![self.start];
        self.close(&mut set);
        set
    }

    /// Advance a state set over one label; returns the ε-closed result
    /// (possibly empty — a dead end).
    pub fn step(&self, set: &StateSet, label: &Label) -> StateSet {
        let mut out: StateSet = Vec::new();
        for &s in set {
            for (test, target) in &self.states[s as usize].trans {
                let hit = match test {
                    StepTest::Any => true,
                    StepTest::Label(l) => label.as_str() == l,
                };
                if hit && !out.contains(target) {
                    out.push(*target);
                }
            }
        }
        self.close(&mut out);
        out.sort_unstable();
        out
    }

    /// ε-close a state set in place.
    fn close(&self, set: &mut StateSet) {
        let mut i = 0;
        while i < set.len() {
            let s = set[i];
            for &e in &self.states[s as usize].eps {
                if !set.contains(&e) {
                    set.push(e);
                }
            }
            i += 1;
        }
        set.sort_unstable();
    }

    /// True when the set contains the accepting state — the node reached by
    /// the label sequence so far is a match.
    pub fn is_accepting(&self, set: &StateSet) -> bool {
        set.binary_search(&self.accept).is_ok()
    }

    /// True when at least one transition leaves the set — descending
    /// further might still produce matches. The lazy `getDescendants`
    /// prunes its DFS on `!can_continue`.
    pub fn can_continue(&self, set: &StateSet) -> bool {
        set.iter().any(|&s| !self.states[s as usize].trans.is_empty())
    }

    /// The set of labels that can advance this state set, or `None` when a
    /// wildcard transition leaves it (any label advances). Used by the
    /// lazy `getDescendants` to translate sibling scans into `select_φ`
    /// commands when the navigation set `NC` provides them (§2).
    pub fn label_frontier(&self, set: &StateSet) -> Option<Vec<String>> {
        let mut labels: Vec<String> = Vec::new();
        for &s in set {
            for (test, _) in &self.states[s as usize].trans {
                match test {
                    StepTest::Any => return None,
                    StepTest::Label(l) => {
                        if !labels.contains(l) {
                            labels.push(l.clone());
                        }
                    }
                }
            }
        }
        Some(labels)
    }

    /// Match a complete label sequence end to end.
    pub fn matches(&self, labels: &[Label]) -> bool {
        let mut set = self.start_set();
        for l in labels {
            set = self.step(&set, l);
            if set.is_empty() {
                return false;
            }
        }
        self.is_accepting(&set)
    }

    /// Number of states (for plan cost heuristics / tests).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }
}

/// A state of a [`Dfa`].
pub type DfaState = u32;

/// Edge target not computed yet.
const UNBUILT: DfaState = DfaState::MAX;

/// A path [`Nfa`] determinized lazily: a state is an NFA state set,
/// numbered the first time a step reaches it, and an edge is computed the
/// first time it is taken. States are never removed, so an id stays valid
/// for the automaton's life and cursors can hold it.
#[derive(Debug, Clone)]
pub struct Dfa {
    nfa: Nfa,
    states: Vec<DfaNode>,
    ids: HashMap<StateSet, DfaState>,
}

#[derive(Debug, Clone)]
struct DfaNode {
    set: StateSet,
    accepting: bool,
    can_continue: bool,
    /// The `select_φ` predicate of [`Nfa::label_frontier`]; `None` when a
    /// wildcard leaves the set.
    frontier: Option<Arc<LabelPred>>,
    /// One edge per distinct test label leaving the set. The labels are
    /// query constants, interned so that comparing an interned source
    /// label with them is an integer test.
    edges: Vec<(Label, DfaState)>,
    /// The edge for every other label: only wildcard moves apply, so all
    /// such labels lead to the same set.
    other: DfaState,
}

impl Dfa {
    /// The start state: the ε-closed start set of the NFA.
    pub const START: DfaState = 0;

    /// Determinize `nfa` lazily; only the start state is built here.
    pub fn new(nfa: Nfa) -> Dfa {
        let mut dfa = Dfa { nfa, states: Vec::new(), ids: HashMap::new() };
        let start = dfa.nfa.start_set();
        dfa.state_of(start);
        dfa
    }

    fn state_of(&mut self, set: StateSet) -> DfaState {
        if let Some(&id) = self.ids.get(&set) {
            return id;
        }
        let nfa = &self.nfa;
        let mut edges: Vec<(Label, DfaState)> = Vec::new();
        let mut wildcard = false;
        for &s in &set {
            for (test, _) in &nfa.states[s as usize].trans {
                match test {
                    StepTest::Any => wildcard = true,
                    StepTest::Label(l) => {
                        if !edges.iter().any(|(e, _)| e.as_str() == l) {
                            edges.push((Label::intern(l), UNBUILT));
                        }
                    }
                }
            }
        }
        // The edge labels in `label_frontier`'s order.
        let frontier = (!wildcard).then(|| {
            Arc::new(match edges.as_slice() {
                [(one, _)] => LabelPred::Equals(one.clone()),
                many => LabelPred::OneOf(many.iter().map(|(l, _)| l.clone()).collect()),
            })
        });
        let id = DfaState::try_from(self.states.len()).expect("DFA state overflow");
        self.states.push(DfaNode {
            accepting: nfa.is_accepting(&set),
            can_continue: nfa.can_continue(&set),
            frontier,
            edges,
            other: UNBUILT,
            set: set.clone(),
        });
        self.ids.insert(set, id);
        id
    }

    /// The state reached from `s` over `label`, building it on first use.
    pub fn step(&mut self, s: DfaState, label: &Label) -> DfaState {
        let node = &self.states[s as usize];
        let edge = node.edges.iter().position(|(l, _)| l == label);
        let target = match edge {
            Some(i) => node.edges[i].1,
            None => node.other,
        };
        if target != UNBUILT {
            return target;
        }
        let set = self.nfa.step(&node.set, label);
        let target = self.state_of(set);
        let node = &mut self.states[s as usize];
        match edge {
            Some(i) => node.edges[i].1 = target,
            None => node.other = target,
        }
        target
    }

    /// [`Nfa::is_accepting`] of the state's set.
    pub fn is_accepting(&self, s: DfaState) -> bool {
        self.states[s as usize].accepting
    }

    /// [`Nfa::can_continue`] of the state's set.
    pub fn can_continue(&self, s: DfaState) -> bool {
        self.states[s as usize].can_continue
    }

    /// [`Nfa::label_frontier`] of the state's set as a ready `select_φ`
    /// predicate: `Equals` for one label, `OneOf` otherwise (empty when
    /// no transition leaves the set), `None` when a wildcard leaves it.
    pub fn frontier(&self, s: DfaState) -> Option<&Arc<LabelPred>> {
        self.states[s as usize].frontier.as_ref()
    }

    /// Number of states built so far.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::parse_path;

    fn nfa(s: &str) -> Nfa {
        Nfa::compile(&parse_path(s).unwrap())
    }

    fn labels(words: &[&str]) -> Vec<Label> {
        words.iter().map(Label::new).collect()
    }

    #[test]
    fn single_label() {
        let n = nfa("home");
        assert!(n.matches(&labels(&["home"])));
        assert!(!n.matches(&labels(&["school"])));
        assert!(!n.matches(&labels(&[])));
        assert!(!n.matches(&labels(&["home", "home"])));
    }

    #[test]
    fn sequence_matches_paper_paths() {
        let n = nfa("homes.home");
        assert!(n.matches(&labels(&["homes", "home"])));
        assert!(!n.matches(&labels(&["homes"])));
        let z = nfa("zip._");
        assert!(z.matches(&labels(&["zip", "91220"])));
        assert!(z.matches(&labels(&["zip", "anything"])));
        assert!(!z.matches(&labels(&["zap", "91220"])));
    }

    #[test]
    fn alternation() {
        let n = nfa("home|apartment");
        assert!(n.matches(&labels(&["home"])));
        assert!(n.matches(&labels(&["apartment"])));
        assert!(!n.matches(&labels(&["condo"])));
    }

    #[test]
    fn star_zero_or_more() {
        let n = nfa("section*.title");
        assert!(n.matches(&labels(&["title"])));
        assert!(n.matches(&labels(&["section", "title"])));
        assert!(n.matches(&labels(&["section", "section", "section", "title"])));
        assert!(!n.matches(&labels(&["section", "section"])));
    }

    #[test]
    fn star_of_alternation() {
        let n = nfa("(a|b)*.c");
        assert!(n.matches(&labels(&["c"])));
        assert!(n.matches(&labels(&["a", "b", "a", "c"])));
        assert!(!n.matches(&labels(&["a", "x", "c"])));
    }

    #[test]
    fn incremental_stepping_and_pruning() {
        let n = nfa("homes.home");
        let s0 = n.start_set();
        assert!(!n.is_accepting(&s0));
        assert!(n.can_continue(&s0));

        let s1 = n.step(&s0, &Label::new("homes"));
        assert!(!s1.is_empty());
        assert!(!n.is_accepting(&s1));
        assert!(n.can_continue(&s1));

        let s2 = n.step(&s1, &Label::new("home"));
        assert!(n.is_accepting(&s2));
        // Accepting state of a fixed path has no outgoing transitions:
        // DFS below the match is pruned.
        assert!(!n.can_continue(&s2));

        let dead = n.step(&s0, &Label::new("schools"));
        assert!(dead.is_empty());
    }

    #[test]
    fn recursive_path_keeps_continuing() {
        let n = nfa("part*");
        let s0 = n.start_set();
        assert!(n.is_accepting(&s0)); // zero repetitions: start matches
        let s1 = n.step(&s0, &Label::new("part"));
        assert!(n.is_accepting(&s1));
        assert!(n.can_continue(&s1)); // could descend further
    }

    #[test]
    fn dfa_states_are_built_once_and_reused() {
        let mut d = Dfa::new(nfa("homes.home"));
        assert_eq!(d.state_count(), 1, "only the start state is built up front");
        let s1 = d.step(Dfa::START, &Label::new("homes"));
        let other = d.step(Dfa::START, &Label::new("schools"));
        assert_eq!(d.state_count(), 3);
        assert_eq!(d.step(Dfa::START, &Label::new("homes")), s1);
        assert_eq!(d.step(Dfa::START, &Label::new("zzz")), other, "one edge for every other label");
        assert_eq!(d.state_count(), 3);
        let s2 = d.step(s1, &Label::new("home"));
        assert!(d.is_accepting(s2) && !d.can_continue(s2));
        assert!(!d.is_accepting(other) && !d.can_continue(other));
        assert_eq!(d.frontier(s1).map(|p| &**p), Some(&LabelPred::equals("home")));
    }

    #[test]
    fn wildcard_star_matches_everything_nonempty_or_empty() {
        let n = nfa("_*");
        assert!(n.matches(&labels(&[])));
        assert!(n.matches(&labels(&["a", "b", "c"])));
    }
}
