//! The match cursor of the lazy `getDescendants` operator.
//!
//! `getDescendants_e,re→ch` enumerates, in document (pre-)order, the
//! descendants of `bin.e` whose root-to-node label path matches the
//! regular expression `re`. Lazily, that is a depth-first search through
//! the value tree driven by the path's lazily determinized automaton
//! ([`mix_xmas::Dfa`]), advanced one match at a time as the operator
//! above asks for the next binding.
//!
//! A [`MatchCursor`] is a *persistent snapshot* of that search: a
//! parent-linked list of `(node, automaton state)` frames from the current
//! match up to the first navigated level. A DFS step allocates one frame
//! and shares the rest of the path with the cursor it came from, so
//! earlier bindings remain fully navigable — handle persistence is what
//! lets the client "proceed from multiple nodes" (§1).

use crate::handle::VNode;
use mix_xmas::{Dfa, DfaState};
use std::sync::Arc;

/// One DFS frame: a node, the automaton state after consuming its label,
/// and the frame of its parent. `state` may be the dead state — a dead
/// branch kept only so its right siblings remain reachable.
#[derive(Debug)]
pub(crate) struct Frame {
    pub node: VNode,
    pub state: DfaState,
    pub parent: Option<Arc<Frame>>,
}

/// Persistent DFS position; no frame ⇒ the current match is the parent
/// value `e` itself (a zero-step match, possible when the path accepts
/// the empty label sequence, e.g. `part*`).
#[derive(Debug, Clone, Default)]
pub struct MatchCursor {
    pub(crate) top: Option<Arc<Frame>>,
}

impl MatchCursor {
    /// The cursor one level below `parent`, on `node`.
    pub(crate) fn push(parent: Option<Arc<Frame>>, node: VNode, state: DfaState) -> Self {
        MatchCursor { top: Some(Arc::new(Frame { node, state, parent })) }
    }

    /// The node the cursor currently designates; `root` is the parent
    /// value `e` the search started from.
    pub(crate) fn current<'a>(&'a self, root: &'a VNode) -> &'a VNode {
        self.top.as_ref().map_or(root, |f| &f.node)
    }

    /// The automaton state at the current position.
    pub(crate) fn state(&self) -> DfaState {
        self.top.as_ref().map_or(Dfa::START, |f| f.state)
    }

    /// Depth of the cursor (diagnostics).
    pub fn depth(&self) -> usize {
        std::iter::successors(self.top.as_deref(), |f| f.parent.as_deref()).count()
    }
}
