//! Skolem-style node-ids (paper §3, Appendix A).
//!
//! "Maintaining association tables for each operator is wasteful … the
//! node-ids directly encode the association information `a(p)`." A handle
//! is a small value whose fields are exactly the input pointers the owning
//! operator needs to continue navigation — compare Figure 9's `⟨v, p_b⟩`
//! (createElement value level) and Figure 10's `⟨LS, p_b, p_g⟩` (groupBy
//! member level). A source node-id is itself such a pointer and is held
//! inline; the synthesized ones are reference-counted.
//!
//! Handles come in two sorts:
//!
//! * [`BHandle`] — a *binding* (one `b[…]` of a binding list): the unit
//!   the inter-operator interface enumerates;
//! * [`VNode`] — a node of a *value* tree (what the client ultimately
//!   navigates).

use crate::matchcur::MatchCursor;
use mix_algebra::PlanId;
use mix_nav::{DynHandle, HandleKind, WordHandle};
use mix_xml::{Document, NodeId};
use std::sync::Arc;

/// Handle to one variable binding in an operator's output binding list.
///
/// The shape of the payload corresponds to the operator that issued it;
/// handles are persistent (cloning shares them) and never invalidated, so
/// "an incoming navigation command `c(p)` may involve any previously
/// encountered pointer `p`" (§3).
#[derive(Clone, Debug)]
pub struct BHandle(pub(crate) Arc<BData>);

impl BHandle {
    pub(crate) fn new(data: BData) -> Self {
        BHandle(Arc::new(data))
    }
}

/// Operator-specific binding associations.
#[derive(Debug)]
pub(crate) enum BData {
    /// `source`: the singleton binding `b[v[root]]`.
    Source,
    /// `getDescendants`: the input binding plus the match cursor that
    /// identifies the extracted descendant (and how to find the next one).
    GetDesc { input: BHandle, cursor: MatchCursor },
    /// `select`: a qualifying input binding, passed through.
    Filtered { input: BHandle },
    /// `join` / `cross`: the pair of input bindings. `ridx` is the inner
    /// binding's position in the join's inner cache (unused by `cross`
    /// and by cache-disabled joins).
    Pair { left: BHandle, right: BHandle, ridx: usize },
    /// `union`: a binding of one side (0 = left, 1 = right).
    Tagged { side: u8, inner: BHandle },
    /// Pass-through operators (`project`, `difference`, `concatenate`,
    /// `createElement`, `constant`, `wrap`): output bindings are 1:1 with
    /// input bindings.
    Through { inner: BHandle },
    /// `groupBy`: a group, identified by the *first* input binding with
    /// this group's key (`p_g` in Fig. 10). `first` is `None` only for the
    /// synthetic all-in-one group that `groupBy {}` produces over empty
    /// input. `first_idx` is the binding's position in the groupBy's
    /// shared input scan — the paper's "reference to the buffer" carried
    /// inside the node-id; `None` in cache-disabled mode.
    Group { first: Option<BHandle>, first_idx: Option<usize> },
    /// `orderBy`: position in the materialized sort order.
    Ordered { index: usize },
}

/// Handle to a node of a (virtual) value tree — the engine's client-facing
/// handle type.
///
/// Source node-ids are plain values, as in §4, where a source node-id is
/// the buffer's pointer into its open tree: `(source, index)` words held
/// inline, so making, copying and dropping one allocates nothing. Only the
/// node-ids that operators synthesize share their association payload
/// behind an `Arc`.
#[derive(Clone)]
pub struct VNode(pub(crate) VKind);

/// The representation of a [`VNode`].
#[derive(Clone, Debug)]
pub(crate) enum VKind {
    /// The virtual *document node* above source `src`'s root element.
    /// XMAS paths are rooted here: `homesSrc homes.home $H` consumes the
    /// root element's label (`homes`) as its first step, exactly like the
    /// tree-pattern form `<homes> … </homes> IN homesSrc` of footnote 6.
    SrcDoc { src: usize },
    /// A node inside wrapped source `src`.
    Src { src: usize, h: DynHandle },
    /// The unresolved root of the virtual answer document: handed to the
    /// client "without even accessing the sources" (§1); resolved on the
    /// first real navigation.
    ClientRoot,
    /// A node-id synthesized by an operator.
    Synth(Arc<VData>),
}

impl VNode {
    pub(crate) fn new(data: VData) -> Self {
        VNode(VKind::Synth(Arc::new(data)))
    }

    pub(crate) fn source(src: usize, h: DynHandle) -> Self {
        VNode(VKind::Src { src, h })
    }
}

impl std::fmt::Debug for VNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            VKind::Synth(data) => data.fmt(f),
            kind => kind.fmt(f),
        }
    }
}

impl WordHandle for VNode {
    const KIND: HandleKind = HandleKind::Mediator;
    /// A lower mediator's node-ids are not indices, so the upper engine's
    /// erased source keeps each one it is handed, for as long as the
    /// source is registered.
    type Arena = Vec<VNode>;

    fn into_word(self, arena: &mut Vec<VNode>) -> u32 {
        let word = u32::try_from(arena.len()).expect("fewer than 2^32 mediator node-ids");
        arena.push(self);
        word
    }

    fn from_word(word: u32, arena: &Vec<VNode>) -> Self {
        arena[word as usize].clone()
    }
}

/// The synthesized node-id payloads. Each variant records the operator it
/// belongs to plus the binding (and inner value pointers) needed to answer
/// `d`/`r`/`f` — the association information `a(p)`.
#[derive(Debug)]
pub(crate) enum VData {
    /// A node of an owned constant tree (literals in query heads).
    Const { doc: Arc<Document>, node: NodeId },
    /// A value torn from its original sibling context: `d`/`f` delegate,
    /// `r` is `⊥`. Used for singleton-list members and the client root.
    Solo { inner: VNode },
    /// The `list[v]` node synthesized by `wrap` for binding `b`.
    WrapList { op: PlanId, b: BHandle },
    /// The `list[…]` node synthesized by `concatenate` for binding `b`.
    ConcatList { op: PlanId, b: BHandle },
    /// A member of a concatenated list: `side` 0 = from `x`, 1 = from `y`;
    /// `from_list` tells whether `inner` iterates within a source list
    /// (true) or is a whole non-list value (false).
    ConcatMember { op: PlanId, b: BHandle, side: u8, from_list: bool, inner: VNode },
    /// The `list[coll]` node of groupBy item `item` for group `gb`.
    GroupList { op: PlanId, gb: BHandle, item: usize },
    /// A member of a group's list: `⟨LS, p_b, p_g⟩` of Fig. 10 — the input
    /// binding `ib` holding this value, the group `gb`, and the value
    /// node itself. `ib_idx` is `ib`'s position in the shared input scan
    /// (cache-enabled mode only).
    GroupMember {
        op: PlanId,
        gb: BHandle,
        item: usize,
        ib: BHandle,
        ib_idx: Option<usize>,
        inner: VNode,
    },
    /// The element created by `createElement` for binding `b`.
    Created { op: PlanId, b: BHandle },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_cheap_to_clone() {
        // Source and client-root node-ids are inline values: a clone is a
        // copy (`crates/bench/tests/alloc_handles.rs` pins that it
        // allocates nothing). Synthesized node-ids share one payload.
        assert!(std::mem::size_of::<VNode>() <= 16);
        let mut n = mix_nav::erase(mix_nav::DocNavigator::from_term("a"));
        let v = VNode::source(3, n.root());
        let w = v.clone();
        assert_eq!(format!("{w:?}"), "Src { src: 3, h: Doc#0 }");
        let doc = Arc::new(Document::from_tree(&mix_xml::Tree::leaf("c")));
        let v = VNode::new(VData::Const { doc, node: NodeId::ROOT });
        let w = v.clone();
        match (&v.0, &w.0) {
            (VKind::Synth(a), VKind::Synth(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("unexpected {other:?}"),
        }
        let b = BHandle::new(BData::Source);
        let c = b.clone();
        assert!(Arc::ptr_eq(&b.0, &c.0));
    }

    #[test]
    fn nesting_encodes_lineage() {
        // A groupMember-ish chain nests handles like the paper's Skolem
        // ids nest pointers.
        let src = BHandle::new(BData::Source);
        let through = BHandle::new(BData::Through { inner: src.clone() });
        let group = BHandle::new(BData::Group { first: Some(through), first_idx: Some(0) });
        match &*group.0 {
            BData::Group { first: Some(f), .. } => match &*f.0 {
                BData::Through { inner } => {
                    assert!(Arc::ptr_eq(&inner.0, &src.0));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
