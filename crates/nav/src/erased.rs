//! Type erasure for heterogeneous sources.
//!
//! The mediator integrates sources of different kinds behind one plan
//! (Figure 1: RDB, Web sites, OODB). Each wrapper has its own handle type,
//! so the engine talks to sources through the object-safe [`DynNavigator`]
//! trait whose [`DynHandle`] is a plain `Copy` word: the source's own node
//! index plus a tag naming the handle type (§4: a source node-id is the
//! buffer's pointer into its open tree). [`erase`] adapts any
//! [`Navigator`] whose handles are [`WordHandle`]s.

use crate::pred::LabelPred;
use crate::Navigator;
use mix_xml::{Label, NodeId};

/// The handle types an erased navigator can carry. The tag travels in
/// every [`DynHandle`], so a handle given to a navigator of another type
/// is caught rather than misread as one of its own indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HandleKind {
    /// A node of a materialized document (`mix_xml::NodeId`).
    Doc,
    /// A node of a buffer's open tree (`mix_buffer::BufNodeId`).
    Buffer,
    /// A node of a lower mediator's virtual answer (`mix_core::VNode`).
    Mediator,
}

/// A source handle that erases to one `u32` word.
///
/// Document and buffer node-ids are indices already, so they convert with
/// no storage (`Arena = ()`). A handle that is not an index keeps its
/// values in the erased navigator's arena and erases to a position in it.
pub trait WordHandle: Clone + Send + 'static {
    /// The tag its erased handles carry.
    const KIND: HandleKind;
    /// Per-navigator storage behind the words.
    type Arena: Default + Send;
    /// The word that stands for `self`.
    fn into_word(self, arena: &mut Self::Arena) -> u32;
    /// The handle a word made by [`into_word`](Self::into_word) stands for.
    fn from_word(word: u32, arena: &Self::Arena) -> Self;
}

impl WordHandle for NodeId {
    const KIND: HandleKind = HandleKind::Doc;
    type Arena = ();

    fn into_word(self, _: &mut ()) -> u32 {
        self.index() as u32
    }

    fn from_word(word: u32, _: &()) -> Self {
        NodeId::from_index(word as usize)
    }
}

/// A type-erased node handle: a tagged `u32` word. Copying it is free and
/// it is `Send + Sync`, so handles may cross thread boundaries (prefetch
/// workers, parallel per-source exchanges).
#[derive(Clone, Copy)]
pub struct DynHandle {
    kind: HandleKind,
    word: u32,
}

impl std::fmt::Debug for DynHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}#{}", self.kind, self.word)
    }
}

/// Object-safe variant of [`Navigator`] used for plan leaves.
///
/// `Send` is required so erased sources can be owned by a shared
/// registry and driven from worker threads (behind a lock).
pub trait DynNavigator: Send {
    /// `root` — see [`Navigator::root`].
    fn root(&mut self) -> DynHandle;
    /// `d(p)` — see [`Navigator::down`].
    fn down(&mut self, p: &DynHandle) -> Option<DynHandle>;
    /// `r(p)` — see [`Navigator::right`].
    fn right(&mut self, p: &DynHandle) -> Option<DynHandle>;
    /// `f(p)` — see [`Navigator::fetch`].
    fn fetch(&mut self, p: &DynHandle) -> Label;
    /// `select_φ(p)` — see [`Navigator::select`].
    fn select(&mut self, p: &DynHandle, pred: &LabelPred) -> Option<DynHandle>;
}

struct Erased<N: Navigator>
where
    N::Handle: WordHandle,
{
    nav: N,
    arena: <N::Handle as WordHandle>::Arena,
}

impl<N> Erased<N>
where
    N: Navigator,
    N::Handle: WordHandle,
{
    fn erase_handle(&mut self, h: N::Handle) -> DynHandle {
        DynHandle { kind: <N::Handle as WordHandle>::KIND, word: h.into_word(&mut self.arena) }
    }

    /// # Panics
    /// Panics when the handle was produced by a navigator of a different
    /// type; that is a plan-construction bug, not a data error.
    fn handle_of(&self, p: &DynHandle) -> N::Handle {
        assert!(
            p.kind == <N::Handle as WordHandle>::KIND,
            "DynHandle {p:?} used with a navigator of a different type"
        );
        N::Handle::from_word(p.word, &self.arena)
    }
}

impl<N> DynNavigator for Erased<N>
where
    N: Navigator + Send,
    N::Handle: WordHandle,
{
    fn root(&mut self) -> DynHandle {
        let h = self.nav.root();
        self.erase_handle(h)
    }

    fn down(&mut self, p: &DynHandle) -> Option<DynHandle> {
        let h = self.nav.down(&self.handle_of(p))?;
        Some(self.erase_handle(h))
    }

    fn right(&mut self, p: &DynHandle) -> Option<DynHandle> {
        let h = self.nav.right(&self.handle_of(p))?;
        Some(self.erase_handle(h))
    }

    fn fetch(&mut self, p: &DynHandle) -> Label {
        let h = self.handle_of(p);
        self.nav.fetch(&h)
    }

    fn select(&mut self, p: &DynHandle, pred: &LabelPred) -> Option<DynHandle> {
        let h = self.nav.select(&self.handle_of(p), pred)?;
        Some(self.erase_handle(h))
    }
}

/// Erase a concrete navigator into a boxed [`DynNavigator`].
pub fn erase<N>(nav: N) -> Box<dyn DynNavigator>
where
    N: Navigator + Send + 'static,
    N::Handle: WordHandle,
{
    Box::new(Erased { nav, arena: Default::default() })
}

// A boxed DynNavigator is itself a Navigator with DynHandle handles, so all
// generic utilities (materialize, explored_part, CountedNavigator) apply.
impl Navigator for dyn DynNavigator + '_ {
    type Handle = DynHandle;

    fn root(&mut self) -> DynHandle {
        DynNavigator::root(self)
    }

    fn down(&mut self, p: &DynHandle) -> Option<DynHandle> {
        DynNavigator::down(self, p)
    }

    fn right(&mut self, p: &DynHandle) -> Option<DynHandle> {
        DynNavigator::right(self, p)
    }

    fn fetch(&mut self, p: &DynHandle) -> Label {
        DynNavigator::fetch(self, p)
    }

    fn select(&mut self, p: &DynHandle, pred: &LabelPred) -> Option<DynHandle> {
        DynNavigator::select(self, p, pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::DocNavigator;
    use crate::explore::materialize;

    #[test]
    fn erased_navigation_works() {
        let mut n = erase(DocNavigator::from_term("a[b[d,e],c]"));
        let root = n.root();
        assert_eq!(n.fetch(&root), "a");
        let b = n.down(&root).unwrap();
        assert_eq!(n.fetch(&b), "b");
        let c = n.right(&b).unwrap();
        assert_eq!(n.fetch(&c), "c");
        assert!(n.right(&c).is_none());
    }

    #[test]
    fn erased_select() {
        let mut n = erase(DocNavigator::from_term("r[a,b,c]"));
        let r = n.root();
        let a = n.down(&r).unwrap();
        let c = n.select(&a, &LabelPred::equals("c")).unwrap();
        assert_eq!(n.fetch(&c), "c");
    }

    #[test]
    fn generic_utilities_apply_to_erased() {
        let mut n = erase(DocNavigator::from_term("a[b[d,e],c]"));
        let t = materialize(&mut *n);
        assert_eq!(t.to_string(), "a[b[d,e],c]");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn foreign_handle_panics() {
        let mut n = erase(DocNavigator::from_term("a"));
        let foreign = DynHandle { kind: HandleKind::Mediator, word: 0 };
        let _ = n.down(&foreign);
    }

    #[test]
    fn handles_are_tagged_words() {
        let mut n = erase(DocNavigator::from_term("a[b,c]"));
        let root = n.root();
        let c = n.down(&root).and_then(|b| n.right(&b)).unwrap();
        assert_eq!(format!("{c:?}"), "Doc#2");
        assert_eq!(std::mem::size_of::<DynHandle>(), 8);
    }
}
