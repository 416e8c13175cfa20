//! The recursive tree value `T = D | D[T*]`.

use crate::label::Label;
use std::borrow::Cow;
use std::fmt;

/// A labeled ordered tree (§2): either a leaf `d ∈ D` or `d[t1,…,tn]`.
///
/// A leaf is represented as a node whose child list is empty; in XML
/// parlance a leaf is either character content or an empty element — the
/// paper's abstraction does not distinguish the two and neither do we.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tree {
    label: Label,
    children: Vec<Tree>,
}

impl Tree {
    /// A leaf `d`.
    pub fn leaf(label: impl Into<Label>) -> Self {
        Tree { label: label.into(), children: Vec::new() }
    }

    /// An inner node `d[t1,…,tn]` (also fine with `n = 0`, which is a leaf).
    pub fn node(label: impl Into<Label>, children: Vec<Tree>) -> Self {
        Tree { label: label.into(), children }
    }

    /// The node's label.
    pub fn label(&self) -> &Label {
        &self.label
    }

    /// The ordered list of subtrees.
    pub fn children(&self) -> &[Tree] {
        &self.children
    }

    /// Mutable access to the child list (used by builders and by the buffer
    /// component when filling holes).
    pub fn children_mut(&mut self) -> &mut Vec<Tree> {
        &mut self.children
    }

    /// True if this node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Append a child, returning `self` for builder-style chaining.
    pub fn with_child(mut self, child: Tree) -> Self {
        self.children.push(child);
        self
    }

    /// Number of nodes in the whole tree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(Tree::size).sum::<usize>()
    }

    /// Height of the tree: a leaf has height 0.
    pub fn height(&self) -> usize {
        self.children.iter().map(|c| 1 + c.height()).max().unwrap_or(0)
    }

    /// Pre-order depth-first iterator over all nodes.
    pub fn iter_dfs(&self) -> Dfs<'_> {
        Dfs { stack: vec![self] }
    }

    /// Concatenated text of all leaf labels, in document order. The usual
    /// "string value" of an element.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    /// [`Tree::text`], borrowed when the text is a single leaf's label —
    /// a leaf, or a chain of only children ending in one (`zip[91220]`).
    /// Value comparisons read atomic content this way without copying it.
    pub fn text_cow(&self) -> Cow<'_, str> {
        let mut t = self;
        while let [only] = t.children.as_slice() {
            t = only;
        }
        if t.is_leaf() {
            Cow::Borrowed(t.label.as_str())
        } else {
            Cow::Owned(t.text())
        }
    }

    fn collect_text(&self, out: &mut String) {
        if self.is_leaf() {
            out.push_str(self.label.as_str());
        } else {
            for c in &self.children {
                c.collect_text(out);
            }
        }
    }

    /// First child with the given label, if any. Convenience for tests and
    /// examples navigating materialized results.
    pub fn child(&self, label: &str) -> Option<&Tree> {
        self.children.iter().find(|c| c.label() == label)
    }

    /// All children with the given label.
    pub fn children_labeled<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a Tree> + 'a {
        self.children.iter().filter(move |c| c.label() == label)
    }

    /// Canonical serialization: a deterministic string uniquely identifying
    /// the tree value. Used by the engine for value-based group keys
    /// (DESIGN.md substitution for the paper's lineage-based node identity).
    ///
    /// Labels are length-prefixed so no quoting/escaping ambiguity exists:
    /// `a[b,c]` canonicalizes to `1:a(1:b()1:c())`.
    pub fn canonical(&self) -> String {
        let mut out = String::with_capacity(self.size() * 8);
        self.canonical_into(&mut out);
        out
    }

    /// Append the canonical serialization to `out` — lets callers building
    /// composite keys (groupBy, difference) reuse one buffer instead of
    /// allocating an intermediate `String` per component.
    pub fn canonical_into(&self, out: &mut String) {
        use std::fmt::Write;
        let s = self.label.as_str();
        let _ = write!(out, "{}:{}(", s.len(), s);
        for c in &self.children {
            c.canonical_into(out);
        }
        out.push(')');
    }
}

/// Pre-order DFS iterator, see [`Tree::iter_dfs`].
pub struct Dfs<'a> {
    stack: Vec<&'a Tree>,
}

impl<'a> Iterator for Dfs<'a> {
    type Item = &'a Tree;

    fn next(&mut self) -> Option<&'a Tree> {
        let t = self.stack.pop()?;
        // Push children in reverse so the leftmost child pops first.
        self.stack.extend(t.children.iter().rev());
        Some(t)
    }
}

// Both Debug and Display render the paper's term syntax (`a[b,c]`).
impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::term::to_term(self))
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::term::to_term(self))
    }
}

/// Build a [`Tree`] with term-like syntax:
///
/// ```
/// use mix_xml::tree;
/// let t = tree!("home" => [tree!("addr" => [tree!("La Jolla")]),
///                          tree!("zip" => [tree!("91220")])]);
/// assert_eq!(t.to_string(), "home[addr[La Jolla],zip[91220]]");
/// ```
#[macro_export]
macro_rules! tree {
    ($label:expr) => {
        $crate::Tree::leaf($label)
    };
    ($label:expr => [ $($child:expr),* $(,)? ]) => {
        $crate::Tree::node($label, vec![ $($child),* ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        // a[b[d,e],c]  — the tree of the paper's Example 7.
        tree!("a" => [tree!("b" => [tree!("d"), tree!("e")]), tree!("c")])
    }

    #[test]
    fn leaf_and_node_basics() {
        let l = Tree::leaf("x");
        assert!(l.is_leaf());
        assert_eq!(l.label(), "x");
        assert_eq!(l.size(), 1);
        assert_eq!(l.height(), 0);

        let t = sample();
        assert!(!t.is_leaf());
        assert_eq!(t.size(), 5);
        assert_eq!(t.height(), 2);
        assert_eq!(t.children().len(), 2);
    }

    #[test]
    fn dfs_is_preorder() {
        let t = sample();
        let labels: Vec<&str> = t.iter_dfs().map(|n| n.label().as_str()).collect();
        assert_eq!(labels, ["a", "b", "d", "e", "c"]);
    }

    #[test]
    fn text_concatenates_leaves() {
        let t = tree!("home" => [
            tree!("addr" => [tree!("La Jolla")]),
            tree!("zip" => [tree!("91220")]),
        ]);
        assert_eq!(t.text(), "La Jolla91220");
        assert_eq!(t.child("zip").unwrap().text(), "91220");
        let chain = tree!("a" => [tree!("b" => [tree!("c")])]);
        for sub in [&t, t.child("zip").unwrap(), &tree!("x"), &chain] {
            assert_eq!(sub.text_cow(), sub.text());
        }
        assert!(matches!(t.child("zip").unwrap().text_cow(), Cow::Borrowed("91220")));
    }

    #[test]
    fn child_lookup() {
        let t = sample();
        assert_eq!(t.child("c").unwrap().label(), "c");
        assert!(t.child("zzz").is_none());
        assert_eq!(t.children_labeled("b").count(), 1);
    }

    #[test]
    fn canonical_distinguishes_structure() {
        // `a[bc]` vs `a[b,c]` vs `a[b[c]]` must all differ.
        let t1 = tree!("a" => [tree!("bc")]);
        let t2 = tree!("a" => [tree!("b"), tree!("c")]);
        let t3 = tree!("a" => [tree!("b" => [tree!("c")])]);
        assert_ne!(t1.canonical(), t2.canonical());
        assert_ne!(t2.canonical(), t3.canonical());
        assert_ne!(t1.canonical(), t3.canonical());
    }

    #[test]
    fn canonical_is_deterministic_and_value_based() {
        let t = sample();
        let u = sample();
        assert_eq!(t.canonical(), u.canonical());
    }

    #[test]
    fn canonical_handles_meta_characters() {
        // Labels containing the canonical syntax's own characters are safe
        // thanks to length prefixes.
        let tricky = tree!("a(1:b" => [tree!(")")]);
        let plain = tree!("a" => [tree!("1:b()")]);
        assert_ne!(tricky.canonical(), plain.canonical());
    }

    #[test]
    fn with_child_builder() {
        let t = Tree::leaf("r").with_child(Tree::leaf("x")).with_child(Tree::leaf("y"));
        assert_eq!(t.to_string(), "r[x,y]");
    }

    #[test]
    fn display_uses_term_syntax() {
        assert_eq!(sample().to_string(), "a[b[d,e],c]");
        assert_eq!(format!("{:?}", Tree::leaf("q")), "q");
    }
}
