//! The inter-operator interface: enumerating bindings and jumping to
//! attribute values.
//!
//! Between lazy mediators, navigation happens at the *binding* level
//! (`first_binding` / `next_binding`) plus direct attribute jumps (`attr`)
//! — the `b.H`, `b.LSs` commands of the paper's Appendix A, which avoid
//! walking the `bs`/`b` spine of the binding-list tree. Only above the
//! root `tupleDestroy` does the engine expose plain DOM-VXD.
//!
//! Every function here is *persistent* over handles: computing the next
//! binding never invalidates earlier ones.

use crate::handle::{BData, BHandle, VData, VKind, VNode};
use crate::matchcur::MatchCursor;
use crate::ops::{JoinCacheEntry, JoinPred, OpState, PredVals};
use crate::Engine;
use mix_algebra::pred::value_ord;
use mix_algebra::{PlanId, PreparedPred};
use mix_buffer::TraceKind;
use mix_xmas::{Dfa, Var};
use mix_xml::Tree;
use std::sync::Arc;

/// Separator for composite group/difference keys; labels are
/// length-prefixed in canonical form, so no ambiguity arises.
const KEY_SEP: char = '\u{1f}';

/// Equality key matching `value_cmp`'s `=` semantics: numeric when the
/// content parses as an integer, textual otherwise (structural equality
/// implies text equality, so this never splits equal values).
fn eq_key(t: &Tree) -> String {
    let text = t.text_cow();
    match text.trim().parse::<i64>() {
        Ok(n) => format!("#i{n}"),
        Err(_) => format!("#s{text}"),
    }
}

impl Engine {
    /// First binding of an operator's output list.
    pub(crate) fn first_binding(&mut self, op: PlanId) -> Option<BHandle> {
        // Metrics: count the call and keep `op` on the attribution stack
        // while it (and everything it pulls from below) executes.
        let metered = self.metrics_on();
        if metered {
            self.enter_op(op);
        }
        let out = if self.trace.is_enabled() {
            let name = self.op(op).kind_name();
            self.trace.emit(None, TraceKind::OperatorIn { op: name, call: "first_binding" });
            let out = self.first_binding_inner(op);
            self.trace.emit(None, TraceKind::OperatorOut { op: name, produced: out.is_some() });
            out
        } else {
            self.first_binding_inner(op)
        };
        if metered {
            self.exit_op(op, out.is_some());
        }
        out
    }

    fn first_binding_inner(&mut self, op: PlanId) -> Option<BHandle> {
        match self.op(op) {
            OpState::Source { .. } => Some(BHandle::new(BData::Source)),
            OpState::GetDesc { input, .. } => {
                let input = *input;
                let mut ib = self.first_binding(input);
                while let Some(b) = ib {
                    if let Some(cursor) = self.gd_start(op, &b) {
                        return Some(BHandle::new(BData::GetDesc { input: b, cursor }));
                    }
                    ib = self.next_binding(input, &b);
                }
                None
            }
            OpState::Select { input, pred } => {
                let (input, pred) = (*input, pred.clone());
                let start = self.first_binding(input);
                self.select_scan(op, input, &pred, start)
            }
            OpState::Join { left, .. } => {
                let left = *left;
                let mut lb = self.first_binding(left);
                while let Some(l) = lb {
                    if let Some(pair) = self.join_scan(op, &l, 0, None) {
                        return Some(pair);
                    }
                    lb = self.next_binding(left, &l);
                }
                None
            }
            OpState::Cross { left, right, .. } => {
                let (left, right) = (*left, *right);
                let l = self.first_binding(left)?;
                let r = self.first_binding(right)?;
                Some(BHandle::new(BData::Pair { left: l, right: r, ridx: 0 }))
            }
            OpState::Union { left, right } => {
                let (left, right) = (*left, *right);
                if let Some(l) = self.first_binding(left) {
                    return Some(BHandle::new(BData::Tagged { side: 0, inner: l }));
                }
                self.first_binding(right)
                    .map(|r| BHandle::new(BData::Tagged { side: 1, inner: r }))
            }
            OpState::Difference { left, .. } => {
                let left = *left;
                let start = self.first_binding(left);
                self.difference_scan(op, left, start)
            }
            OpState::Project { input, .. }
            | OpState::Concat { input, .. }
            | OpState::Create { input, .. }
            | OpState::Constant { input, .. }
            | OpState::Wrap { input, .. } => {
                let input = *input;
                let inner = self.first_binding(input)?;
                Some(BHandle::new(BData::Through { inner }))
            }
            OpState::GroupBy { input, group, .. } => {
                let (input, empty_group) = (*input, group.is_empty());
                if empty_group {
                    // `groupBy {}` always produces exactly one output
                    // binding (possibly with empty lists) — this keeps the
                    // root element of a query alive on empty inputs.
                    if self.config.group_cache {
                        let first = self.scanned_entry(op, 0).map(|(_, h)| h);
                        let first_idx = first.as_ref().map(|_| 0);
                        return Some(BHandle::new(BData::Group { first, first_idx }));
                    }
                    let first = self.first_binding(input);
                    return Some(BHandle::new(BData::Group { first, first_idx: None }));
                }
                if self.config.group_cache {
                    self.group_at(op, 0)
                } else {
                    // Uncached: the first input binding always opens the
                    // first group.
                    let first = self.first_binding(input)?;
                    Some(BHandle::new(BData::Group { first: Some(first), first_idx: None }))
                }
            }
            OpState::OrderBy { .. } => {
                self.ensure_sorted(op);
                let OpState::OrderBy { sorted, .. } = self.op(op) else { unreachable!() };
                if sorted.as_ref().is_some_and(|s| !s.is_empty()) {
                    Some(BHandle::new(BData::Ordered { index: 0 }))
                } else {
                    None
                }
            }
            OpState::Materialize { .. } => {
                self.ensure_materialized(op);
                let OpState::Materialize { rows, .. } = self.op(op) else { unreachable!() };
                if rows.as_ref().is_some_and(|r| !r.is_empty()) {
                    Some(BHandle::new(BData::Ordered { index: 0 }))
                } else {
                    None
                }
            }
            OpState::TupleDestroy { .. } => {
                unreachable!("tupleDestroy exports a document, not bindings")
            }
        }
    }

    /// Binding after `b` in an operator's output list.
    pub(crate) fn next_binding(&mut self, op: PlanId, b: &BHandle) -> Option<BHandle> {
        let metered = self.metrics_on();
        if metered {
            self.enter_op(op);
        }
        let out = if self.trace.is_enabled() {
            let name = self.op(op).kind_name();
            self.trace.emit(None, TraceKind::OperatorIn { op: name, call: "next_binding" });
            let out = self.next_binding_inner(op, b);
            self.trace.emit(None, TraceKind::OperatorOut { op: name, produced: out.is_some() });
            out
        } else {
            self.next_binding_inner(op, b)
        };
        if metered {
            self.exit_op(op, out.is_some());
        }
        out
    }

    fn next_binding_inner(&mut self, op: PlanId, b: &BHandle) -> Option<BHandle> {
        match self.op(op) {
            OpState::Source { .. } => None,
            OpState::GetDesc { input, .. } => {
                let input = *input;
                let BData::GetDesc { input: ib, cursor } = &*b.0 else {
                    unreachable!("getDescendants handle")
                };
                // Next match within the same input binding…
                if let Some(next) = self.gd_advance(op, ib, cursor) {
                    return Some(BHandle::new(BData::GetDesc { input: ib.clone(), cursor: next }));
                }
                // …or the first match of a later input binding.
                let mut next_ib = self.next_binding(input, ib);
                while let Some(nb) = next_ib {
                    if let Some(cursor) = self.gd_start(op, &nb) {
                        return Some(BHandle::new(BData::GetDesc { input: nb, cursor }));
                    }
                    next_ib = self.next_binding(input, &nb);
                }
                None
            }
            OpState::Select { input, pred } => {
                let (input, pred) = (*input, pred.clone());
                let BData::Filtered { input: inner } = &*b.0 else {
                    unreachable!("select handle")
                };
                let start = self.next_binding(input, inner);
                self.select_scan(op, input, &pred, start)
            }
            OpState::Join { left, right, .. } => {
                let (left, right) = (*left, *right);
                let BData::Pair { left: l, right: r, ridx } = &*b.0 else {
                    unreachable!("join handle")
                };
                // Resume the inner scan past the current inner binding…
                let resume = if self.config.join_cache { None } else { Some(r) };
                if let Some(pair) = self.join_scan(op, l, ridx + 1, resume) {
                    return Some(pair);
                }
                // …then restart it for later outer bindings.
                let mut lb = self.next_binding(left, l);
                while let Some(nl) = lb {
                    if let Some(pair) = self.join_scan(op, &nl, 0, None) {
                        return Some(pair);
                    }
                    lb = self.next_binding(left, &nl);
                }
                let _ = right;
                None
            }
            OpState::Cross { left, right, .. } => {
                let (left, right) = (*left, *right);
                let BData::Pair { left: l, right: r, .. } = &*b.0 else {
                    unreachable!("cross handle")
                };
                if let Some(nr) = self.next_binding(right, r) {
                    return Some(BHandle::new(BData::Pair { left: l.clone(), right: nr, ridx: 0 }));
                }
                let nl = self.next_binding(left, l)?;
                let r0 = self.first_binding(right)?;
                Some(BHandle::new(BData::Pair { left: nl, right: r0, ridx: 0 }))
            }
            OpState::Union { left, right } => {
                let (left, right) = (*left, *right);
                let BData::Tagged { side, inner } = &*b.0 else {
                    unreachable!("union handle")
                };
                if *side == 0 {
                    if let Some(n) = self.next_binding(left, inner) {
                        return Some(BHandle::new(BData::Tagged { side: 0, inner: n }));
                    }
                    return self
                        .first_binding(right)
                        .map(|r| BHandle::new(BData::Tagged { side: 1, inner: r }));
                }
                self.next_binding(right, inner)
                    .map(|n| BHandle::new(BData::Tagged { side: 1, inner: n }))
            }
            OpState::Difference { left, .. } => {
                let left = *left;
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("difference handle")
                };
                let start = self.next_binding(left, inner);
                self.difference_scan(op, left, start)
            }
            OpState::Project { input, .. }
            | OpState::Concat { input, .. }
            | OpState::Create { input, .. }
            | OpState::Constant { input, .. }
            | OpState::Wrap { input, .. } => {
                let input = *input;
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("pass-through handle")
                };
                let n = self.next_binding(input, inner)?;
                Some(BHandle::new(BData::Through { inner: n }))
            }
            OpState::GroupBy { group, .. } => {
                if group.is_empty() {
                    return None; // the single all-in-one group
                }
                let BData::Group { first: Some(first), first_idx } = &*b.0 else {
                    unreachable!("groupBy handle")
                };
                match (self.config.group_cache, *first_idx) {
                    (true, Some(idx)) => {
                        let g = self.group_of(op, idx);
                        self.group_at(op, g as usize + 1)
                    }
                    _ => self
                        .next_group_uncached(op, first)
                        .map(|h| BHandle::new(BData::Group { first: Some(h), first_idx: None })),
                }
            }
            OpState::OrderBy { sorted, .. } => {
                let BData::Ordered { index } = &*b.0 else { unreachable!("orderBy handle") };
                let len = sorted.as_ref().map(|s| s.len()).unwrap_or(0);
                if index + 1 < len {
                    Some(BHandle::new(BData::Ordered { index: index + 1 }))
                } else {
                    None
                }
            }
            OpState::Materialize { rows, .. } => {
                let BData::Ordered { index } = &*b.0 else {
                    unreachable!("materialize handle")
                };
                let len = rows.as_ref().map(|r| r.len()).unwrap_or(0);
                if index + 1 < len {
                    Some(BHandle::new(BData::Ordered { index: index + 1 }))
                } else {
                    None
                }
            }
            OpState::TupleDestroy { .. } => {
                unreachable!("tupleDestroy exports a document, not bindings")
            }
        }
    }

    /// Jump to the value of variable `var` in binding `b` of operator
    /// `op` (Appendix A's `b.H` command).
    pub(crate) fn attr(&mut self, op: PlanId, b: &BHandle, var: &Var) -> VNode {
        self.attr_framed(op, var, |e| e.attr_inner(op, b, var))
    }

    /// Run `jump`, an attribute jump to `var` on `op`'s output. Attribute
    /// jumps keep `op` on the attribution stack (they can trigger source
    /// navigation) but are not enumeration calls, so they don't count
    /// toward calls/produced.
    fn attr_framed(
        &mut self,
        op: PlanId,
        var: &Var,
        jump: impl FnOnce(&mut Self) -> VNode,
    ) -> VNode {
        let metered = self.metrics_on();
        if metered {
            self.op_stack.push(op.index() as u32);
        }
        if self.trace.is_enabled() {
            self.trace.emit(
                None,
                TraceKind::AttrJump { op: self.op(op).kind_name(), var: var.to_string() },
            );
        }
        let out = jump(self);
        if metered {
            self.op_stack.pop();
        }
        out
    }

    fn attr_inner(&mut self, op: PlanId, b: &BHandle, var: &Var) -> VNode {
        match self.op(op) {
            OpState::Source { src, out } => {
                // The value is the source's virtual document node.
                debug_assert_eq!(var, out, "source binds exactly one variable");
                VNode(VKind::SrcDoc { src: *src })
            }
            OpState::GetDesc { input, out, .. } => {
                let (input, is_out) = (*input, var == out);
                let BData::GetDesc { input: ib, cursor } = &*b.0 else {
                    unreachable!("getDescendants handle")
                };
                if is_out {
                    let root = self.gd_parent_value(op, ib);
                    cursor.current(&root).clone()
                } else {
                    self.attr(input, ib, var)
                }
            }
            OpState::Select { input, .. } => {
                let input = *input;
                let BData::Filtered { input: inner } = &*b.0 else {
                    unreachable!("select handle")
                };
                self.attr(input, inner, var)
            }
            OpState::Join { left, right, left_schema, .. }
            | OpState::Cross { left, right, left_schema } => {
                let (left, right, on_left) = (*left, *right, left_schema.contains(var));
                let BData::Pair { left: l, right: r, .. } = &*b.0 else {
                    unreachable!("join/cross handle")
                };
                if on_left {
                    self.attr(left, l, var)
                } else {
                    self.attr(right, r, var)
                }
            }
            OpState::Union { left, right } => {
                let (left, right) = (*left, *right);
                let BData::Tagged { side, inner } = &*b.0 else {
                    unreachable!("union handle")
                };
                self.attr(if *side == 0 { left } else { right }, inner, var)
            }
            OpState::Difference { left, .. } => {
                let left = *left;
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("difference handle")
                };
                self.attr(left, inner, var)
            }
            OpState::Project { input, keep } => {
                assert!(keep.contains(var), "projected-away variable {var}");
                let input = *input;
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("project handle")
                };
                self.attr(input, inner, var)
            }
            OpState::GroupBy { input, items, .. } => {
                let input = *input;
                if let Some(pos) = items.iter().position(|it| it.out == *var) {
                    return VNode::new(VData::GroupList { op, gb: b.clone(), item: pos });
                }
                let BData::Group { first, .. } = &*b.0 else {
                    unreachable!("groupBy handle")
                };
                let first = first
                    .as_ref()
                    .expect("group variables exist only when groups are non-synthetic");
                self.attr(input, first, var)
            }
            OpState::Concat { input, out, .. } => {
                let input = *input;
                if var == out {
                    return VNode::new(VData::ConcatList { op, b: b.clone() });
                }
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("concatenate handle")
                };
                self.attr(input, inner, var)
            }
            OpState::Create { input, out, .. } => {
                let input = *input;
                if var == out {
                    return VNode::new(VData::Created { op, b: b.clone() });
                }
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("createElement handle")
                };
                self.attr(input, inner, var)
            }
            OpState::Constant { input, doc, out } => {
                let input = *input;
                if var == out {
                    let doc = doc.clone();
                    let root = doc.root();
                    return VNode::new(VData::Const { doc, node: root });
                }
                let BData::Through { inner } = &*b.0 else {
                    unreachable!("constant handle")
                };
                self.attr(input, inner, var)
            }
            OpState::Wrap { input, var: wrapped, out } => {
                let (input, wrapped) = (*input, wrapped.clone());
                let BData::Through { inner } = &*b.0 else { unreachable!("wrap handle") };
                if var == out {
                    // `wrap` yields the value itself when it is already a
                    // list, else the synthesized singleton list.
                    let value = self.attr(input, inner, &wrapped);
                    if self.val_fetch(&value) == mix_xml::Label::list() {
                        return value;
                    }
                    return VNode::new(VData::WrapList { op, b: b.clone() });
                }
                self.attr(input, inner, var)
            }
            OpState::OrderBy { input, sorted, .. } => {
                let input = *input;
                let BData::Ordered { index } = &*b.0 else { unreachable!("orderBy handle") };
                let inner = sorted
                    .as_ref()
                    .expect("orderBy materialized before binding handles exist")[*index]
                    .clone();
                self.attr(input, &inner, var)
            }
            OpState::Materialize { rows, .. } => {
                let BData::Ordered { index } = &*b.0 else {
                    unreachable!("materialize handle")
                };
                let row = &rows.as_ref().expect("materialized before handles exist")[*index];
                let doc = row
                    .iter()
                    .find(|(v, _)| v == var)
                    .map(|(_, d)| d.clone())
                    .expect("validated plans bind every used variable");
                let root = doc.root();
                VNode::new(VData::Const { doc, node: root })
            }
            OpState::TupleDestroy { .. } => {
                unreachable!("tupleDestroy exports a document, not bindings")
            }
        }
    }

    /// Pull the complete input of an intermediate eager step into memory
    /// (one arena document per value), so everything above navigates
    /// without further source access.
    fn ensure_materialized(&mut self, op: PlanId) {
        let OpState::Materialize { input, schema, rows } = self.op(op) else {
            unreachable!("materialize op")
        };
        if rows.is_some() {
            return;
        }
        let (input, schema) = (*input, schema.clone());
        let mut out: Vec<crate::ops::MatRow> = Vec::new();
        let mut cur = self.first_binding(input);
        while let Some(ib) = cur {
            let mut row = Vec::with_capacity(schema.len());
            for v in &schema {
                let node = self.attr(input, &ib, v);
                let t = self.materialize_value(&node);
                row.push((v.clone(), Arc::new(mix_xml::Document::from_tree(&t))));
            }
            out.push(row);
            cur = self.next_binding(input, &ib);
        }
        let OpState::Materialize { rows, .. } = self.op_mut(op) else { unreachable!() };
        *rows = Some(Arc::new(out));
    }

    // ---- select ---------------------------------------------------------

    /// Scan input bindings from `start` until the predicate holds.
    fn select_scan(
        &mut self,
        op: PlanId,
        input: PlanId,
        pred: &PreparedPred,
        start: Option<BHandle>,
    ) -> Option<BHandle> {
        let mut cur = start;
        while let Some(ib) = cur {
            if self.eval_pred(op, input, &ib, pred) {
                return Some(BHandle::new(BData::Filtered { input: ib }));
            }
            cur = self.next_binding(input, &ib);
        }
        None
    }

    /// Evaluate select `op`'s predicate on input binding `ib`, materializing
    /// the values of its variables through attribute jumps. Each jump runs
    /// as a jump on the select's own candidate binding — `op` stays on the
    /// attribution stack — but the candidate's handle is only allocated
    /// once the predicate holds.
    fn eval_pred(
        &mut self,
        op: PlanId,
        input: PlanId,
        ib: &BHandle,
        pred: &PreparedPred,
    ) -> bool {
        let mut vals = Vec::with_capacity(pred.vars().len());
        for v in pred.vars() {
            let node = self.attr_framed(op, v, |e| e.attr(input, ib, v));
            vals.push(self.materialize_value(&node));
        }
        pred.eval(&|i| vals.get(i))
    }

    // ---- join -----------------------------------------------------------

    /// Materialize the join predicate's values for binding `b` of input
    /// `side`: the outer side's slots when `outer`, else the inner side's.
    /// The other side's slots stay `None`.
    fn join_side_values(
        &mut self,
        side: PlanId,
        b: &BHandle,
        jp: &JoinPred,
        outer: bool,
    ) -> PredVals {
        let mut vals = Vec::with_capacity(jp.on_left.len());
        for (v, &on_left) in jp.pred.vars().iter().zip(&jp.on_left) {
            vals.push((on_left == outer).then(|| {
                let node = self.attr(side, b, v);
                self.materialize_value(&node)
            }));
        }
        vals
    }

    /// Find the next inner binding (at cache index ≥ `from_idx`, or — in
    /// uncached mode — after handle `resume`) that joins with outer
    /// binding `l`.
    fn join_scan(
        &mut self,
        op: PlanId,
        l: &BHandle,
        from_idx: usize,
        resume: Option<&BHandle>,
    ) -> Option<BHandle> {
        let OpState::Join { left, right, pred, .. } = self.op(op) else {
            unreachable!("join op")
        };
        let (left, right, jp) = (*left, *right, pred.clone());

        // Materialize the outer side's predicate values once per outer
        // binding.
        let left_vals = self.join_side_values(left, l, &jp, true);

        if self.config.join_cache {
            // Hash-join fast path: for pure equi-joins, consult the
            // equality index instead of scanning every cached entry.
            if self.config.hash_join {
                if let Some((lk, _)) = jp.eq_slots {
                    let key = eq_key(left_vals[lk].as_ref().expect("outer key materialized above"));
                    return self.join_scan_hashed(op, l, from_idx, &key);
                }
            }
            let mut idx = from_idx;
            while self.join_cache_fill(op, idx) {
                let OpState::Join { cache, .. } = self.op(op) else { unreachable!() };
                let entry = &cache.entries[idx];
                let rv = &entry.pred_vals;
                if jp.pred.eval(&|i| left_vals[i].as_ref().or(rv[i].as_ref())) {
                    return Some(BHandle::new(BData::Pair {
                        left: l.clone(),
                        right: entry.handle.clone(),
                        ridx: idx,
                    }));
                }
                idx += 1;
            }
            None
        } else {
            let mut cur = match resume {
                Some(r) => self.next_binding(right, r),
                None => self.first_binding(right),
            };
            while let Some(r) = cur {
                let right_vals = self.join_side_values(right, &r, &jp, false);
                if jp.pred.eval(&|i| left_vals[i].as_ref().or(right_vals[i].as_ref())) {
                    return Some(BHandle::new(BData::Pair {
                        left: l.clone(),
                        right: r,
                        ridx: 0,
                    }));
                }
                cur = self.next_binding(right, &r);
            }
            None
        }
    }

    /// Equality-indexed variant of the inner scan: the next cached entry
    /// with canonical inner key `key` at index ≥ `from_idx`, extending the
    /// cache (and its index) until found or the inner input is exhausted.
    fn join_scan_hashed(
        &mut self,
        op: PlanId,
        l: &BHandle,
        from_idx: usize,
        key: &str,
    ) -> Option<BHandle> {
        loop {
            let OpState::Join { cache, .. } = self.op(op) else { unreachable!() };
            if let Some(hits) = cache.index.get(key) {
                // Entries are appended in order, so the list is sorted;
                // find the first hit at index ≥ from_idx.
                let p = hits.binary_search(&from_idx).unwrap_or_else(|p| p);
                if let Some(&idx) = hits.get(p) {
                    let h = cache.entries[idx].handle.clone();
                    return Some(BHandle::new(BData::Pair {
                        left: l.clone(),
                        right: h,
                        ridx: idx,
                    }));
                }
            }
            if cache.complete {
                return None;
            }
            // Pull one more inner entry into the cache+index and retry.
            let next_idx = cache.entries.len();
            self.join_cache_fill(op, next_idx);
        }
    }

    /// Make sure the inner cache holds entry `idx` — an inner binding with
    /// its predicate values — pulling inner bindings as needed; `false`
    /// when the inner input ends first.
    fn join_cache_fill(&mut self, op: PlanId, idx: usize) -> bool {
        loop {
            let OpState::Join { cache, right, pred, .. } = self.op(op) else {
                unreachable!("join op")
            };
            if idx < cache.entries.len() {
                return true;
            }
            if cache.complete {
                return false;
            }
            let (right, jp) = (*right, pred.clone());
            let last = cache.entries.last().map(|e| e.handle.clone());
            // Pull one more inner binding.
            let next = match &last {
                Some(h) => self.next_binding(right, h),
                None => self.first_binding(right),
            };
            let Some(h) = next else {
                let OpState::Join { cache, .. } = self.op_mut(op) else { unreachable!() };
                cache.complete = true;
                return false;
            };
            let vals = self.join_side_values(right, &h, &jp, false);
            let index_key = jp.eq_slots.and_then(|(_, rk)| vals[rk].as_ref()).map(eq_key);
            let OpState::Join { cache, .. } = self.op_mut(op) else { unreachable!() };
            let idx = cache.entries.len();
            if let Some(k) = index_key {
                cache.index.entry(k).or_default().push(idx);
            }
            cache.entries.push(JoinCacheEntry { handle: h, pred_vals: vals });
        }
    }

    // ---- difference -------------------------------------------------------

    /// Composite key of a binding over the given variables.
    fn binding_key(&mut self, op: PlanId, b: &BHandle, vars: &[Var]) -> String {
        let mut key = String::new();
        for v in vars {
            let node = self.attr(op, b, v);
            let t = self.materialize_value(&node);
            t.canonical_into(&mut key);
            key.push(KEY_SEP);
        }
        key
    }

    fn difference_scan(
        &mut self,
        op: PlanId,
        left: PlanId,
        start: Option<BHandle>,
    ) -> Option<BHandle> {
        // Materialize the right side's keys once (the operator is
        // unbrowsable: Def. 2).
        let keys = {
            let OpState::Difference { right_keys, .. } = self.op(op) else {
                unreachable!("difference op")
            };
            match right_keys {
                Some(k) => k.clone(),
                None => {
                    let OpState::Difference { right, schema, .. } = self.op(op) else {
                        unreachable!()
                    };
                    let (right, schema) = (*right, schema.clone());
                    let mut set = std::collections::HashSet::new();
                    let mut cur = self.first_binding(right);
                    while let Some(rb) = cur {
                        let k = self.binding_key(right, &rb, &schema);
                        set.insert(k);
                        cur = self.next_binding(right, &rb);
                    }
                    let set = Arc::new(set);
                    let OpState::Difference { right_keys, .. } = self.op_mut(op) else {
                        unreachable!()
                    };
                    *right_keys = Some(set.clone());
                    set
                }
            }
        };
        let OpState::Difference { schema, .. } = self.op(op) else { unreachable!() };
        let schema = schema.clone();
        let mut cur = start;
        while let Some(lb) = cur {
            let k = self.binding_key(left, &lb, &schema);
            if !keys.contains(&k) {
                return Some(BHandle::new(BData::Through { inner: lb }));
            }
            cur = self.next_binding(left, &lb);
        }
        None
    }

    // ---- groupBy ----------------------------------------------------------

    /// Key of the group an input binding belongs to.
    pub(crate) fn group_key_of(&mut self, op: PlanId, ib: &BHandle) -> String {
        let OpState::GroupBy { input, group, .. } = self.op(op) else {
            unreachable!("groupBy op")
        };
        let (input, group) = (*input, group.clone());
        self.binding_key(input, ib, &group)
    }

    /// The `idx`-th entry of the groupBy's shared input scan — the index
    /// of its binding's group, and the binding — extending the scan as
    /// needed. Each binding's key is computed exactly once, when the scan
    /// passes over it, and a key seen for the first time opens the next
    /// group. Cached mode only.
    pub(crate) fn scanned_entry(&mut self, op: PlanId, idx: usize) -> Option<(u32, BHandle)> {
        loop {
            let OpState::GroupBy { input, cache, .. } = self.op(op) else {
                unreachable!("groupBy op")
            };
            let input = *input;
            if let Some((g, h)) = cache.scanned.get(idx) {
                return Some((*g, h.clone()));
            }
            if cache.exhausted {
                return None;
            }
            // Pull exactly one more input binding — never ahead of demand.
            let last = cache.scanned.last().map(|(_, h)| h.clone());
            let next = match last {
                None => self.first_binding(input),
                Some(h) => self.next_binding(input, &h),
            };
            let Some(ib) = next else {
                let OpState::GroupBy { cache, .. } = self.op_mut(op) else { unreachable!() };
                cache.exhausted = true;
                return None;
            };
            let key = self.group_key_of(op, &ib);
            let OpState::GroupBy { cache, .. } = self.op_mut(op) else { unreachable!() };
            let fresh = cache.groups.len() as u32;
            let g = *cache.seen.entry(key).or_insert(fresh);
            if g == fresh {
                cache.groups.push(cache.scanned.len());
            }
            cache.scanned.push((g, ib));
        }
    }

    /// Index of the group of the binding at scan index `idx` (already
    /// scanned). Cached mode only.
    pub(crate) fn group_of(&self, op: PlanId, idx: usize) -> u32 {
        let OpState::GroupBy { cache, .. } = self.op(op) else { unreachable!("groupBy op") };
        cache.scanned[idx].0
    }

    /// Handle of the `g`-th group, scanning the input until the scan meets
    /// its key or ends. Cached mode only.
    fn group_at(&mut self, op: PlanId, g: usize) -> Option<BHandle> {
        loop {
            let OpState::GroupBy { cache, .. } = self.op(op) else {
                unreachable!("groupBy op")
            };
            if let Some(&idx) = cache.groups.get(g) {
                return Some(BHandle::new(BData::Group {
                    first: Some(cache.scanned[idx].1.clone()),
                    first_idx: Some(idx),
                }));
            }
            let next = cache.scanned.len();
            self.scanned_entry(op, next)?;
        }
    }

    /// Next group without persistent state: rescan the input from the
    /// start, reconstructing `G_prev` (the expensive stateless variant the
    /// paper's buffering remark avoids — ablation E8).
    fn next_group_uncached(&mut self, op: PlanId, first: &BHandle) -> Option<BHandle> {
        let OpState::GroupBy { input, .. } = self.op(op) else { unreachable!() };
        let input = *input;
        let my_key = self.group_key_of(op, first);
        let mut seen = std::collections::HashSet::new();
        let mut passed = false;
        let mut cur = self.first_binding(input);
        while let Some(ib) = cur {
            let key = self.group_key_of(op, &ib);
            if passed && !seen.contains(&key) {
                return Some(ib);
            }
            if key == my_key {
                passed = true;
            }
            seen.insert(key);
            cur = self.next_binding(input, &ib);
        }
        None
    }

    /// Next input binding after scan index `ib_idx` belonging to group `g`
    /// (Fig. 10's `next(p_b, p_g)`), via the shared scan.
    pub(crate) fn next_group_member_cached(
        &mut self,
        op: PlanId,
        g: u32,
        ib_idx: usize,
    ) -> Option<(usize, BHandle)> {
        let mut idx = ib_idx + 1;
        loop {
            let (group, h) = self.scanned_entry(op, idx)?;
            if group == g {
                return Some((idx, h));
            }
            idx += 1;
        }
    }

    /// Handle-based member scan for cache-disabled mode.
    pub(crate) fn next_group_member(
        &mut self,
        op: PlanId,
        gb_key: &str,
        ib: &BHandle,
    ) -> Option<BHandle> {
        let OpState::GroupBy { input, .. } = self.op(op) else { unreachable!() };
        let input = *input;
        let mut cur = self.next_binding(input, ib);
        while let Some(nb) = cur {
            if self.group_key_of(op, &nb) == gb_key {
                return Some(nb);
            }
            cur = self.next_binding(input, &nb);
        }
        None
    }

    // ---- orderBy ----------------------------------------------------------

    /// Materialize and sort the input — the unbrowsable step.
    fn ensure_sorted(&mut self, op: PlanId) {
        let OpState::OrderBy { input, keys, sorted } = self.op(op) else {
            unreachable!("orderBy op")
        };
        if sorted.is_some() {
            return;
        }
        let (input, keys) = (*input, keys.clone());
        let mut entries: Vec<(Vec<Tree>, BHandle)> = Vec::new();
        let mut cur = self.first_binding(input);
        while let Some(ib) = cur {
            let mut kv = Vec::with_capacity(keys.len());
            for k in &keys {
                let node = self.attr(input, &ib, k);
                kv.push(self.materialize_value(&node));
            }
            entries.push((kv, ib.clone()));
            cur = self.next_binding(input, &ib);
        }
        entries.sort_by(|a, b| {
            for (x, y) in a.0.iter().zip(&b.0) {
                let ord = value_ord(x, y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        let handles: Vec<BHandle> = entries.into_iter().map(|(_, h)| h).collect();
        let OpState::OrderBy { sorted, .. } = self.op_mut(op) else { unreachable!() };
        *sorted = Some(Arc::new(handles));
    }

    // ---- getDescendants -----------------------------------------------------

    /// The parent value `bin.e` a getDescendants binding matches inside.
    pub(crate) fn gd_parent_value(&mut self, op: PlanId, ib: &BHandle) -> VNode {
        let OpState::GetDesc { input, parent, .. } = self.op(op) else {
            unreachable!("getDescendants op")
        };
        let (input, parent) = (*input, parent.clone());
        self.attr(input, ib, &parent)
    }

    /// The path automaton of getDescendants `op`.
    fn gd_dfa(&mut self, op: PlanId) -> &mut Dfa {
        let OpState::GetDesc { dfa, .. } = self.op_mut(op) else {
            unreachable!("getDescendants op")
        };
        dfa
    }

    /// Position a fresh cursor on the first match under input binding
    /// `ib`, or `None` when the subtree holds no match.
    fn gd_start(&mut self, op: PlanId, ib: &BHandle) -> Option<MatchCursor> {
        let root = self.gd_parent_value(op, ib);
        let cursor = MatchCursor::default();
        // Zero-step match: the parent itself (paths accepting ε).
        if self.gd_dfa(op).is_accepting(cursor.state()) {
            return Some(cursor);
        }
        self.gd_next_match(op, &root, &cursor)
    }

    /// Advance to the next match after `cursor` (pre-order).
    fn gd_advance(&mut self, op: PlanId, ib: &BHandle, cursor: &MatchCursor) -> Option<MatchCursor> {
        let root = self.gd_parent_value(op, ib);
        self.gd_next_match(op, &root, cursor)
    }

    /// Advance the DFS to the next accepting position strictly after
    /// `cursor`.
    fn gd_next_match(
        &mut self,
        op: PlanId,
        root: &VNode,
        cursor: &MatchCursor,
    ) -> Option<MatchCursor> {
        let mut cursor = self.gd_step(op, root, cursor)?;
        while !self.gd_dfa(op).is_accepting(cursor.state()) {
            cursor = self.gd_step(op, root, &cursor)?;
        }
        Some(cursor)
    }

    /// One pre-order step of the pruned DFS: descend when the automaton
    /// can still make progress, else move right, popping as needed. The
    /// new position shares every frame above it with `cursor`.
    fn gd_step(&mut self, op: PlanId, root: &VNode, cursor: &MatchCursor) -> Option<MatchCursor> {
        // Try to descend from the current position.
        let here = cursor.state();
        if self.gd_dfa(op).can_continue(here) {
            if let Some(child) = self.val_down(cursor.current(root)) {
                let label = self.val_fetch(&child);
                let state = self.gd_dfa(op).step(here, &label);
                return Some(MatchCursor::push(cursor.top.clone(), child, state));
            }
        }
        // Move right, popping exhausted levels. The virtual root level
        // cannot move right (matches live strictly inside `e`).
        let mut level = cursor.top.as_deref();
        while let Some(f) = level {
            let parent_state = f.parent.as_ref().map_or(Dfa::START, |p| p.state);
            // With select_φ in NC and a label-only frontier, jump straight
            // to the next sibling that can advance the automaton (§2: this
            // is what turns the Example 1 filter view bounded).
            let sib = if self.config.use_select {
                let dfa = self.gd_dfa(op);
                match dfa.can_continue(parent_state).then(|| dfa.frontier(parent_state).cloned()) {
                    Some(Some(pred)) => self.val_select(&f.node, &pred),
                    Some(None) => self.val_right(&f.node),
                    None => None, // dead frontier: nothing can advance
                }
            } else {
                self.val_right(&f.node)
            };
            if let Some(sib) = sib {
                let label = self.val_fetch(&sib);
                let state = self.gd_dfa(op).step(parent_state, &label);
                return Some(MatchCursor::push(f.parent.clone(), sib, state));
            }
            level = f.parent.as_deref();
        }
        None
    }
}
