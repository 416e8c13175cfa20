//! Per-operator engine state.
//!
//! Everything an operator needs at navigation time is preprocessed out of
//! the plan at engine construction, so navigation never re-inspects the
//! plan: input operator ids, variables, predicates, compiled NFAs, schema
//! sets — plus the caches §3 prescribes (groupBy's seen-groups buffer, the
//! nested-loop join's inner cache) and the materialization state of the
//! unbrowsable operators.

use crate::handle::{BHandle, VNode};
use mix_algebra::{GroupItem, PlanId, PreparedPred};
use mix_xmas::{Dfa, LabelSpec, Var};
use mix_xml::{Document, Tree};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// One materialized binding: `(variable, its value as an arena document)`.
pub(crate) type MatRow = Vec<(Var, Arc<Document>)>;

/// Values of a predicate's variables by slot ([`PreparedPred::vars`]
/// order); `None` for the slots of the other join side.
pub(crate) type PredVals = Vec<Option<Tree>>;

/// Cached inner-side entry of a nested-loop join: the binding handle plus
/// the materialized values of the predicate variables that live on the
/// inner side ("it stores the binding nodes along with the attributes that
/// participate in the join condition", §3).
pub(crate) struct JoinCacheEntry {
    pub handle: BHandle,
    pub pred_vals: PredVals,
}

/// A join's predicate with its variables sorted onto the two sides.
pub(crate) struct JoinPred {
    pub pred: PreparedPred,
    /// Per slot: does the variable live on the outer (left) side?
    pub on_left: Vec<bool>,
    /// `Some((outer slot, inner slot))` when the predicate is a single
    /// equality spanning the inputs — the hash-joinable shape.
    pub eq_slots: Option<(usize, usize)>,
}

/// Inner-side cache of a join.
#[derive(Default)]
pub(crate) struct JoinCache {
    pub entries: Vec<JoinCacheEntry>,
    /// The inner input is fully enumerated.
    pub complete: bool,
    /// Equality index: canonical inner key → entry indices (ascending).
    /// Maintained only for pure-equality predicates under
    /// `EngineConfig::hash_join`.
    pub index: HashMap<String, Vec<usize>>,
}

/// The groupBy caches (Fig. 10's buffering remark: "the mediator stores
/// the list in the buffer and uses a reference to the buffer in the
/// node-ids"). One shared scan over the input records every binding's
/// group key exactly once; groups and member navigation work off indices
/// into that scan.
#[derive(Default)]
pub(crate) struct GroupCache {
    /// Input bindings in order, each with the index (into `groups`) of
    /// its group, recorded the first time the scan passes over it.
    pub scanned: Vec<(u32, BHandle)>,
    /// The input is fully scanned.
    pub exhausted: bool,
    /// Index into `scanned` of each group's first binding, in output
    /// order — the order in which the scan meets the groups' keys.
    pub groups: Vec<usize>,
    /// Group key → group index (`G_prev` of Fig. 10); the only copy of
    /// each key.
    pub seen: HashMap<String, u32>,
}

/// Navigation-time state per plan operator.
pub(crate) enum OpState {
    Source {
        /// Index into the engine's source table.
        src: usize,
        out: Var,
    },
    GetDesc {
        input: PlanId,
        parent: Var,
        out: Var,
        dfa: Dfa,
    },
    Select {
        input: PlanId,
        pred: Arc<PreparedPred>,
    },
    Join {
        left: PlanId,
        right: PlanId,
        pred: Arc<JoinPred>,
        left_schema: Arc<HashSet<Var>>,
        cache: JoinCache,
    },
    Cross {
        left: PlanId,
        right: PlanId,
        left_schema: Arc<HashSet<Var>>,
    },
    Union {
        left: PlanId,
        right: PlanId,
    },
    Difference {
        left: PlanId,
        right: PlanId,
        schema: Vec<Var>,
        /// Canonical keys of the right side, materialized on first use.
        right_keys: Option<Arc<HashSet<String>>>,
    },
    Project {
        input: PlanId,
        keep: HashSet<Var>,
    },
    GroupBy {
        input: PlanId,
        group: Vec<Var>,
        items: Vec<GroupItem>,
        cache: GroupCache,
    },
    Concat {
        input: PlanId,
        x: Var,
        y: Var,
        out: Var,
    },
    Create {
        input: PlanId,
        label: LabelSpec,
        ch: Var,
        out: Var,
    },
    Constant {
        input: PlanId,
        doc: Arc<Document>,
        out: Var,
    },
    Wrap {
        input: PlanId,
        var: Var,
        out: Var,
    },
    OrderBy {
        input: PlanId,
        keys: Vec<Var>,
        /// Sorted input bindings, materialized on first access (the
        /// operator is unbrowsable by design).
        sorted: Option<Arc<Vec<BHandle>>>,
    },
    TupleDestroy {
        input: PlanId,
        var: Var,
        /// Resolved client root (cached after the first navigation).
        root: Option<VNode>,
    },
    Materialize {
        input: PlanId,
        /// The input schema, in order.
        schema: Vec<Var>,
        /// The fully materialized binding list (one document per value),
        /// filled on first access — the intermediate eager step.
        rows: Option<Arc<Vec<MatRow>>>,
    },
}

impl OpState {
    /// The operator's algebra name, for trace events and rollups.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            OpState::Source { .. } => "source",
            OpState::GetDesc { .. } => "getDescendants",
            OpState::Select { .. } => "select",
            OpState::Join { .. } => "join",
            OpState::Cross { .. } => "cross",
            OpState::Union { .. } => "union",
            OpState::Difference { .. } => "difference",
            OpState::Project { .. } => "project",
            OpState::GroupBy { .. } => "groupBy",
            OpState::Concat { .. } => "concatenate",
            OpState::Create { .. } => "createElement",
            OpState::Constant { .. } => "constant",
            OpState::Wrap { .. } => "wrap",
            OpState::OrderBy { .. } => "orderBy",
            OpState::TupleDestroy { .. } => "tupleDestroy",
            OpState::Materialize { .. } => "materialize",
        }
    }
}
