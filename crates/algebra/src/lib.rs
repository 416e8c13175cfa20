//! # mix-algebra — the XMAS algebra
//!
//! Each XMAS query has an equivalent XMAS algebra expression (paper §3).
//! The algebra operators input *lists of variable bindings* and produce new
//! lists of bindings; binding lists are themselves represented as trees
//! (`bs[ b[ X[x1], Y[y1] ], … ]`) to facilitate the description of
//! operators as lazy mediators.
//!
//! This crate contains the *logical* side of query processing:
//!
//! * [`plan`] — algebra plans (the trees of Figure 4),
//! * [`pred`] — predicates over bindings (join/selection conditions) and
//!   the value-comparison semantics,
//! * [`translate`](mod@translate) — the XMAS → algebra translation (the paper's
//!   *preprocessing* phase),
//! * [`rewrite`] — the *query rewriting* phase: plan rewritings that
//!   improve navigational complexity,
//! * [`browsability`] — the static classifier implementing the paper's
//!   Def. 2 taxonomy (bounded browsable / browsable / unbrowsable).
//!
//! The physical counterpart — each operator implemented as a lazy mediator
//! — lives in `mix-core`.

pub mod browsability;
pub mod compose;
pub mod plan;
pub mod pred;
pub mod rewrite;
pub mod translate;
pub mod views;

pub use browsability::{classify, Browsability, NcCapabilities};
pub use compose::compose;
pub use plan::{GroupItem, OpId, Plan, PlanId, PlanNode};
pub use pred::{BindPred, PredOperand, PreparedPred};
pub use translate::translate;
pub use views::{
    parse_view_source, view_source_name, RewriteResult, SemanticOutcome, ViewCatalog, ViewId,
    VIEW_SOURCE_PREFIX,
};

/// Errors raised while building, validating, translating, or rewriting
/// plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlgebraError {
    /// Description of the problem.
    pub message: String,
}

impl AlgebraError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        AlgebraError { message: message.into() }
    }
}

impl std::fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "algebra error: {}", self.message)
    }
}

impl std::error::Error for AlgebraError {}
