//! # mix-xmas — the XMAS query language
//!
//! XMAS (*XML Matching And Structuring language*, paper §1/§3) is MIX's
//! declarative query and view-definition language, in the family of
//! XML-QL and Lorel. A query has a `CONSTRUCT` head describing how the
//! answer document is built and a `WHERE` body of *generalized path
//! expression* conditions that generate variable bindings:
//!
//! ```text
//! CONSTRUCT <answer>
//!             <med_home> $H
//!               $S {$S}
//!             </med_home> {$H}
//!           </answer> {}
//! WHERE   homesSrc homes.home $H AND $H zip._ $V1
//!   AND   schoolsSrc schools.school $S AND $S zip._ $V2
//!   AND   $V1 = $V2
//! ```
//!
//! (the paper's Figure 3, reproduced verbatim in this crate's tests).
//!
//! Unlike most contemporaries that relied on Skolem functions for grouping,
//! XMAS uses *explicit group-by* annotations (`{$H}`, `{}`), which is what
//! makes the direct translation into the XMAS algebra possible (§1).
//!
//! This crate contains the surface syntax: [`ast`], [`lexer`], [`parser`],
//! and generalized [`path`] expressions compiled to NFAs ([`nfa`]). The
//! algebra and the translation live in `mix-algebra`.

pub mod ast;
pub mod lexer;
pub mod nfa;
pub mod parser;
pub mod path;

pub use ast::{Condition, HeadElem, HeadItem, LabelSpec, Operand, Query, Var};
pub use nfa::{Dfa, DfaState, Nfa, StateSet};
pub use parser::parse_query;
pub use path::{parse_path, PathExpr};

/// Errors from XMAS parsing and analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmasError {
    /// Byte offset in the query text (when known).
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl XmasError {
    pub(crate) fn new(offset: usize, message: impl Into<String>) -> Self {
        XmasError { offset, message: message.into() }
    }
}

impl std::fmt::Display for XmasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XMAS error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmasError {}
