//! # mix-xml — labeled ordered trees
//!
//! The data model of the MIX mediator (Ludäscher, Papakonstantinou, Velikhov,
//! EDBT 2000, §2). XML documents are abstracted as *labeled ordered trees*
//! over a domain `D` of string-like data:
//!
//! ```text
//! T = D | D[T*]
//! ```
//!
//! A tree is either a leaf (an atomic piece of data) or a label together with
//! an ordered list of subtrees. Attributes are excluded, exactly as in the
//! paper's abstraction (its footnote 3 defers attribute handling to the
//! system description).
//!
//! This crate provides:
//!
//! * [`Label`] — cheaply clonable string labels,
//! * [`Tree`] — the owned recursive tree value,
//! * [`Document`] — a flat arena representation with stable [`NodeId`]s and
//!   `first_child` / `next_sibling` links, the natural substrate for the
//!   `d` / `r` / `f` navigation commands of DOM-VXD,
//! * parsing and printing for both the paper's *term syntax*
//!   (`a[b[d,e],c]`, used throughout the paper's examples) and a minimal
//!   XML surface syntax,
//! * canonical serialization used by the engine for value-based grouping.

#![forbid(unsafe_code)]

pub mod document;
pub mod label;
pub mod term;
pub mod tree;
pub mod xmlio;

pub use document::{Document, NodeId};
pub use label::{Label, DOC_LABEL};
pub use tree::Tree;

/// Errors produced while parsing term- or XML-syntax documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl ParseError {
    pub(crate) fn new(offset: usize, message: impl Into<String>) -> Self {
        ParseError { offset, message: message.into() }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}
