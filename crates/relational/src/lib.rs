//! # mix-relational — in-memory relational database substrate
//!
//! The paper's relational wrapper (§4, Example 5) sits on a JDBC database
//! and translates XMAS queries into SQL, advancing a *relational cursor*
//! tuple-at-a-time. This crate is the stand-in for that database: a small
//! but real in-memory RDBMS with typed schemas, tables, scans and stateful
//! cursors — exactly the surface the LXP relational wrapper needs
//! (`mix-wrappers::relational`).
//!
//! The deliberate design constraint: the wrapper above must behave like
//! the paper's ("initiate the necessary updates to the relational cursor,
//! based on the form of the \[hole\] id"), so the API is cursor-centric.

#![forbid(unsafe_code)]

pub mod cursor;
pub mod db;
pub mod query;
pub mod table;
pub mod value;

pub use cursor::Cursor;
pub use db::Database;
pub use query::{SqlCond, SqlOp, SqlQuery};
pub use table::{Column, Row, Table, TableSchema};
pub use value::{DataType, Value};

/// Errors from schema violations and lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbError {
    /// Description of the problem.
    pub message: String,
}

impl DbError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        DbError { message: message.into() }
    }
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "database error: {}", self.message)
    }
}

impl std::error::Error for DbError {}
