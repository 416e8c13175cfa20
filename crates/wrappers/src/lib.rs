//! # mix-wrappers — LXP wrappers and synthetic sources
//!
//! The MIX architecture (paper Figure 1) integrates heterogeneous sources
//! behind wrappers that export XML views: an RDB-XML wrapper, an HTML-XML
//! wrapper over Web sites, and an OODB-XML wrapper. This crate implements
//! all three against the substrates this reproduction builds from scratch:
//!
//! * [`relational`] — the relational LXP wrapper of §4 over
//!   `mix-relational`, with self-describing hole ids
//!   (`db_name.table.row_number`) and n-tuples-at-a-time granularity;
//! * [`web`] — a Web-source simulator: generated page trees served through
//!   a shared [`web::Network`] that accounts simulated per-request latency
//!   and per-byte transfer cost (the substitution for live amazon.com /
//!   barnesandnoble.com sources — see DESIGN.md);
//! * [`oodb`] — an object-graph store exported object-at-a-time, with
//!   cycle-safe reference handling;
//! * [`gen`] — deterministic workload generators: the paper's
//!   homes/schools scenario with controllable selectivity, the `allbooks`
//!   bookstore integration scenario of §1, recursive parts catalogs, and
//!   random labeled trees.

#![forbid(unsafe_code)]

pub mod gen;
pub mod oodb;
pub mod relational;
pub mod web;

pub use oodb::{ObjId, ObjectStore, OodbWrapper};
pub use relational::RelationalWrapper;
pub use web::{Network, NetworkStats, WebWrapper};
// Fault injection composes with every wrapper in this crate: re-exported
// so experiment code can write `FaultyWrapper::new(RelationalWrapper...)`
// without a direct mix-buffer dependency.
pub use mix_buffer::{FaultConfig, FaultStats, FaultyWrapper, RetryPolicy};
