#![warn(missing_docs)]

//! Pattern recycling — the contribution of *"Go Green: Recycle and Reuse
//! Frequent Patterns"* (ICDE 2004).
//!
//! The pipeline has two phases:
//!
//! 1. **Compression** ([`compress`]): pick, for every tuple, the
//!    highest-utility pattern from a previous round's `FP` that the tuple
//!    contains, and factor the tuple into `(group pattern, outlying
//!    items)`. Utilities come from [`utility`]: the cost-minimizing MCP or
//!    the storage-minimizing MLP.
//! 2. **Mining the compressed database** ([`cdb`]): projected-database
//!    miners run directly on the grouped representation, saving work in
//!    support counting (group counts stand in for per-tuple scans) and in
//!    projection construction (group heads are touched once). The
//!    [`engine`] mines it: each algorithm family (H-Mine over the
//!    RP-Struct of Figs. 4–8, FP-tree and Tree Projection of §4.2, and a
//!    vertical Eclat extension whose group runs become word-wise bitmap
//!    fills) is one generic traversal in `gogreen_miners::engine`, and
//!    [`engine::Engine`] runs it on a plain or a compressed database
//!    alike. [`rpmine::RpMine`], the paper's naive Algorithm *Recycling*
//!    (Fig. 3) with the Lemma 3.1 single-group shortcut, stays beside it
//!    as the readable reference the tests compare against.
//!
//! On top of the pipeline sit the interactive pieces the paper motivates:
//! [`session::MiningSession`] (iterative constraint refinement with
//! automatic filter-vs-recycle dispatch), [`store::PatternStore`]
//! (multi-user pattern sharing), [`incremental`] (the §2 extension to
//! changed databases), and [`twostep`] (the paper's stated future work:
//! bootstrap a single low-support request through its own high-support
//! pre-pass).
//!
//! Recycled mining is *exact*: on any database, any recycled pattern
//! set, and any new threshold, it produces the identical pattern set a
//! from-scratch run produces. The test suite enforces this
//! against the Apriori oracle.

pub mod batch;
pub mod cdb;
pub mod compress;
pub mod cover;
pub mod engine;
pub mod incremental;
pub mod memory;
pub mod rpmine;
pub mod session;
pub mod store;
pub mod twostep;
pub mod utility;

pub use batch::{BatchInput, BatchOutcome, BatchPlan, BatchQuery, BatchReport, QueryBatch};
pub use cdb::CompressedDb;
pub use compress::{CompressionStats, Compressor};
pub use cover::{CoverIndex, CoverScratch};
pub use utility::Strategy;
