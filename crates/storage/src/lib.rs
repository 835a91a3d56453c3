#![warn(missing_docs)]

//! Disk-resident data and memory-limited mining (paper §3.3 and §5.3).
//!
//! Every byte this crate writes or reads goes through one of two
//! checksummed formats: CSR *segments* (databases, and the partitions
//! the memory-limited drivers spill) and delta-encoded *versions* of
//! compressed databases.
//!
//! * [`budget`] — the memory budget (the paper enforces 4 MiB / 8 MiB).
//! * [`crc`] — the CRC-32 every segment and version file carries.
//! * [`segment`] — immutable on-disk CSR segments with item-support
//!   sidecars and an optional group section: the out-of-core database
//!   substrate, and the format of a spilled partition.
//! * [`limited`] — memory-limited drivers for the H-Mine pair (the
//!   paper's §5.3 compares exactly H-Mine vs HM-MCP because
//!   H-Mine-style structures are the ones whose memory is reliably
//!   estimable). When the estimate exceeds the budget, Algorithm
//!   *Recycling* (paper Figure 3) *parallel-projects* the database onto
//!   its frequent items **on disk**, one segment store per item, and
//!   mines each partition independently (§3.3).
//! * [`version`] — delta-encoded persistence of compressed-database
//!   versions across incremental rounds.
//! * [`ooc`] — out-of-core mining drivers: raw engines and the
//!   segmented incremental miner over the two layers above.

pub mod budget;
pub mod crc;
pub mod limited;
pub mod ooc;
pub mod segment;
pub mod version;

pub use budget::MemoryBudget;
pub use limited::{LimitedHMine, LimitedRecycledHMine, LimitedReport};
pub use ooc::{OocMiner, SegmentedIncrementalMiner};
pub use segment::{compact, CompactReport, SegmentWriter, SegmentedDb};
pub use version::VersionStore;
