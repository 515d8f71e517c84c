//! # spa-store — LifeLog storage substrate
//!
//! The paper's SPA platform "exploits heterogeneous, multi-dimensional
//! and massive databases to extract, pre-process and deliver distilled
//! user LifeLogs" (§4), with WebLogs arriving at ≈50 GB/month (§5.1).
//! This crate provides the embedded storage layer that plays that role
//! in the reproduction — storage formats only:
//!
//! * [`log`] — a durable, append-only, segmented **event log** holding
//!   raw [`spa_types::LifeLogEvent`] records behind a CRC-checked binary
//!   framing ([`codec`]), with one write core behind its two appends and
//!   one frame walk ([`ReplayIter`]) for both replay and open; a
//!   truncated tail (crash during append) is reported by replay and cut
//!   off when the log is next opened;
//! * [`shard_log`] — **per-shard** event-log handles under one root
//!   directory with a manifest, backing the sharded serving platform;
//! * [`snapshot`] — versioned, checksummed, atomically written
//!   **state snapshots** covering a [`log::LogPosition`], so recovery
//!   loads a checkpoint and replays only the log tail behind it
//!   (bounded-time recovery) and covered segments can be compacted
//!   away. A platform checkpoint is the one on-disk format for a user
//!   model;
//! * [`fault`] — a deterministic **storage fault-injection** seam
//!   ([`StorageIo`]) with a seeded [`FaultPlan`], so chaos harnesses
//!   can prove the recovery machinery against torn writes, fsync
//!   failures, transient `EIO` and read-side bit rot.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod codec;
pub mod fault;
pub mod log;
pub mod shard_log;
pub mod snapshot;

pub use fault::{FaultCounts, FaultLedger, FaultPlan, FaultPlanConfig, RealIo, StorageIo};
pub use log::{
    CompactionStats, EventLog, LogPosition, LogStats, ReplayIter, TornTail, WriteFaultCounters,
};
pub use shard_log::ShardedEventLog;
pub use snapshot::{Snapshot, SnapshotBuilder};
