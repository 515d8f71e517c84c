//! The five workloads. Each file says why its workload exists.

pub mod campaign_offline;
pub mod engine_ingest;
pub mod engine_mixed;
pub mod engine_read;
pub mod serve_closed;
