//! The repository's one benchmark.
//!
//! Five workloads, five end-to-end metrics reported by each of them,
//! and — in a traced run — spans around every call into a layer's
//! public functions plus a fixed set of per-layer probes. The product
//! is reached through its public API only; no product file knows the
//! benchmark exists. `README.md` beside this crate defines every metric
//! and says why each workload is there.

pub mod fixture;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use runner::{run, RunConfig, RunOutput};
use workloads::{
    campaign_offline::CampaignOffline, engine_ingest::EngineIngest, engine_mixed::EngineMixed,
    engine_read::EngineRead, serve_closed::ServeClosed,
};

/// Runs the workload called `name`, or `None` for an unknown name.
pub fn run_named(name: &str, config: &RunConfig) -> Option<RunOutput> {
    use runner::Workload as _;
    Some(match name {
        n if n == ServeClosed::NAME => run::<ServeClosed>(config),
        n if n == EngineRead::NAME => run::<EngineRead>(config),
        n if n == EngineIngest::NAME => run::<EngineIngest>(config),
        n if n == EngineMixed::NAME => run::<EngineMixed>(config),
        n if n == CampaignOffline::NAME => run::<CampaignOffline>(config),
        _ => return None,
    })
}
