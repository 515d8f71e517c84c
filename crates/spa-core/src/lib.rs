//! # spa-core — the Smart Prediction Assistant
//!
//! The paper's primary contribution: a customer-intelligence platform
//! that embeds users' *emotional context* into recommendation. The crate
//! implements every component of Fig 3 and the methodology of §3:
//!
//! * [`sum`] — the **Smart User Model**: objective, subjective and
//!   emotional attribute estimates with per-attribute relevance weights,
//!   maintained through the three stages of §3 (initialization via the
//!   Gradual EIT, advice via activation/inhibition, update via
//!   reward/punish) — and the registry that keeps one resident model
//!   per user and publishes its compact advice row, the one thing
//!   scoring reads, into a dense per-shard table that readers take a
//!   read guard of once per registry shard an audience touches;
//! * `eit` — the **Gradual Emotional Intelligence Test**: a
//!   four-branch question bank, a one-question-per-contact scheduler and
//!   per-branch EI scoring (Table 1);
//! * [`preprocessor`] — the **LifeLogs Pre-processor**: distills raw
//!   [`spa_types::LifeLogEvent`] streams into SUM updates;
//! * [`attributes`] — the **Attributes Manager**: sensibility weighting,
//!   thresholding, dominant-attribute extraction and SVM-based feature
//!   selection;
//! * [`messaging`] — the **Messaging Agent**: individualized sales
//!   messages following §5.3's assignment cases (Fig 5);
//! * [`recommend`] — the **recommendation function**: the per-user
//!   action with the highest execution probability;
//! * [`selection`] — the **selection function**: SVM-based propensity
//!   ranking of users for campaign targeting;
//! * [`batch`] — the Habitat-Pro-style batch baseline the paper says
//!   SPA evolved from (retrain-from-scratch, no incremental updates);
//! * [`agents`] — the four platform agents wired onto the
//!   [`spa_agents`] runtime;
//! * [`values`] — the Intelligent User Interface's **Human Values
//!   Scale** and coherence function (§4, component 5);
//! * `engine` — the per-shard [`engine::Engine`]: one registry,
//!   pre-processor, EIT engine, attributes manager and messaging agent
//!   — no selection function, no log, no threads of its own;
//! * `shard` — the one platform ([`shard::ShardedSpa`]): N engines
//!   keyed by a stable user hash behind one routing facade that owns
//!   the global selection function, the write-ahead logs and the
//!   fan-out, with crash-recovery replay. `shards = 1` and no log is
//!   the in-memory single-node case;
//! * [`platform`] — the constructors' empty `SpaConfig` argument,
//!   kept for the frozen benchmark: the platform has nothing to
//!   configure (the SUM rates, the selection class weight and the
//!   message policy are constants);
//! * [`snapshot`] — the contents of a platform checkpoint (section
//!   tags + codecs), so recovery loads a snapshot and replays only the
//!   WAL tail behind it instead of the whole history.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod agents;
pub(crate) mod api;
pub mod attributes;
pub mod batch;
pub(crate) mod eit;
pub(crate) mod engine;
mod fastmap;
pub mod messaging;
pub mod platform;
pub mod preprocessor;
pub mod recommend;
pub mod selection;
pub(crate) mod shard;
pub mod snapshot;
pub mod sum;
pub mod values;

pub use api::{
    now_unix_micros, ApiRequest, ApiResponse, DedupWindow, Dispatched, RecoverStatus,
    RequestEnvelope, SpaApi, ERR_DEADLINE_EXCEEDED, ERR_DRAINING, ERR_SERVER_BUSY,
};
pub use eit::{EitEngine, EitQuestion, QuestionBank};
pub use engine::Engine;
pub use messaging::{AssignedMessage, AssignmentCase, MessageCatalog, MessagePolicy};
#[doc(hidden)]
pub use platform::Spa;
pub use selection::SelectionFunction;
pub use shard::{CheckpointReport, CompactionReport, PublicationStats, RecoveryReport, ShardedSpa};
pub use sum::{CacheStats, SmartUserModel, SumRegistry};
