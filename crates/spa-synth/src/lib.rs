//! # spa-synth — synthetic substrate for the emagister.com business case
//!
//! The paper evaluates SPA on proprietary production data: 3,162,069
//! registered users, 75 attributes, 984 catalogued actions, ~50 GB of
//! WebLogs per month, and ten live push/newsletter campaigns (§5). None
//! of that data is public, so this crate builds the closest synthetic
//! equivalent that exercises the same code paths (see DESIGN.md,
//! *Substitutions*):
//!
//! * [`population`] — users with **latent ground-truth profiles**:
//!   emotional sensibilities (the quantity SPA tries to discover),
//!   observable socio-demographics, navigation temperament and a base
//!   transaction propensity partially explained by the observables;
//! * [`catalog`] — a 984-action catalog and a course catalog whose
//!   courses carry the product attributes used in sales messages;
//! * [`weblog`] — seeded session/click stream generation emitting
//!   [`spa_types::LifeLogEvent`]s (plus a bytes-per-month estimate for
//!   the §5.1 stats table);
//! * [`eit`] — the Gradual-EIT answering process, with the non-response
//!   behaviour that creates the paper's sparsity problem;
//! * `response` — the latent campaign-response model: the probability
//!   a user transacts given the message variant they received, used as
//!   ground truth by the campaign engine;
//! * [`scenario`] — declarative lifecycle scenarios ("production
//!   weather"): Zipf-skewed hot users, arriving/departing cohorts,
//!   valence drift and overlapping campaign flights, expressed as
//!   [`scenario::ScenarioSpec`] data and executed deterministically by
//!   [`scenario::ScenarioEngine`] — the traffic source for chaos soaks.
//!
//! Everything is deterministic for a given seed.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod catalog;
pub mod eit;
pub mod population;
pub(crate) mod response;
pub mod scenario;
pub mod weblog;

pub use catalog::{ActionCatalog, ActionKind, Course, CourseCatalog};
pub use population::{LatentUser, Population, PopulationConfig};
pub use response::{ResponseConfig, ResponseModel};
pub use scenario::{
    CampaignPhase, CohortSpec, ScenarioEngine, ScenarioSpec, TickBatch, ValenceDrift,
};
