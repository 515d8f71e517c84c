//! # spa-campaign — campaign engine and evaluation harness
//!
//! Reproduces the paper's §5.4 evaluation: "We have tested SPA with
//! eight Push and two newsletters campaigns. The target was 1,340,432
//! users in each campaign chosen in random way."
//!
//! * [`campaign`] — the campaign runner: target selection, message
//!   assignment through the platform's Messaging Agent, response
//!   simulation against the latent [`spa_synth::ResponseModel`], and the
//!   LifeLog feedback loop (deliveries, opens, transactions, rewards);
//! * [`experiment`] — the end-to-end Fig 6 experiment: history build-up
//!   (Gradual EIT + WebLogs), training campaigns, selection-function
//!   training, ten evaluation campaigns, cumulative-redemption curve
//!   (Fig 6a) and per-campaign predictive scores (Fig 6b), plus the
//!   emotional-ablation variant (E7);
//! * [`report`] — plain-text/CSV rendering of the experiment tables;
//! * [`csv`] — the writer that puts those CSV tables on disk.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod campaign;
pub mod csv;
pub mod experiment;
pub mod report;

pub use campaign::{CampaignOutcome, CampaignRunner, CampaignSpec, Channel};
pub use experiment::{Experiment, ExperimentConfig, ExperimentResult};
