//! # spa — Smart Prediction Assistant
//!
//! A from-scratch Rust reproduction of **González, de la Rosa, Montaner,
//! Delfin — “Embedding Emotional Context in Recommender Systems” (ICDE
//! 2007)**: a customer-intelligence platform that embeds users'
//! emotional context into recommendation through Smart User Models, a
//! Gradual Emotional Intelligence Test, reward/punish incremental
//! learning, SVM-based propensity ranking and individualized persuasive
//! messaging.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | ids, attributes, valences, LifeLog events, Four-Branch model |
//! | [`linalg`] | dense/sparse vectors, CSR matrices, similarities, stats |
//! | [`ml`] | linear SVM (Pegasos), logistic regression, naive Bayes, kNN CF, metrics, CV |
//! | [`store`] | append-only event log, per-shard log layout, checkpoint snapshots, fault injection |
//! | [`agents`] | message-passing agent runtimes |
//! | [`synth`] | synthetic population / WebLogs / EIT answers / response model |
//! | [`core`] | the SPA platform itself (SUM, EIT, messaging, recommend/select) |
//! | [`campaign`] | push & newsletter campaign engine + the Fig 6 experiment and its CSV reports |
//! | [`server`] | TCP serving layer: binary wire protocol over the `SpaApi` facade |
//!
//! ## Quickstart
//!
//! ```
//! use spa::prelude::*;
//!
//! // a tiny synthetic world, and the platform in its in-memory
//! // single-node form: one shard, no write-ahead log
//! let courses = CourseCatalog::generate(10, 4, 7).unwrap();
//! let platform = ShardedSpa::new(&courses, SpaConfig, 1).unwrap();
//!
//! // a user answers one Gradual-EIT question per contact
//! let user = UserId::new(0);
//! let question = platform.next_eit_question(user);
//! platform
//!     .ingest(&LifeLogEvent::new(
//!         user,
//!         Timestamp::from_millis(0),
//!         EventKind::EitAnswer { question: question.id, answer: Valence::new(0.9) },
//!     ))
//!     .unwrap();
//!
//! // …and receives an individualized sales message
//! let message = platform
//!     .assign_message(user, &[EmotionalAttribute::Enthusiastic])
//!     .unwrap();
//! println!("{}", message.text);
//! ```
//!
//! The same type scales out: `ShardedSpa::new(.., n)` spreads users over
//! `n` engines, and `ShardedSpa::with_log` / `ShardedSpa::recover` add
//! write-ahead durability (`examples/sharded_serving.rs`).
//!
//! Run `cargo run --release --example campaign_simulation` to regenerate
//! the paper's Fig 6, and see `EXPERIMENTS.md` for the full experiment
//! index.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use spa_agents as agents;
pub use spa_campaign as campaign;
pub use spa_core as core;
pub use spa_linalg as linalg;
pub use spa_ml as ml;
pub use spa_server as server;
pub use spa_store as store;
pub use spa_synth as synth;
pub use spa_types as types;

/// Convenient glob-import surface for examples and applications.
pub mod prelude {
    pub use spa_campaign::{
        CampaignOutcome, CampaignRunner, CampaignSpec, Channel, Experiment, ExperimentConfig,
        ExperimentResult,
    };
    pub use spa_core::platform::SpaConfig;
    pub use spa_core::{
        ApiRequest, ApiResponse, AssignedMessage, AssignmentCase, CheckpointReport,
        CompactionReport, EitEngine, Engine, MessageCatalog, MessagePolicy, RecoverStatus,
        RecoveryReport, SelectionFunction, ShardedSpa, SmartUserModel, SpaApi, SumRegistry,
    };
    pub use spa_linalg::{CsrMatrix, SparseVec};
    pub use spa_ml::{
        BernoulliNb, Classifier, Dataset, LinearSvm, LogisticRegression, OnlineLearner,
    };
    pub use spa_store::log::LogConfig;
    pub use spa_store::{EventLog, LogPosition, ShardedEventLog, Snapshot, SnapshotBuilder};
    pub use spa_synth::{
        ActionCatalog, ActionKind, Course, CourseCatalog, LatentUser, Population, PopulationConfig,
        ResponseConfig, ResponseModel,
    };
    pub use spa_types::{
        ActionId, AttributeId, AttributeKind, AttributeSchema, Branch, CampaignId, CourseId,
        EmotionalAttribute, EventKind, LifeLogEvent, QuestionId, ShardId, SpaError, Timestamp,
        UserId, Valence, BRANCHES, EMOTIONAL_ATTRIBUTES,
    };
}
