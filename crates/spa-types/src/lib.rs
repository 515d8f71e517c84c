//! # spa-types — foundation types for the SPA platform
//!
//! Shared identifier, attribute, valence, event and error types used by
//! every other crate in the workspace. This crate is dependency-free so
//! that substrates (storage, ML, agents) and the core library can agree
//! on vocabulary without coupling.
//!
//! The vocabulary follows González et al., *Embedding Emotional Context
//! in Recommender Systems* (ICDE 2007):
//!
//! * users interact with **actions** (984 distinct on-line actions in the
//!   emagister.com deployment) and **items** (training courses);
//! * each user is described by **attributes** of three kinds — objective
//!   (socio-demographic), subjective (navigation-derived) and
//!   **emotional** (the ten attributes of §5.1, each carrying a
//!   [`Valence`]);
//! * raw interactions are collected into a **LifeLog** event stream.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub(crate) mod attributes;
pub(crate) mod error;
pub(crate) mod events;
pub mod four_branch;
pub(crate) mod ids;
pub(crate) mod valence;

pub use attributes::{
    AttributeDef, AttributeKind, AttributeSchema, EmotionalAttribute, EMOTIONAL_ATTRIBUTES,
};
pub use error::SpaError;
pub use events::{EventKind, LifeLogEvent, Timestamp};
pub use four_branch::{Branch, BRANCHES};
pub use ids::{ActionId, AttributeId, CampaignId, CourseId, QuestionId, ShardId, UserId};
pub use valence::Valence;

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, SpaError>;
