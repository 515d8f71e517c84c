//! The four platform agents on the [`spa_agents`] runtime.
//!
//! Fig 3 of the paper wires SPA as communicating agents: the LifeLogs
//! Pre-processor feeds the Attributes Manager and the Smart Component;
//! the Messaging Agent asks the Attributes Manager for each user's
//! dominant sensibilities and emits individualized messages. This module
//! provides that wiring over [`spa_agents::StepRuntime`] (deterministic)
//! or [`spa_agents::ThreadedRuntime`] (parallel) — the agents are
//! runtime-agnostic.
//!
//! The shared state (SUM registry) is the blackboard the agents
//! coordinate through, mirroring how the production platform shared its
//! profile databases.

use crate::attributes::AttributesManager;
use crate::eit::EitEngine;
use crate::messaging::{AssignedMessage, MessagingAgent};
use crate::preprocessor::LifeLogPreprocessor;
use crate::sum::SumRegistry;
use parking_lot::Mutex;
use spa_agents::{Agent, Context};
use spa_types::{CourseId, EmotionalAttribute, LifeLogEvent, UserId};
use std::sync::Arc;

/// Canonical agent names used in the wiring.
pub mod names {
    /// The LifeLogs Pre-processor Agent.
    pub const PREPROCESSOR: &str = "lifelog-preprocessor";
    /// The Attributes Manager Agent.
    pub const ATTRIBUTES_MANAGER: &str = "attributes-manager";
    /// The Messaging Agent.
    pub const MESSAGING: &str = "messaging-agent";
    /// The Smart Component (collector of outcomes in this wiring).
    pub const SMART_COMPONENT: &str = "smart-component";
}

/// Messages exchanged between SPA agents.
#[derive(Debug, Clone)]
pub enum SpaMessage {
    /// A raw LifeLog record, addressed to the pre-processor.
    Raw(LifeLogEvent),
    /// Pre-processor → attributes manager: this user's model changed.
    ModelTouched(UserId),
    /// Ask the messaging agent to compose a message for (user, course).
    Compose {
        /// Target user.
        user: UserId,
        /// Course being sold (its appeal attributes travel with the
        /// request, as the campaign engine selected them — §5.3 step 1).
        course: CourseId,
        /// Product attributes in priority order.
        appeal: Vec<EmotionalAttribute>,
    },
    /// Messaging agent → smart component: the composed message.
    Composed {
        /// Target user.
        user: UserId,
        /// Course the message sells.
        course: CourseId,
        /// The assignment outcome (case + text).
        message: AssignedMessage,
    },
}

/// Agent wrapper around [`LifeLogPreprocessor`].
pub struct PreprocessorAgent {
    registry: Arc<SumRegistry>,
    preprocessor: Arc<LifeLogPreprocessor>,
    eit: Arc<EitEngine>,
    /// Events that failed to ingest (kept for inspection).
    pub errors: Vec<String>,
}

impl PreprocessorAgent {
    /// Creates the agent over shared platform state.
    pub fn new(
        registry: Arc<SumRegistry>,
        preprocessor: Arc<LifeLogPreprocessor>,
        eit: Arc<EitEngine>,
    ) -> Self {
        Self { registry, preprocessor, eit, errors: Vec::new() }
    }
}

impl Agent<SpaMessage> for PreprocessorAgent {
    fn handle(&mut self, msg: SpaMessage, ctx: &mut Context<SpaMessage>) {
        if let SpaMessage::Raw(event) = msg {
            let user = event.user;
            match self.preprocessor.ingest(&self.registry, &self.eit, &event) {
                Ok(()) => ctx.send(names::ATTRIBUTES_MANAGER, SpaMessage::ModelTouched(user)),
                Err(e) => self.errors.push(e.to_string()),
            }
        }
    }
}

/// Agent wrapper around [`AttributesManager`]: recomputes dominant
/// sensibilities when models change (a cache the Messaging Agent reads
/// through the registry in this reproduction).
pub struct AttributesManagerAgent {
    registry: Arc<SumRegistry>,
    manager: Arc<AttributesManager>,
    /// Users touched since start (dedup'd lazily).
    pub touched: Vec<UserId>,
}

impl AttributesManagerAgent {
    /// Creates the agent.
    pub fn new(registry: Arc<SumRegistry>, manager: Arc<AttributesManager>) -> Self {
        Self { registry, manager, touched: Vec::new() }
    }
}

impl Agent<SpaMessage> for AttributesManagerAgent {
    fn handle(&mut self, msg: SpaMessage, _ctx: &mut Context<SpaMessage>) {
        if let SpaMessage::ModelTouched(user) = msg {
            // recompute (and thereby validate) the dominant set
            let _ = self.manager.dominant_sensibilities(&self.registry, user);
            self.touched.push(user);
        }
    }
}

/// Agent wrapper around the [`MessagingAgent`] policy engine.
pub struct MessagingActor {
    registry: Arc<SumRegistry>,
    manager: Arc<AttributesManager>,
    messaging: Arc<MessagingAgent>,
}

impl MessagingActor {
    /// Creates the agent.
    pub fn new(
        registry: Arc<SumRegistry>,
        manager: Arc<AttributesManager>,
        messaging: Arc<MessagingAgent>,
    ) -> Self {
        Self { registry, manager, messaging }
    }
}

impl Agent<SpaMessage> for MessagingActor {
    fn handle(&mut self, msg: SpaMessage, ctx: &mut Context<SpaMessage>) {
        if let SpaMessage::Compose { user, course, appeal } = msg {
            let sensibilities = self.manager.dominant_sensibilities(&self.registry, user);
            if let Ok(message) = self.messaging.assign(&appeal, &sensibilities) {
                ctx.send(names::SMART_COMPONENT, SpaMessage::Composed { user, course, message });
            }
        }
    }
}

/// Collector standing in for the Smart Component's message sink.
#[derive(Default)]
pub struct SmartComponentAgent {
    /// Messages composed so far, shared with the outside.
    pub composed: Arc<Mutex<Vec<(UserId, CourseId, AssignedMessage)>>>,
}

impl Agent<SpaMessage> for SmartComponentAgent {
    fn handle(&mut self, msg: SpaMessage, _ctx: &mut Context<SpaMessage>) {
        if let SpaMessage::Composed { user, course, message } = msg {
            self.composed.lock().push((user, course, message));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messaging::{AssignmentCase, MessageCatalog, MessagePolicy};
    use spa_agents::StepRuntime;
    use spa_synth::catalog::CourseCatalog;
    use spa_types::{AttributeSchema, EventKind, Timestamp, Valence};

    type Composed = Arc<Mutex<Vec<(UserId, CourseId, AssignedMessage)>>>;

    fn wired() -> (StepRuntime<SpaMessage>, Arc<SumRegistry>, Composed, Arc<EitEngine>) {
        let schema = AttributeSchema::emagister();
        let registry = Arc::new(SumRegistry::new(&schema));
        let courses = CourseCatalog::generate(20, 4, 2).unwrap();
        let preprocessor = Arc::new(LifeLogPreprocessor::new(schema.clone(), &courses));
        let eit = Arc::new(EitEngine::standard());
        let manager = Arc::new(AttributesManager::new(schema));
        let messaging = Arc::new(MessagingAgent::new(
            MessageCatalog::standard_catalog("Course Z"),
            MessagePolicy::MaxSensibility,
        ));
        let collector = SmartComponentAgent::default();
        let composed = collector.composed.clone();

        let mut rt = StepRuntime::new();
        rt.register(
            names::PREPROCESSOR,
            Box::new(PreprocessorAgent::new(registry.clone(), preprocessor, eit.clone())),
        )
        .unwrap();
        rt.register(
            names::ATTRIBUTES_MANAGER,
            Box::new(AttributesManagerAgent::new(registry.clone(), manager.clone())),
        )
        .unwrap();
        rt.register(
            names::MESSAGING,
            Box::new(MessagingActor::new(registry.clone(), manager, messaging)),
        )
        .unwrap();
        rt.register(names::SMART_COMPONENT, Box::new(collector)).unwrap();
        (rt, registry, composed, eit)
    }

    #[test]
    fn raw_events_flow_through_the_pipeline() {
        let (mut rt, registry, _, eit) = wired();
        let user = UserId::new(1);
        let q = eit.next_question(&registry, user).id;
        rt.post(
            names::PREPROCESSOR,
            SpaMessage::Raw(LifeLogEvent::new(
                user,
                Timestamp::from_millis(0),
                EventKind::EitAnswer { question: q, answer: Valence::new(0.8) },
            )),
        );
        rt.run_to_quiescence(100).unwrap();
        assert!(registry.get(user).is_some(), "the SUM materialized");
        assert!(rt.dead_letters().is_empty());
        assert_eq!(rt.delivered(), 2, "raw event + model-touched notification");
    }

    #[test]
    fn compose_produces_an_individualized_message() {
        let (mut rt, registry, composed, eit) = wired();
        let user = UserId::new(2);
        // teach the SUM a strong "enthusiastic" sensibility (question 0
        // probes enthusiastic via the Perceiving branch)
        let q = eit.next_question(&registry, user).id;
        rt.post(
            names::PREPROCESSOR,
            SpaMessage::Raw(LifeLogEvent::new(
                user,
                Timestamp::from_millis(0),
                EventKind::EitAnswer { question: q, answer: Valence::new(0.9) },
            )),
        );
        rt.post(
            names::MESSAGING,
            SpaMessage::Compose {
                user,
                course: CourseId::new(3),
                appeal: vec![EmotionalAttribute::Enthusiastic, EmotionalAttribute::Shy],
            },
        );
        rt.run_to_quiescence(100).unwrap();
        let out = composed.lock();
        assert_eq!(out.len(), 1);
        let (u, c, message) = &out[0];
        assert_eq!(*u, user);
        assert_eq!(*c, CourseId::new(3));
        assert_eq!(message.case, AssignmentCase::SingleAttribute);
        assert_eq!(message.attribute, Some(EmotionalAttribute::Enthusiastic));
    }

    #[test]
    fn unknown_users_get_the_standard_message() {
        let (mut rt, _, composed, _) = wired();
        rt.post(
            names::MESSAGING,
            SpaMessage::Compose {
                user: UserId::new(77),
                course: CourseId::new(0),
                appeal: vec![EmotionalAttribute::Hopeful],
            },
        );
        rt.run_to_quiescence(100).unwrap();
        let out = composed.lock();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].2.case, AssignmentCase::Standard);
    }
}
