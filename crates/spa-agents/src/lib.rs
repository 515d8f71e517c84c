//! # spa-agents — lightweight multi-agent runtime
//!
//! The SPA architecture (paper Fig 3) is agent-based: a LifeLogs
//! Pre-processor Agent that "replicates itself in pro-active way", an
//! Attributes Manager Agent, a Messaging Agent and the Smart Component
//! exchange work asynchronously. This crate supplies the runtime those
//! agents run on:
//!
//! * [`Agent`] — the behaviour trait: react to a message, emit messages;
//! * [`StepRuntime`] — a deterministic, single-threaded scheduler that
//!   drains the message queue in FIFO order (used in tests and anywhere
//!   reproducibility matters);
//! * [`ThreadedRuntime`] — one OS thread per agent with
//!   crossbeam-channel mailboxes, for throughput experiments.
//!
//! Both runtimes share addressing by agent name and the same [`Context`]
//! API, so an agent implementation runs unchanged on either.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod runtime;
pub mod step;

pub use runtime::{RuntimeHandle, ThreadedRuntime};
pub use step::StepRuntime;

use spa_types::{Result, SpaError};

/// Outbound mail collected while an agent handles one message.
#[derive(Debug)]
pub struct Context<M> {
    self_name: String,
    outbox: Vec<(String, M)>,
}

impl<M> Context<M> {
    fn new(self_name: &str) -> Self {
        Self { self_name: self_name.to_owned(), outbox: Vec::new() }
    }

    /// Name of the agent currently handling the message.
    pub fn self_name(&self) -> &str {
        &self.self_name
    }

    /// Queues a message to another agent (or to self).
    pub fn send(&mut self, to: impl Into<String>, msg: M) {
        self.outbox.push((to.into(), msg));
    }

    fn drain(&mut self) -> Vec<(String, M)> {
        std::mem::take(&mut self.outbox)
    }
}

/// An agent: a named, stateful message handler.
pub trait Agent<M>: Send {
    /// Called once when the runtime starts, before any message.
    fn on_start(&mut self, _ctx: &mut Context<M>) {}

    /// Handles one inbound message, optionally emitting messages via
    /// the context.
    fn handle(&mut self, msg: M, ctx: &mut Context<M>);
}

/// Validates an agent name (non-empty, unique enforced at registration).
fn validate_name(name: &str) -> Result<()> {
    if name.is_empty() {
        return Err(SpaError::Invalid("agent name must be non-empty".into()));
    }
    Ok(())
}
