//! TCP serving layer for the SPA platform.
//!
//! A deliberately small, dependency-free stack in four pieces:
//!
//! * [`wire`] — a compact binary protocol. Every message travels in the
//!   **same frame the write-ahead log uses on disk**
//!   (`len: u32 | crc: u32 | payload`, little-endian, CRC-32 over the
//!   payload), and `Ingest` payloads carry events in the WAL's own
//!   encoding — a bit flipped in flight is as loud as a bit flipped on
//!   a platter, and a torn request is rejected exactly like a torn log
//!   tail. Every request rides under a 20-byte envelope (client id +
//!   sent stamp + relative deadline); every response echoes the id and
//!   whether it was replayed from the dedup window.
//! * [`server`] — a `std::net` accept loop, one thread per connection,
//!   every connection dispatching into one shared
//!   [`SpaApi`]. No async runtime, no framework: the
//!   platform's own locks are the concurrency model. Admission control
//!   (bounded in-flight, connection cap), idle/slow-loris reaping,
//!   deadline refusal and a graceful drain path keep it standing under
//!   overload.
//! * [`client`] — a blocking client speaking the same frames, with
//!   default socket timeouts, typed retryable errors and
//!   idempotent-by-id retry.
//! * [`netfault`] — deterministic, ledgered network fault injection
//!   (connection drops, stalls, partial writes) for the chaos soak.
//!
//! The serving contract: a request dispatched through this stack and
//! the identical request dispatched in-process return **bit-identical**
//! responses (`spa-server/tests/server_smoke.rs` enforces it byte for
//! byte), and a mutation retried under one envelope id lands **exactly
//! once** no matter how many connections died under it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod netfault;
pub mod server;
pub mod wire;

pub use client::{CallOutcome, CallReport, ClientConfig, ClientError, RetryPolicy, SpaClient};
pub use netfault::{
    CallFault, NetFaultConfig, NetFaultCounts, NetFaultLedger, NetFaultPlan, INJECTED_NET_DROP,
    INJECTED_NET_STALL, MASKED_RESPONSE_LOSS,
};
pub use server::{
    serve, serve_with, DrainReport, ServeOptions, ServerCounts, ServerHandle, ServerStats,
};
pub use spa_core::{
    ApiRequest, ApiResponse, RecoverStatus, RequestEnvelope, SpaApi, ERR_DEADLINE_EXCEEDED,
    ERR_DRAINING, ERR_SERVER_BUSY,
};
