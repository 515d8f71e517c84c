//! A blocking client for the serving protocol: one TCP connection, one
//! in-flight request at a time (open-loop harnesses hold one client
//! per worker) — with the robustness half of the contract:
//!
//! * **default socket timeouts** — a server that dies between request
//!   and response surfaces as a typed, retryable
//!   [`ClientError::TimedOut`] instead of blocking the caller forever;
//! * **typed errors** — every failure classifies as retryable or not
//!   ([`ClientError::is_retryable`]), and marker-bearing server
//!   rejections (busy, draining, deadline) arrive as their own
//!   variants rather than as responses the caller must sniff;
//! * **idempotent retry** — [`SpaClient::call_with_retry`] keeps one
//!   request id across attempts and backs off with seeded jitter, so
//!   a mutation retried through torn connections lands exactly once
//!   (the server's dedup window replays the cached response);
//! * **fault injection** — an attached [`NetFaultPlan`] tears, drops
//!   and stalls calls deterministically for the chaos soak.
//!
//! After *any* transport failure the connection is discarded (a byte
//! stream that failed mid-frame cannot be re-aligned); the next call
//! reconnects transparently.

use crate::netfault::{
    CallFault, NetFaultPlan, INJECTED_NET_DROP, INJECTED_NET_STALL, MASKED_RESPONSE_LOSS,
};

/// Suffix appended to an injected rx-drop/stall error when the
/// discarded response read itself failed (see [`MASKED_RESPONSE_LOSS`]).
fn masked_suffix(masked: bool) -> String {
    if masked {
        format!("; {MASKED_RESPONSE_LOSS}")
    } else {
        String::new()
    }
}
use crate::wire;
use bytes::BytesMut;
use spa_core::{
    ApiRequest, ApiResponse, RequestEnvelope, ERR_DEADLINE_EXCEEDED, ERR_DRAINING, ERR_SERVER_BUSY,
};
use spa_store::fault::SplitMix64;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Why a call failed, classified for retry.
#[derive(Debug)]
pub enum ClientError {
    /// A socket timeout expired (connect, send, or awaiting the
    /// response). The request may or may not have executed — retry
    /// with the same id to find out safely.
    TimedOut(String),
    /// The connection died (reset, closed, torn response). Same
    /// ambiguity as a timeout: retry with the same id.
    Disconnected(String),
    /// The server refused fast without executing: in-flight limit
    /// shed, connection cap, or draining. Back off and retry.
    Busy(String),
    /// The request arrived past its envelope deadline and was refused
    /// without executing.
    DeadlineExceeded(String),
    /// Protocol corruption: a frame failed its CRC, a response did not
    /// decode, or its id did not match. Not retryable — this is a bug
    /// or an attacker, not weather.
    Corrupt(String),
    /// Any other transport error (e.g. connection refused while the
    /// server is down — retryable once it returns).
    Io(io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::TimedOut(m) => write!(f, "timed out: {m}"),
            ClientError::Disconnected(m) => write!(f, "disconnected: {m}"),
            ClientError::Busy(m) => write!(f, "busy: {m}"),
            ClientError::DeadlineExceeded(m) => write!(f, "deadline exceeded: {m}"),
            ClientError::Corrupt(m) => write!(f, "corrupt: {m}"),
            ClientError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether retrying (same request id) is safe and sensible.
    /// Everything except [`ClientError::Corrupt`] is: timeouts,
    /// disconnects and deadline expiries are ambiguity the dedup
    /// window resolves, busy is back-pressure, and plain I/O errors
    /// (server down) heal when it returns.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, ClientError::Corrupt(_))
    }

    /// The error's descriptive text (marker substrings included, so a
    /// harness can attribute injected faults).
    pub fn text(&self) -> String {
        match self {
            ClientError::TimedOut(m)
            | ClientError::Disconnected(m)
            | ClientError::Busy(m)
            | ClientError::DeadlineExceeded(m)
            | ClientError::Corrupt(m) => m.clone(),
            ClientError::Io(e) => e.to_string(),
        }
    }
}

/// Retry/backoff shape for [`SpaClient::call_with_retry`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(160),
        }
    }
}

/// Connection and behavior knobs for one client.
#[derive(Clone)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection.
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout — the fix for "blocks forever when the
    /// server dies between request and response".
    pub read_timeout: Option<Duration>,
    /// Socket write timeout.
    pub write_timeout: Option<Duration>,
    /// Relative deadline stamped into every envelope this client
    /// sends (`0` = none).
    pub deadline_micros: u32,
    /// Retry/backoff shape for [`SpaClient::call_with_retry`].
    pub retry: RetryPolicy,
    /// Seed for request-id generation and backoff jitter. `None`
    /// derives one from the clock and a process counter (unique ids
    /// without coordination); fix it for deterministic harnesses —
    /// distinct clients MUST use distinct seeds, or their ids collide
    /// in the server's dedup window and replay each other's responses.
    pub seed: Option<u64>,
    /// Client-side fault injection (chaos only).
    pub fault: Option<Arc<NetFaultPlan>>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            deadline_micros: 0,
            retry: RetryPolicy::default(),
            seed: None,
            fault: None,
        }
    }
}

/// One successful call's response plus its envelope metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct CallOutcome {
    /// The response.
    pub response: ApiResponse,
    /// The server answered from its dedup window (an earlier attempt
    /// with this id had already executed).
    pub replayed: bool,
}

/// What [`SpaClient::call_with_retry`] went through to succeed.
#[derive(Debug, Clone, PartialEq)]
pub struct CallReport {
    /// The response.
    pub response: ApiResponse,
    /// Attempts spent (1 = first try succeeded).
    pub(crate) attempts: u32,
    /// Whether the final answer was a dedup replay.
    pub replayed: bool,
}

static CLIENT_SALT: AtomicU64 = AtomicU64::new(0);

fn derived_seed() -> u64 {
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos()).unwrap_or(0);
    (nanos as u64) ^ CLIENT_SALT.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
}

/// A connected serving client (reconnects transparently after
/// transport failures).
pub struct SpaClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<TcpStream>,
    /// The request encode buffer: cleared and refilled by every call,
    /// so it keeps its allocation instead of regrowing per request.
    scratch: BytesMut,
    /// Request-id stream — 64-bit SplitMix64 draws, `0` skipped.
    ids: SplitMix64,
    /// Backoff jitter stream, independent of the id stream.
    jitter: SplitMix64,
}

impl SpaClient {
    /// Connects with default [`ClientConfig`] (timeouts on).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit configuration.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, config: ClientConfig) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let seed = config.seed.unwrap_or_else(derived_seed);
        let mut client = Self {
            addr,
            config,
            stream: None,
            scratch: BytesMut::new(),
            ids: SplitMix64::new(seed),
            jitter: SplitMix64::new(seed ^ 0xB0FF_5EED),
        };
        client.reconnect().map_err(|e| match e {
            ClientError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::ConnectionRefused, other.to_string()),
        })?;
        Ok(client)
    }

    /// A fresh nonzero request id from this client's seeded stream.
    pub fn next_request_id(&mut self) -> u64 {
        loop {
            let id = self.ids.next_u64();
            if id != 0 {
                return id;
            }
        }
    }

    fn reconnect(&mut self) -> Result<(), ClientError> {
        self.stream = None;
        let stream = match self.config.connect_timeout {
            Some(timeout) => TcpStream::connect_timeout(&self.addr, timeout),
            None => TcpStream::connect(self.addr),
        }
        .map_err(|e| {
            if e.kind() == io::ErrorKind::TimedOut {
                ClientError::TimedOut(format!("connect to {}: {e}", self.addr))
            } else {
                ClientError::Io(e)
            }
        })?;
        stream.set_nodelay(true).map_err(ClientError::Io)?;
        stream.set_read_timeout(self.config.read_timeout).map_err(ClientError::Io)?;
        stream.set_write_timeout(self.config.write_timeout).map_err(ClientError::Io)?;
        self.stream = Some(stream);
        Ok(())
    }

    /// Sends one request under a fresh envelope (new id, configured
    /// deadline) and blocks for its response.
    ///
    /// Transport failures and protocol corruption surface as
    /// [`ClientError`]; a platform-side failure arrives as a
    /// well-formed [`ApiResponse::Error`] value instead — except the
    /// marker-bearing robustness rejections (busy / draining /
    /// deadline), which map to their own [`ClientError`] variants.
    pub fn call(&mut self, request: &ApiRequest) -> Result<ApiResponse, ClientError> {
        let envelope =
            RequestEnvelope::stamped(self.next_request_id(), self.config.deadline_micros);
        self.call_enveloped(&envelope, request).map(|outcome| outcome.response)
    }

    /// Sends one request under an explicit envelope (the harness entry
    /// point: the caller controls the idempotency key).
    pub fn call_enveloped(
        &mut self,
        envelope: &RequestEnvelope,
        request: &ApiRequest,
    ) -> Result<CallOutcome, ClientError> {
        let fault =
            self.config.fault.clone().and_then(|plan| plan.draw_call_fault().map(|f| (plan, f)));
        let outcome = self.attempt(envelope, request, fault);
        if outcome.is_err() {
            // a failed byte stream cannot be re-aligned: force the
            // next call onto a fresh connection
            self.stream = None;
        }
        outcome
    }

    /// Retries `request` under **one** request id until it succeeds,
    /// the attempt budget is spent, or a non-retryable error surfaces.
    /// The envelope's `sent` stamp refreshes per attempt (each attempt
    /// gets the full deadline); the id never changes, so an attempt
    /// that executed but lost its response is answered from the
    /// server's dedup window instead of executing again.
    pub fn call_with_retry(&mut self, request: &ApiRequest) -> Result<CallReport, ClientError> {
        let id = self.next_request_id();
        self.retry_enveloped(id, request)
    }

    /// [`SpaClient::call_with_retry`] with a caller-chosen id.
    pub(crate) fn retry_enveloped(
        &mut self,
        id: u64,
        request: &ApiRequest,
    ) -> Result<CallReport, ClientError> {
        let policy = self.config.retry;
        let mut last_error = None;
        for attempt in 1..=policy.max_attempts.max(1) {
            if attempt > 1 {
                self.backoff(attempt - 2);
            }
            let envelope = RequestEnvelope::stamped(id, self.config.deadline_micros);
            match self.call_enveloped(&envelope, request) {
                Ok(outcome) => {
                    return Ok(CallReport {
                        response: outcome.response,
                        attempts: attempt,
                        replayed: outcome.replayed,
                    })
                }
                Err(error) if error.is_retryable() => last_error = Some(error),
                Err(error) => return Err(error),
            }
        }
        Err(last_error.expect("at least one attempt ran"))
    }

    fn backoff(&mut self, exponent: u32) {
        let policy = self.config.retry;
        let base = policy
            .initial_backoff
            .saturating_mul(1u32 << exponent.min(16))
            .min(policy.max_backoff)
            .max(Duration::from_micros(1));
        // jitter in [50%, 150%) — seeded, so a fixed-seed harness
        // replays the identical pacing
        let micros = base.as_micros() as u64;
        let jittered = micros / 2 + self.jitter.gen_range(micros.max(1));
        std::thread::sleep(Duration::from_micros(jittered));
    }

    fn attempt(
        &mut self,
        envelope: &RequestEnvelope,
        request: &ApiRequest,
        fault: Option<(Arc<NetFaultPlan>, CallFault)>,
    ) -> Result<CallOutcome, ClientError> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        self.scratch.clear();
        wire::encode_enveloped_request(envelope, request, &mut self.scratch);
        let stream = self.stream.as_mut().expect("connected above");
        match &fault {
            Some((plan, CallFault::DropTx)) => {
                // deliver a strict prefix of the frame, then sever: by
                // the wire contract the server dispatches nothing
                let mut frame = Vec::with_capacity(self.scratch.len() + 8);
                wire::send_frame(&mut frame, &self.scratch).expect("vec write");
                let keep = plan.draw_tear_point(frame.len());
                let _ = stream.write_all(&frame[..keep]);
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
                return Err(ClientError::Disconnected(format!(
                    "{INJECTED_NET_DROP} (tx): request torn at byte {keep}/{}",
                    frame.len()
                )));
            }
            Some((plan, CallFault::PartialWrite)) => {
                // the frame lands in two writes — TCP must absorb it
                let mut frame = Vec::with_capacity(self.scratch.len() + 8);
                wire::send_frame(&mut frame, &self.scratch).expect("vec write");
                let split = plan.draw_tear_point(frame.len()).max(1);
                send_bytes(stream, &frame[..split])?;
                send_bytes(stream, &frame[split..])?;
            }
            _ => wire::send_frame(stream, &self.scratch).map_err(classify_io)?,
        }
        match fault {
            Some((_, CallFault::DropRx)) => {
                // the request was fully delivered and dispatched; the
                // caller never learns the outcome. The response is
                // consumed and DISCARDED before severing, so the
                // "request executed" guarantee cannot be raced away by
                // an RST destroying the unread request frame. If the
                // discarded read itself failed, the peer dropped the
                // response first — say so, or an exact-accounting
                // harness would see that server-side drop masked
                let masked = !matches!(wire::recv_frame(stream), Ok(Some(_)));
                let _ = stream.shutdown(Shutdown::Both);
                return Err(ClientError::Disconnected(format!(
                    "{INJECTED_NET_DROP} (rx): connection severed before the response{}",
                    masked_suffix(masked)
                )));
            }
            Some((_, CallFault::Stall)) => {
                // the response "never arrives in time": consumed and
                // discarded (same determinism argument as DropRx), the
                // timeout surfaced immediately with no real sleep
                let masked = !matches!(wire::recv_frame(stream), Ok(Some(_)));
                return Err(ClientError::TimedOut(format!(
                    "{INJECTED_NET_STALL}: response abandoned past the read timeout{}",
                    masked_suffix(masked)
                )));
            }
            _ => {}
        }
        let payload = match wire::recv_frame(stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                return Err(ClientError::Disconnected(
                    "server closed before responding".to_string(),
                ))
            }
            Err(error) => return Err(classify_io(error)),
        };
        let (id, replayed, response) = wire::decode_enveloped_response(&payload)
            .map_err(|error| ClientError::Corrupt(error.to_string()))?;
        if id == 0 && envelope.id != 0 {
            // a connection-level rejection, answered before (or
            // instead of) our envelope: a connection-cap refusal is
            // back-pressure, anything else is protocol damage
            let message = match &response {
                ApiResponse::Error { message } => message.clone(),
                other => format!("unexpected id-0 response {other:?}"),
            };
            return Err(if message.contains(ERR_SERVER_BUSY) || message.contains(ERR_DRAINING) {
                ClientError::Busy(message)
            } else {
                ClientError::Corrupt(message)
            });
        }
        if id != envelope.id {
            return Err(ClientError::Corrupt(format!(
                "response id {id:#x} does not answer request id {:#x}",
                envelope.id
            )));
        }
        if let ApiResponse::Error { message } = &response {
            if message.contains(ERR_SERVER_BUSY) || message.contains(ERR_DRAINING) {
                return Err(ClientError::Busy(message.clone()));
            }
            if message.contains(ERR_DEADLINE_EXCEEDED) {
                return Err(ClientError::DeadlineExceeded(message.clone()));
            }
        }
        Ok(CallOutcome { response, replayed })
    }
}

fn classify_io(error: io::Error) -> ClientError {
    match error.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
            ClientError::TimedOut(error.to_string())
        }
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => ClientError::Disconnected(error.to_string()),
        io::ErrorKind::InvalidData => ClientError::Corrupt(error.to_string()),
        _ => ClientError::Io(error),
    }
}

fn send_bytes(stream: &mut TcpStream, bytes: &[u8]) -> Result<(), ClientError> {
    stream.write_all(bytes).and_then(|()| stream.flush()).map_err(classify_io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spa_core::platform::SpaConfig;
    use spa_core::{ShardedSpa, SpaApi};
    use spa_synth::catalog::CourseCatalog;
    use spa_types::UserId;

    #[test]
    fn the_request_buffer_keeps_its_allocation_across_calls() {
        let courses = CourseCatalog::generate(10, 4, 3).unwrap();
        let spa = ShardedSpa::new(&courses, SpaConfig, 1).unwrap();
        let handle = crate::serve(Arc::new(SpaApi::new(Arc::new(spa))), "127.0.0.1:0").unwrap();
        let mut client = SpaClient::connect(handle.addr()).unwrap();
        let score = ApiRequest::Score { users: (0..16).map(UserId::new).collect() };
        client.call(&score).unwrap();
        let (ptr, capacity) = (client.scratch.as_ptr(), client.scratch.capacity());
        assert!(capacity > 0, "the first call's encode buffer was handed away");
        for request in [&ApiRequest::Stats, &score].into_iter().cycle().take(8) {
            client.call(request).unwrap();
            assert_ne!(client.scratch.capacity(), 0, "the encode buffer was handed away");
            assert_eq!(client.scratch.as_ptr(), ptr, "the encode buffer was reallocated");
        }
        handle.shutdown();
    }
}
