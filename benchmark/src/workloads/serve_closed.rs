//! `serve_closed`: one `SpaClient` on one connection, closed loop, the
//! 70/10/15/5 mix over a 2000-user hot set, WAL-backed platform behind
//! `serve_with`, everything pinned to one CPU.
//!
//! Why: callers that wait for a reply are a closed loop. With a
//! cache-resident hot set the engine is a small part of the round trip
//! and transport, framing, codec, envelope/dedup and dispatch are the
//! rest, so `server`/`api` changes show here and engine changes do not.
//! Pinning removes the cross-CPU wake that makes loopback latency
//! bimodal on this host.

use crate::fixture::{build_platform, user_range, Scale, WalDir};
use crate::inputs::{digest_requests, hot_set, serve_stream, Class, SCORE_AUDIENCE, SERVE_RANK_K};
use crate::runner::{Step, Workload};
use crate::stats::Fnv;
use crate::trace::Tracer;
use bytes::BytesMut;
use spa_core::{ApiRequest, ApiResponse, SpaApi};
use spa_server::{serve_with, ClientConfig, ServeOptions, ServerHandle, SpaClient};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests pre-generated; the loop cycles through them.
const STREAM_LEN: usize = 32_768;
/// Leading requests whose wire responses are compared with a twin's.
const CHECKED_PREFIX: usize = 2_000;

/// A TCP server on loopback serving one `SpaApi`; dropping it stops
/// accepting and waits until every connection thread has ended, so no
/// thread of a run outlives it. Clients must be dropped first: a
/// connection thread ends when its peer closes.
pub struct Server(Option<ServerHandle>);

impl Server {
    /// Serves `api` on an OS-chosen loopback port with default
    /// `ServeOptions`. Server threads inherit the caller's CPU mask.
    pub fn start(api: Arc<SpaApi>) -> Self {
        Server(Some(
            serve_with(api, "127.0.0.1:0", ServeOptions::default()).expect("bind a loopback port"),
        ))
    }

    /// The running server.
    pub fn handle(&self) -> &ServerHandle {
        self.0.as_ref().expect("server runs until drop")
    }

    /// A client with request ids fixed by `seed`.
    pub fn connect(&self, seed: u64) -> SpaClient {
        let config = ClientConfig { seed: Some(seed), ..ClientConfig::default() };
        SpaClient::connect_with(self.handle().addr(), config).expect("connect to loopback server")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let Some(handle) = self.0.take() else { return };
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.live_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.shutdown();
    }
}

/// Whether `response` is what a served request of `class` returns.
pub fn response_ok(class: Class, response: &ApiResponse) -> bool {
    match (class, response) {
        (Class::Score, ApiResponse::Scores { entries }) => entries.len() == SCORE_AUDIENCE,
        (Class::RankTopK, ApiResponse::Scores { entries }) => {
            entries.len() == SERVE_RANK_K as usize
        }
        (Class::Ingest, ApiResponse::Ingested { applied: 1 }) => true,
        (Class::ObserveOutcome, ApiResponse::OutcomeRecorded) => true,
        _ => false,
    }
}

/// Hash of a response's canonical wire encoding.
pub fn response_hash(response: &ApiResponse, scratch: &mut BytesMut) -> u64 {
    scratch.clear();
    spa_server::wire::encode_response(response, scratch);
    Fnv::of(scratch)
}

/// The workload.
pub struct ServeClosed {
    // declared in drop order: the client closes before the server waits
    // for its connection thread, and the log directory goes last
    client: SpaClient,
    server: Server,
    wal: WalDir,
    scale: Scale,
    seed: u64,
    stream: Vec<(Class, ApiRequest)>,
    digest: u64,
    calls: usize,
    /// Response hashes of the first [`CHECKED_PREFIX`] calls.
    prefix_hashes: Vec<u64>,
    scratch: BytesMut,
}

impl Workload for ServeClosed {
    const NAME: &'static str = "serve_closed";
    const OP: &'static str = "request";
    const BLOCK_STEPS: usize = 8_192;
    const PINNED: bool = true;
    const CALLER_IS_GENERATOR: bool = true;

    fn population(scale: &Scale) -> u64 {
        u64::from(scale.users)
    }

    fn setup(scale: &Scale, seed: u64, mark_resident: &mut dyn FnMut()) -> Self {
        let hot = hot_set(seed, scale.users, scale.hot_users);
        let stream = serve_stream(seed, &hot, STREAM_LEN);
        let digest = digest_requests(&stream);
        mark_resident();
        let wal = WalDir::create();
        let users = user_range(scale.users);
        let (spa, _) =
            build_platform(&users, &users[..scale.train_rows as usize], seed, Some(wal.path()));
        let server = Server::start(Arc::new(SpaApi::new(Arc::new(spa))));
        let client = server.connect(seed);
        mark_resident();
        ServeClosed {
            client,
            server,
            wal,
            scale: *scale,
            seed,
            stream,
            digest,
            calls: 0,
            prefix_hashes: Vec::with_capacity(CHECKED_PREFIX),
            scratch: BytesMut::new(),
        }
    }

    fn input_digest(&self) -> u64 {
        self.digest
    }

    fn describe(&self) -> String {
        format!(
            "{} users, hot set {}, WAL {} (fsync off), server {} with default ServeOptions",
            self.scale.users,
            self.scale.hot_users,
            self.wal.path().display(),
            self.server.handle().addr()
        )
    }

    fn step(&mut self, tracer: &mut Tracer) -> Step {
        let (class, request) = &self.stream[self.calls % STREAM_LEN];
        let span = tracer.begin("server::SpaClient::call", None, self.calls as u64);
        let start = Instant::now();
        let outcome = self.client.call(request);
        let nanos = start.elapsed().as_nanos() as u64;
        tracer.end(span);
        let ok = outcome.as_ref().is_ok_and(|response| response_ok(*class, response));
        if self.calls < CHECKED_PREFIX {
            // an errored call hashes as 0, which no twin response does
            let hash = outcome.as_ref().map_or(0, |r| response_hash(r, &mut self.scratch));
            self.prefix_hashes.push(hash);
        }
        self.calls += 1;
        Step { nanos, attempted: 1, failed: u64::from(!ok) }
    }

    /// wire ≡ in-process: the first 2000 requests, dispatched in order
    /// through `SpaApi::dispatch` on a twin built from the same seed,
    /// must return byte-identical responses. The server's counters must
    /// show every request served and none shed, replayed or expired.
    fn verify(&mut self) -> Step {
        let users = user_range(self.scale.users);
        let (twin, _) =
            build_platform(&users, &users[..self.scale.train_rows as usize], self.seed, None);
        let twin = SpaApi::new(Arc::new(twin));
        let mut checks = Step::default();
        for (i, &wire_hash) in self.prefix_hashes.iter().enumerate() {
            let response = twin.dispatch(&self.stream[i % STREAM_LEN].1);
            checks.attempted += 1;
            checks.failed += u64::from(response_hash(&response, &mut self.scratch) != wire_hash);
        }
        let counts = self.server.handle().stats().counts();
        println!(
            "server counters frames_served {} (requests sent {}), sheds {}, dedup_hits {}, deadline_rejects {}",
            counts.frames_served, self.calls, counts.sheds, counts.dedup_hits, counts.deadline_rejects
        );
        checks.attempted += 1;
        let clean = counts.frames_served == self.calls as u64
            && counts.sheds + counts.dedup_hits + counts.deadline_rejects == 0;
        checks.failed += u64::from(!clean);
        checks
    }
}
