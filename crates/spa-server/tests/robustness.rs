//! Serving robustness contracts, one mechanism per test: client
//! timeouts (no hanging on a dead server), idle and slow-loris
//! reaping, load shedding, connection caps, graceful drain,
//! exactly-once retry over the wire, deadline refusal, and both sides
//! of deterministic network fault injection.

use bytes::BytesMut;
use spa_core::platform::SpaConfig;
use spa_core::{ApiRequest, ApiResponse, RequestEnvelope, ShardedSpa, SpaApi};
use spa_server::wire::{self, recv_frame};
use spa_server::{
    serve_with, ClientConfig, ClientError, NetFaultConfig, NetFaultPlan, ServeOptions, SpaClient,
    INJECTED_NET_DROP, INJECTED_NET_STALL,
};
use spa_store::log::LogConfig;
use spa_synth::catalog::CourseCatalog;
use spa_types::{
    CampaignId, CourseId, EmotionalAttribute, EventKind, LifeLogEvent, Timestamp, UserId,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-robust-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn platform() -> SpaApi {
    let courses = CourseCatalog::generate(10, 4, 3).unwrap();
    let spa = ShardedSpa::new(&courses, SpaConfig, 2).unwrap();
    spa.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
    SpaApi::new(Arc::new(spa))
}

fn ingest(user: u32, at: u64) -> ApiRequest {
    ApiRequest::Ingest {
        event: LifeLogEvent::new(
            UserId::new(user),
            Timestamp::from_millis(at),
            EventKind::Transaction { course: CourseId::new(1), campaign: None },
        ),
    }
}

fn transactions(client: &mut SpaClient) -> u64 {
    match client.call(&ApiRequest::Stats).unwrap() {
        ApiResponse::Stats { stats, .. } => stats.transactions,
        other => panic!("expected stats, got {other:?}"),
    }
}

fn wait_until(what: &str, deadline: Duration, mut check: impl FnMut() -> bool) {
    let start = Instant::now();
    while !check() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The satellite bugfix, both halves: timeouts are on by default, and
/// a server that never answers surfaces as a typed retryable timeout
/// instead of blocking the caller forever.
#[test]
fn a_silent_server_times_out_instead_of_hanging_the_client() {
    let defaults = ClientConfig::default();
    assert!(defaults.connect_timeout.is_some(), "connect timeout must default on");
    assert!(defaults.read_timeout.is_some(), "read timeout must default on");
    assert!(defaults.write_timeout.is_some(), "write timeout must default on");

    // a listener that accepts and then says nothing, forever
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sink = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(5));
        drop(stream);
    });

    let config =
        ClientConfig { read_timeout: Some(Duration::from_millis(100)), ..ClientConfig::default() };
    let mut client = SpaClient::connect_with(addr, config).unwrap();
    let start = Instant::now();
    let error = client.call(&ApiRequest::Stats).unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(2), "must fail fast, took {:?}", start.elapsed());
    assert!(matches!(error, ClientError::TimedOut(_)), "expected timeout, got {error}");
    assert!(error.is_retryable());
    drop(client);
    sink.join().unwrap();
}

/// A server hard-killed between request and response surfaces as a
/// typed, retryable error in bounded time.
#[test]
fn a_hard_killed_server_cannot_hang_the_client() {
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let config =
        ClientConfig { read_timeout: Some(Duration::from_millis(250)), ..ClientConfig::default() };
    let mut client = SpaClient::connect_with(handle.addr(), config).unwrap();
    assert!(client.call(&ApiRequest::Stats).is_ok());
    handle.hard_kill();
    let start = Instant::now();
    let error = client.call(&ApiRequest::Stats).unwrap_err();
    assert!(start.elapsed() < Duration::from_secs(2), "must fail fast, took {:?}", start.elapsed());
    assert!(error.is_retryable(), "a killed server is weather, not a bug: {error}");
}

/// `hard_kill` returns only once no connection thread holds the facade,
/// so the caller's handle is the last one: dropping it drops the
/// platform, flushing its log, before a recovery reads that log. A
/// thread that still held it would flush acknowledged writes behind the
/// recovery's back, and the recovered platform would miss them. A
/// thread that left the connection count before letting go of the
/// facade held it for microseconds, so the kill is repeated.
#[test]
fn a_hard_kill_leaves_the_caller_the_only_holder_of_the_facade() {
    let api = Arc::new(platform());
    for round in 0..500 {
        let handle = serve_with(api.clone(), "127.0.0.1:0", ServeOptions::default()).unwrap();
        let mut clients: Vec<_> =
            (0..4).map(|_| SpaClient::connect(handle.addr()).unwrap()).collect();
        for client in &mut clients {
            assert!(client.call(&ApiRequest::Stats).is_ok());
        }
        handle.hard_kill();
        assert_eq!(
            Arc::strong_count(&api),
            1,
            "round {round}: a connection still holds the facade"
        );
    }
}

/// The satellite bugfix for thread leaks: a connection that never
/// sends a byte is reaped at the idle timeout and counted.
#[test]
fn idle_connections_are_reaped_not_leaked() {
    let options = ServeOptions {
        read_timeout: Some(Duration::from_millis(20)),
        idle_timeout: Some(Duration::from_millis(60)),
        ..ServeOptions::default()
    };
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", options).unwrap();
    let mut mute = TcpStream::connect(handle.addr()).unwrap();
    wait_until("idle reap", Duration::from_secs(5), || {
        handle.stats().idle_reaped.load(Ordering::Relaxed) == 1
    });
    wait_until("connection teardown", Duration::from_secs(5), || handle.live_connections() == 0);
    // the server closed us: reads drain to EOF instead of blocking
    mute.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(mute.read(&mut buf).unwrap(), 0, "reaped connection must be closed");
    // a well-behaved client is still served
    let mut client = SpaClient::connect(handle.addr()).unwrap();
    assert!(client.call(&ApiRequest::Stats).is_ok());
    handle.shutdown();
}

/// A peer feeding a frame byte-by-byte (slow loris) is cut at the read
/// timeout, not allowed to pin a thread.
#[test]
fn mid_frame_stallers_are_cut_as_slow_loris() {
    let options = ServeOptions {
        read_timeout: Some(Duration::from_millis(20)),
        idle_timeout: Some(Duration::from_secs(60)),
        ..ServeOptions::default()
    };
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", options).unwrap();
    let mut loris = TcpStream::connect(handle.addr()).unwrap();
    // three bytes of an eight-byte header, then silence
    loris.write_all(&[1, 0, 0]).unwrap();
    loris.flush().unwrap();
    wait_until("slow-loris cut", Duration::from_secs(5), || {
        handle.stats().slow_reaped.load(Ordering::Relaxed) == 1
    });
    wait_until("connection teardown", Duration::from_secs(5), || handle.live_connections() == 0);
    assert_eq!(handle.stats().idle_reaped.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

/// Past the in-flight budget the server sheds fast with a loud busy
/// answer — and every request that was *accepted* lands exactly once.
#[test]
fn overload_sheds_fast_and_accepted_writes_land_exactly_once() {
    const BATCH: u64 = 400;
    let options = ServeOptions { max_in_flight: 1, ..ServeOptions::default() };
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", options).unwrap();
    let addr = handle.addr();
    // batched writes so each dispatch holds the slot for real work —
    // racing clients then collide on it; repeat (bounded) until one does
    let batch_request = |worker: u64, round: u64, step: u64| {
        let events = (0..BATCH)
            .map(|i| {
                LifeLogEvent::new(
                    UserId::new(worker as u32),
                    Timestamp::from_millis(((round * 100 + step) * BATCH + i) * 100 + worker),
                    EventKind::Transaction { course: CourseId::new(1), campaign: None },
                )
            })
            .collect();
        ApiRequest::IngestBatch { events }
    };
    let (mut ok_total, mut busy_total, mut calls_total) = (0u64, 0u64, 0u64);
    for round in 0..20 {
        let workers: Vec<_> = (0..8u64)
            .map(|worker| {
                std::thread::spawn(move || {
                    let config = ClientConfig {
                        seed: Some(1000 + round * 8 + worker),
                        ..ClientConfig::default()
                    };
                    let mut client = SpaClient::connect_with(addr, config).unwrap();
                    let mut ok = 0u64;
                    let mut busy = 0u64;
                    for step in 0..10 {
                        let envelope = RequestEnvelope::stamped(client.next_request_id(), 0);
                        match client.call_enveloped(&envelope, &batch_request(worker, round, step))
                        {
                            Ok(outcome) => match outcome.response {
                                ApiResponse::Ingested { applied } => {
                                    assert_eq!(applied, BATCH);
                                    ok += 1;
                                }
                                other => panic!("unexpected response: {other:?}"),
                            },
                            Err(ClientError::Busy(message)) => {
                                assert!(
                                    message.contains("in flight"),
                                    "unexpected busy: {message}"
                                );
                                busy += 1;
                            }
                            Err(other) => panic!("unexpected failure: {other}"),
                        }
                    }
                    (ok, busy)
                })
            })
            .collect();
        for worker in workers {
            let (ok, busy) = worker.join().unwrap();
            ok_total += ok;
            busy_total += busy;
            calls_total += 10;
        }
        if busy_total > 0 {
            break;
        }
    }
    assert_eq!(ok_total + busy_total, calls_total, "every call accounted");
    assert!(busy_total > 0, "clients racing one slot must shed");
    assert!(ok_total > 0, "shedding must leave goodput: accepted requests still complete");
    assert_eq!(handle.stats().sheds.load(Ordering::Relaxed), busy_total);
    // shed requests were never dispatched: the platform holds exactly
    // the accepted writes, every accepted batch whole
    let mut client = SpaClient::connect(addr).unwrap();
    assert_eq!(transactions(&mut client), ok_total * BATCH);
    handle.shutdown();
}

/// Past the connection cap, accepts are answered with one loud busy
/// frame (under the reserved id 0) and refused — and the typed client
/// classifies that as retryable back-pressure.
#[test]
fn connection_cap_refusals_are_loud_and_counted() {
    let options = ServeOptions { max_connections: 1, ..ServeOptions::default() };
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", options).unwrap();
    let mut resident = SpaClient::connect(handle.addr()).unwrap();
    assert!(resident.call(&ApiRequest::Stats).is_ok());

    // raw socket: the refusal frame arrives unprompted, under id 0
    let mut refused = TcpStream::connect(handle.addr()).unwrap();
    refused.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = recv_frame(&mut refused).unwrap().expect("refusal frame");
    let (id, replayed, response) = spa_server::wire::decode_enveloped_response(&payload).unwrap();
    assert_eq!(id, 0);
    assert!(!replayed);
    match response {
        ApiResponse::Error { message } => {
            assert!(message.contains("connection cap"), "names the cause: {message}")
        }
        other => panic!("expected busy, got {other:?}"),
    }
    assert_eq!(handle.stats().connections_refused.load(Ordering::Relaxed), 1);

    // the typed client sees the same refusal as retryable back-pressure
    let mut client = SpaClient::connect(handle.addr()).unwrap();
    let error = client.call(&ApiRequest::Stats).unwrap_err();
    assert!(error.is_retryable(), "cap refusal must be retryable, got {error}");

    // the resident connection was never disturbed
    assert!(resident.call(&ApiRequest::Stats).is_ok());
    handle.shutdown();
}

/// The graceful exit: new frames are refused loudly while in-flight
/// work finishes, then the platform checkpoints and the server leaves.
#[test]
fn drain_refuses_new_frames_finishes_in_flight_and_checkpoints() {
    let root = tmp_root("drain");
    let courses = CourseCatalog::generate(10, 4, 3).unwrap();
    let spa = ShardedSpa::with_log(
        &courses,
        SpaConfig,
        2,
        &root,
        LogConfig { segment_bytes: 4096, fsync: false },
    )
    .unwrap();
    let mut handle =
        serve_with(Arc::new(SpaApi::new(Arc::new(spa))), "127.0.0.1:0", ServeOptions::default())
            .unwrap();
    let addr = handle.addr();
    let mut client = SpaClient::connect(addr).unwrap();
    assert!(client.call(&ingest(3, 1)).is_ok());

    handle.begin_drain();
    let error = client.call(&ingest(3, 2)).unwrap_err();
    match &error {
        ClientError::Busy(message) => {
            assert!(message.contains("draining"), "names the cause: {message}")
        }
        other => panic!("expected a draining refusal, got {other}"),
    }
    assert!(error.is_retryable(), "drain means retry elsewhere");
    assert_eq!(handle.stats().drain_rejects.load(Ordering::Relaxed), 1);

    let report = handle.finish_drain();
    assert!(report.quiesced, "all connections must finish inside the drain budget");
    match report.checkpoint {
        ApiResponse::Checkpointed { shards, .. } => assert_eq!(shards, 2),
        other => panic!("drain must cut a checkpoint, got {other:?}"),
    }
    // the listener is gone: new connections are refused at the socket
    assert!(SpaClient::connect(addr).is_err());
    drop(handle);
    let _ = std::fs::remove_dir_all(&root);
}

/// The exactly-once contract over a real socket: a second send of the
/// same envelope id does not re-execute — it replays the cached
/// response, flagged as such, byte-identical down the same wire path.
#[test]
fn a_retried_mutation_lands_exactly_once_and_replays_identically() {
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = SpaClient::connect(handle.addr()).unwrap();
    let request = ingest(7, 42);
    let id = client.next_request_id();

    let first = client.call_enveloped(&RequestEnvelope::stamped(id, 0), &request).unwrap();
    assert!(!first.replayed);
    let second = client.call_enveloped(&RequestEnvelope::stamped(id, 0), &request).unwrap();
    assert!(second.replayed, "the duplicate must be flagged as a replay");
    assert_eq!(second.response, first.response, "replay must be the cached answer");
    assert_eq!(handle.stats().dedup_hits.load(Ordering::Relaxed), 1);
    assert_eq!(transactions(&mut client), 1, "the mutation landed exactly once");
    handle.shutdown();
}

/// Two complete requests arriving in one segment are both answered, in
/// order, each with its own id and with the bytes in-process dispatch
/// produces: a frame boundary inside a read is not lost, whatever the
/// read side buffers.
#[test]
fn pipelined_frames_are_answered_in_order() {
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let twin = platform();
    let requests = [
        (RequestEnvelope::stamped(11, 0), ingest(7, 42)),
        (
            RequestEnvelope::stamped(12, 0),
            ApiRequest::Score { users: vec![UserId::new(7), UserId::new(8)] },
        ),
    ];
    let mut burst = Vec::new();
    let mut payload = BytesMut::new();
    for (envelope, request) in &requests {
        payload.clear();
        wire::encode_enveloped_request(envelope, request, &mut payload);
        wire::send_frame(&mut burst, &payload).unwrap();
    }
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&burst).unwrap();

    let mut expected = BytesMut::new();
    for (envelope, request) in &requests {
        let answer = recv_frame(&mut raw).unwrap().expect("a response frame per request");
        let (id, _, response) = wire::decode_enveloped_response(&answer).unwrap();
        assert_eq!(id, envelope.id, "responses must come back in request order");
        let local = twin.dispatch_enveloped(envelope, request);
        expected.clear();
        wire::encode_enveloped_response(
            envelope.id,
            local.replayed,
            &local.response,
            &mut expected,
        );
        assert_eq!(answer, expected.to_vec(), "served {response:?} differs from in-process");
    }
    assert_eq!(handle.stats().frames_served.load(Ordering::Relaxed), 2);
    drop(raw);
    handle.shutdown();
}

/// A request that arrives past its deadline is refused loudly and
/// never executed.
#[test]
fn expired_requests_are_refused_loudly_not_executed_late() {
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = SpaClient::connect(handle.addr()).unwrap();

    // stamped ten seconds ago with a 1ms budget: long expired
    let stale = RequestEnvelope {
        id: client.next_request_id(),
        sent_unix_micros: spa_core::now_unix_micros().saturating_sub(10_000_000),
        deadline_micros: 1_000,
    };
    let error = client.call_enveloped(&stale, &ingest(9, 1)).unwrap_err();
    assert!(
        matches!(error, ClientError::DeadlineExceeded(_)),
        "expected a deadline refusal, got {error}"
    );
    assert_eq!(handle.stats().deadline_rejects.load(Ordering::Relaxed), 1);
    assert_eq!(transactions(&mut client), 0, "an expired mutation must not execute");

    // a generous deadline passes untouched
    let fresh = RequestEnvelope::stamped(client.next_request_id(), 5_000_000);
    assert!(client.call_enveloped(&fresh, &ingest(9, 2)).is_ok());
    handle.shutdown();
}

fn fault_plan(seed: u64, tx: u32, rx: u32, stall: u32, partial: u32) -> Arc<NetFaultPlan> {
    Arc::new(NetFaultPlan::seeded(NetFaultConfig {
        seed,
        drop_tx_per_10k: tx,
        drop_rx_per_10k: rx,
        stall_per_10k: stall,
        partial_write_per_10k: partial,
    }))
}

/// Client-side injection honors the execution contract each fault kind
/// promises: a tx drop never executes, an rx drop and a stall execute
/// with the outcome lost (recovered via dedup replay), a partial write
/// is absorbed.
#[test]
fn injected_client_faults_follow_their_execution_contracts() {
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let addr = handle.addr();
    let mut expected_transactions = 0u64;

    // DropTx: the request was torn mid-frame — it must NOT have executed
    let plan = fault_plan(1, 10_000, 0, 0, 0);
    let config =
        ClientConfig { seed: Some(21), fault: Some(plan.clone()), ..ClientConfig::default() };
    let mut client = SpaClient::connect_with(addr, config).unwrap();
    let id = client.next_request_id();
    plan.set_armed(true);
    let error = client.call_enveloped(&RequestEnvelope::stamped(id, 0), &ingest(1, 1)).unwrap_err();
    assert!(error.text().contains(INJECTED_NET_DROP), "marked: {error}");
    assert!(error.text().contains("(tx)"), "attributable: {error}");
    plan.set_armed(false);
    let retry = client.call_enveloped(&RequestEnvelope::stamped(id, 0), &ingest(1, 1)).unwrap();
    assert!(!retry.replayed, "a torn request never executed, so the retry is the first run");
    expected_transactions += 1;
    assert_eq!(plan.ledger().counts().drops_tx, 1);

    // DropRx: the request was fully delivered — it DID execute
    let plan = fault_plan(2, 0, 10_000, 0, 0);
    let config =
        ClientConfig { seed: Some(22), fault: Some(plan.clone()), ..ClientConfig::default() };
    let mut client = SpaClient::connect_with(addr, config).unwrap();
    let id = client.next_request_id();
    plan.set_armed(true);
    let error = client.call_enveloped(&RequestEnvelope::stamped(id, 0), &ingest(2, 2)).unwrap_err();
    assert!(error.text().contains(INJECTED_NET_DROP) && error.text().contains("(rx)"));
    plan.set_armed(false);
    expected_transactions += 1; // the dropped call itself landed
    wait_until("rx-dropped write lands", Duration::from_secs(5), || {
        let mut probe = SpaClient::connect(addr).unwrap();
        transactions(&mut probe) == expected_transactions
    });
    let retry = client.call_enveloped(&RequestEnvelope::stamped(id, 0), &ingest(2, 2)).unwrap();
    assert!(retry.replayed, "the original executed; the retry must replay, not re-run");

    // Stall: marked timeout, request executed, outcome recovered by retry
    let plan = fault_plan(3, 0, 0, 10_000, 0);
    let config =
        ClientConfig { seed: Some(23), fault: Some(plan.clone()), ..ClientConfig::default() };
    let mut client = SpaClient::connect_with(addr, config).unwrap();
    let id = client.next_request_id();
    plan.set_armed(true);
    let error = client.call_enveloped(&RequestEnvelope::stamped(id, 0), &ingest(3, 3)).unwrap_err();
    assert!(matches!(error, ClientError::TimedOut(_)), "a stall is a timeout: {error}");
    assert!(error.text().contains(INJECTED_NET_STALL));
    plan.set_armed(false);
    expected_transactions += 1; // the stalled call landed too
    wait_until("stalled write lands", Duration::from_secs(5), || {
        let mut probe = SpaClient::connect(addr).unwrap();
        transactions(&mut probe) == expected_transactions
    });
    let retry = client.call_enveloped(&RequestEnvelope::stamped(id, 0), &ingest(3, 3)).unwrap();
    assert!(retry.replayed);

    // PartialWrite: absorbed by framing, the call just succeeds
    let plan = fault_plan(4, 0, 0, 0, 10_000);
    let config =
        ClientConfig { seed: Some(24), fault: Some(plan.clone()), ..ClientConfig::default() };
    let mut client = SpaClient::connect_with(addr, config).unwrap();
    plan.set_armed(true);
    let id = client.next_request_id();
    let outcome = client.call_enveloped(&RequestEnvelope::stamped(id, 0), &ingest(4, 4)).unwrap();
    assert!(!outcome.replayed);
    expected_transactions += 1;
    assert_eq!(plan.ledger().counts().partial_writes, 1);

    let mut probe = SpaClient::connect(addr).unwrap();
    assert_eq!(transactions(&mut probe), expected_transactions);
    assert_eq!(handle.stats().dedup_hits.load(Ordering::Relaxed), 2, "rx drop + stall replays");
    handle.shutdown();
}

/// `call_with_retry` heals injected weather end-to-end: one id, many
/// attempts, exactly one execution.
#[test]
fn call_with_retry_heals_drops_with_exactly_one_execution() {
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", ServeOptions::default()).unwrap();
    // 30% of calls lose their response after execution: retries must
    // recover every one of them through the dedup window
    let plan = fault_plan(0xC0FFEE, 0, 3_000, 0, 0);
    let config = ClientConfig {
        seed: Some(99),
        fault: Some(plan.clone()),
        retry: spa_server::RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        },
        ..ClientConfig::default()
    };
    let mut client = SpaClient::connect_with(handle.addr(), config).unwrap();
    plan.set_armed(true);
    let mut healed_calls = 0u64;
    for step in 0..40 {
        let report = client.call_with_retry(&ingest(5, step)).unwrap();
        assert!(!matches!(report.response, ApiResponse::Error { .. }));
        if report.replayed {
            healed_calls += 1;
        }
    }
    plan.set_armed(false);
    let drops = plan.ledger().counts().drops_rx;
    assert!(drops > 0, "a 30% rate over 40 calls must fire");
    assert!(healed_calls > 0 && healed_calls <= drops, "weathered calls end in a replay");
    // every dropped response forced exactly one extra dispatched
    // attempt, and every one of those was answered from the window
    assert_eq!(handle.stats().dedup_hits.load(Ordering::Relaxed), drops);
    let mut probe = SpaClient::connect(handle.addr()).unwrap();
    assert_eq!(transactions(&mut probe), 40, "exactly one execution per logical call");
    handle.shutdown();
}

/// Server-side response-path faults: counted, marked by severed
/// connections, and healed by the same retry discipline.
#[test]
fn server_side_response_faults_are_counted_and_healed_by_retry() {
    let plan = fault_plan(77, 1_000, 1_000, 0, 0);
    let options = ServeOptions { fault: Some(plan.clone()), ..ServeOptions::default() };
    let handle = serve_with(Arc::new(platform()), "127.0.0.1:0", options).unwrap();
    let config = ClientConfig {
        seed: Some(31),
        retry: spa_server::RetryPolicy {
            max_attempts: 10,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        },
        ..ClientConfig::default()
    };
    let mut client = SpaClient::connect_with(handle.addr(), config).unwrap();
    plan.set_armed(true);
    for step in 0..30 {
        let report = client.call_with_retry(&ingest(6, step)).unwrap();
        assert!(!matches!(report.response, ApiResponse::Error { .. }));
    }
    plan.set_armed(false);
    let severed = handle.stats().injected_disconnects.load(Ordering::Relaxed);
    assert!(severed > 0, "a ~19% combined rate over 30 calls must fire");
    assert_eq!(severed, plan.ledger().counts().must_surface());
    // a server-side fault always severs AFTER dispatch, so each one
    // forced exactly one extra attempt answered from the dedup window
    assert_eq!(handle.stats().dedup_hits.load(Ordering::Relaxed), severed);
    let mut probe = SpaClient::connect(handle.addr()).unwrap();
    assert_eq!(transactions(&mut probe), 30, "every response-path fault healed exactly once");
    handle.shutdown();
}
