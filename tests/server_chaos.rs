//! Server chaos soak: exactly-once serving across process kills.
//!
//! A write-ahead-logged platform serves real TCP traffic — a
//! fault-injected mutator issuing idempotent retried writes, plus
//! free-running reader threads — while the serving process is
//! **hard-killed and recovered every cycle**. A seeded
//! [`NetFaultPlan`] on the client side tears request frames, severs
//! response paths and stalls reads; a second plan on the server side
//! severs and tears responses after dispatch. Every cycle also leaves
//! one deliberately ambiguous write in flight at the moment of the
//! kill (sent, never acknowledged, socket held open across the kill).
//!
//! Three pillars, all exact:
//!
//! 1. **Bit identity.** After every recovery the platform's observable
//!    surface (stats, advice rows, EIT schedules, selection weights,
//!    scores, rankings) must be bit-identical to a fault-free
//!    in-memory twin fed exactly the acknowledged operations.
//! 2. **Exactly once.** Every retried mutation applied once — proven
//!    three ways: the dedup-hit arithmetic balances attempt-by-attempt,
//!    the twin (fed each op once) stays bit-identical, and a final
//!    full-WAL scan finds every acknowledged timestamp exactly once
//!    and every refused one absent.
//! 3. **Zero unaccounted faults.** Both fault ledgers, both process
//!    kill ledgers and the server's counters balance to zero
//!    unexplained events: every injection maps to a marked client
//!    error, a counted server sever, or an absorbed split.
//!
//! `SPA_SERVER_CHAOS_CYCLES` overrides the kill/recover cycle count
//! (the default exceeds the 25-cycle floor).

use bytes::BytesMut;
use spa::core::platform::SpaConfig;
use spa::core::{now_unix_micros, ApiRequest, ApiResponse, RequestEnvelope, ShardedSpa, SpaApi};
use spa::ml::Dataset;
use spa::server::wire::{encode_enveloped_request, send_frame};
use spa::server::{
    serve_with, ClientConfig, ClientError, NetFaultConfig, NetFaultPlan, ServeOptions,
    ServerCounts, SpaClient, INJECTED_NET_DROP, INJECTED_NET_STALL, MASKED_RESPONSE_LOSS,
};
use spa::store::fault::SplitMix64;
use spa::store::log::{EventLog, LogConfig, LogPosition};
use spa::store::ShardedEventLog;
use spa::synth::catalog::CourseCatalog;
use spa::types::{
    CampaignId, CourseId, EmotionalAttribute, EventKind, LifeLogEvent, ShardId, Timestamp, UserId,
    Valence,
};
use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

const SHARDS: usize = 2;
const N_USERS: u32 = 48;
const READERS: usize = 3;
const OPS_PER_CYCLE: usize = 30;
/// Bound on attempts per logical op; at the soak's fault rates the
/// chance of a single op needing even ten is astronomically small, so
/// hitting this means retry itself is broken.
const MAX_ATTEMPTS_PER_OP: u64 = 200;

fn tmp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-server-chaos-{}-{}",
        std::process::id(),
        now_unix_micros()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn soak_cycles(default: usize) -> usize {
    std::env::var("SPA_SERVER_CHAOS_CYCLES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn log_config() -> LogConfig {
    LogConfig { segment_bytes: 64 * 1024, fsync: false }
}

fn soak_options(plan: &Arc<NetFaultPlan>) -> ServeOptions {
    // unlimited admission: shedding/reaping have their own dedicated
    // tests and CI legs; here every refusal counter must stay zero so
    // the fault ledgers balance without admission noise
    ServeOptions {
        max_connections: 0,
        max_in_flight: 0,
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        idle_timeout: None,
        fault: Some(plan.clone()),
    }
}

fn clean_config(seed: u64) -> ClientConfig {
    ClientConfig { seed: Some(seed), ..ClientConfig::default() }
}

fn transaction(user: u32, at: u64, course: u32, campaign: bool) -> LifeLogEvent {
    LifeLogEvent::new(
        UserId::new(user),
        Timestamp::from_millis(at),
        EventKind::Transaction {
            course: CourseId::new(course),
            campaign: campaign.then(|| CampaignId::new(1)),
        },
    )
}

/// The readers' view of the serving world. The soak pauses readers
/// (they park with their connections cleanly closed) before every
/// kill, so each reader error is attributable to the server-side
/// fault plan alone — never to a kill racing a read.
#[derive(Default)]
struct GateState {
    epoch: u64,
    addr: Option<SocketAddr>,
    paused: bool,
    parked: usize,
    stop: bool,
}

#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    fn publish(&self, addr: SocketAddr) {
        let mut st = self.state.lock().unwrap();
        st.epoch += 1;
        st.addr = Some(addr);
        st.paused = false;
        self.cv.notify_all();
    }

    fn pause_and_wait(&self, readers: usize) {
        let mut st = self.state.lock().unwrap();
        st.paused = true;
        self.cv.notify_all();
        while st.parked < readers {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn stop(&self) {
        let mut st = self.state.lock().unwrap();
        st.stop = true;
        self.cv.notify_all();
    }
}

enum ReaderStep {
    Run(u64, SocketAddr),
    Park,
    Stop,
}

/// What one reader thread observed: successful calls, errors carrying
/// an injection marker (must be zero — readers have no client-side
/// plan), and unmarked errors (server-side severs, charged against
/// the server plan's ledger).
#[derive(Default)]
struct ReaderTally {
    ok: u64,
    marked: u64,
    unmarked: u64,
}

fn reader_loop(gate: &Gate, known: &[UserId], seed: u64, kind: usize) -> ReaderTally {
    let mut tally = ReaderTally::default();
    let mut rng = SplitMix64::new(seed);
    let mut client: Option<SpaClient> = None;
    let mut client_epoch = 0u64;
    loop {
        let step = {
            let st = gate.state.lock().unwrap();
            if st.stop {
                ReaderStep::Stop
            } else if st.paused || st.addr.is_none() {
                ReaderStep::Park
            } else {
                ReaderStep::Run(st.epoch, st.addr.unwrap())
            }
        };
        match step {
            ReaderStep::Stop => return tally,
            ReaderStep::Park => {
                // drop the connection BEFORE parking: the kill must
                // find no reader sockets to sever
                client = None;
                let mut st = gate.state.lock().unwrap();
                st.parked += 1;
                gate.cv.notify_all();
                while !st.stop && (st.paused || st.addr.is_none()) {
                    st = gate.cv.wait(st).unwrap();
                }
                st.parked -= 1;
            }
            ReaderStep::Run(epoch, addr) => {
                if client.is_none() || client_epoch != epoch {
                    client = match SpaClient::connect_with(addr, clean_config(seed ^ epoch)) {
                        Ok(c) => {
                            client_epoch = epoch;
                            Some(c)
                        }
                        // the incarnation died between our gate read
                        // and the connect; the next gate read parks us
                        Err(_) => continue,
                    };
                }
                let request = match kind {
                    0 => ApiRequest::Stats,
                    1 => {
                        let user = known[rng.gen_range(known.len() as u64) as usize];
                        ApiRequest::Score { users: vec![user] }
                    }
                    _ => ApiRequest::RankTopK { users: known.to_vec(), k: 3 },
                };
                match client.as_mut().unwrap().call(&request) {
                    Ok(response) => {
                        assert!(
                            !matches!(response, ApiResponse::Error { .. }),
                            "reader got an error response: {response:?}"
                        );
                        tally.ok += 1;
                    }
                    Err(error) => {
                        let text = error.text();
                        if text.contains(INJECTED_NET_DROP) || text.contains(INJECTED_NET_STALL) {
                            tally.marked += 1;
                        } else {
                            assert!(error.is_retryable(), "reader hit a fatal error: {error}");
                            tally.unmarked += 1;
                        }
                        // a severed byte stream is gone; reconnect on
                        // the next pass through the gate
                        client = None;
                    }
                }
                std::thread::sleep(Duration::from_micros(300));
            }
        }
    }
}

/// The mutator's exact observation record, balanced against both
/// fault ledgers and the servers' dedup counters at the end.
#[derive(Default)]
struct MutatorTally {
    ops: u64,
    attempts: u64,
    /// Marked tx drops: the request deterministically did NOT execute.
    marked_tx: u64,
    /// Marked rx drops / stalls: the request executed, outcome lost.
    marked_rx: u64,
    marked_stall: u64,
    /// Marked rx/stall errors whose discarded response read itself
    /// failed — a server-side sever hid behind a client-side fault.
    masked_severs: u64,
    /// Unmarked retryable errors: server-side severs seen plainly.
    unmarked: u64,
}

impl MutatorTally {
    fn observe(&mut self, error: &ClientError) {
        let text = error.text();
        if text.contains(INJECTED_NET_DROP) {
            if text.contains("(tx)") {
                self.marked_tx += 1;
            } else {
                self.marked_rx += 1;
                if text.contains(MASKED_RESPONSE_LOSS) {
                    self.masked_severs += 1;
                }
            }
        } else if text.contains(INJECTED_NET_STALL) {
            self.marked_stall += 1;
            if text.contains(MASKED_RESPONSE_LOSS) {
                self.masked_severs += 1;
            }
        } else {
            assert!(error.is_retryable(), "mutator hit a fatal error: {error}");
            self.unmarked += 1;
        }
    }
}

/// Issues one logical mutation with idempotent retry — one request id
/// across every attempt — and returns only once acknowledged. Every
/// failed attempt is classified into the tally.
fn mutate_until_acked(
    client: &mut SpaClient,
    request: &ApiRequest,
    tally: &mut MutatorTally,
) -> ApiResponse {
    let id = client.next_request_id();
    let mut attempts = 0u64;
    loop {
        attempts += 1;
        assert!(attempts <= MAX_ATTEMPTS_PER_OP, "op did not land in {MAX_ATTEMPTS_PER_OP} tries");
        match client.call_enveloped(&RequestEnvelope::stamped(id, 0), request) {
            Ok(outcome) => {
                tally.attempts += attempts;
                tally.ops += 1;
                return outcome.response;
            }
            Err(error) => tally.observe(&error),
        }
    }
}

/// Replays everything the killed incarnation durably logged past the
/// already-mirrored positions into the fault-free twin, returning the
/// replayed timestamps. Acknowledged ops were mirrored in lockstep
/// (positions advanced past them), so anything found here can only be
/// the cycle's deliberately ambiguous kill-write.
fn resync_reference(
    reference: &ShardedSpa,
    root: &Path,
    positions: &mut [LogPosition],
    recovered: &ShardedSpa,
) -> Vec<u64> {
    let mut replayed = Vec::new();
    for (index, position) in positions.iter_mut().enumerate() {
        let shard = ShardId::new(index as u32);
        let dir = ShardedEventLog::shard_path(root, shard);
        for event in EventLog::replay_iter_from(&dir, *position).unwrap() {
            let event = event.unwrap();
            replayed.push(event.at.millis());
            reference.ingest(&event).unwrap();
        }
        *position = recovered.log().unwrap().buffered_position(shard);
    }
    replayed
}

fn sync_positions(live: &ShardedSpa, positions: &mut [LogPosition]) {
    for (index, position) in positions.iter_mut().enumerate() {
        *position = live.log().unwrap().buffered_position(ShardId::new(index as u32));
    }
}

/// Asserts the recovered platform's observable surface is bit-identical
/// to the fault-free reference (same discipline as the storage soak).
fn verify_bit_identity(live: &ShardedSpa, reference: &ShardedSpa, users: &[UserId], cycle: usize) {
    assert_eq!(live.stats(), reference.stats(), "cycle {cycle}: preprocessor stats diverge");
    assert_eq!(live.selection().is_trained(), reference.selection().is_trained());
    assert_eq!(
        live.selection().svm().bias().to_bits(),
        reference.selection().svm().bias().to_bits(),
        "cycle {cycle}: selection bias diverges"
    );
    for (a, b) in live.selection().svm().weights().iter().zip(reference.selection().svm().weights())
    {
        assert_eq!(a.to_bits(), b.to_bits(), "cycle {cycle}: selection weights diverge");
    }
    let mut known = Vec::new();
    for &user in users {
        assert_eq!(
            live.next_eit_question(user).id,
            reference.next_eit_question(user).id,
            "cycle {cycle}: EIT schedule diverges for {user}"
        );
        match (live.advice_row(user), reference.advice_row(user)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.indices(), b.indices(), "cycle {cycle}: {user} advice indices");
                for (x, y) in a.values().iter().zip(b.values()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "cycle {cycle}: {user} advice values");
                }
                known.push(user);
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("cycle {cycle}: {user} known on one platform only: {a:?} vs {b:?}"),
        }
    }
    if live.selection().is_trained() && !known.is_empty() {
        let scores_live = live.score_users(&known).unwrap();
        let scores_ref = reference.score_users(&known).unwrap();
        for ((ua, sa), (ub, sb)) in scores_live.iter().zip(scores_ref.iter()) {
            assert_eq!(ua, ub);
            assert_eq!(sa.to_bits(), sb.to_bits(), "cycle {cycle}: score diverges for {ua}");
        }
        let rank_live = live.rank(&known).unwrap();
        let rank_ref = reference.rank(&known).unwrap();
        for ((ua, sa), (ub, sb)) in rank_live.iter().zip(rank_ref.iter()) {
            assert_eq!(ua, ub, "cycle {cycle}: ranking order diverges");
            assert_eq!(sa.to_bits(), sb.to_bits());
        }
    }
}

#[test]
fn serving_survives_repeated_process_kills_with_exact_accounting() {
    let cycles = soak_cycles(26);
    let root = tmp_root();
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let campaigns = vec![(CampaignId::new(1), vec![EmotionalAttribute::Hopeful])];
    let users: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();

    let live = ShardedSpa::with_log(&courses, SpaConfig, SHARDS, &root, log_config()).unwrap();
    let reference = ShardedSpa::new(&courses, SpaConfig, SHARDS).unwrap();
    for platform in [&live, &reference] {
        for (campaign, attributes) in &campaigns {
            platform.register_campaign(*campaign, attributes);
        }
    }

    // ---- warmup: identical in-process seeding of both twins --------
    let mut next_ts = 0u64;
    let mut fresh_ts = move || {
        next_ts += 1;
        next_ts
    };
    // every timestamp that MUST be in the WAL exactly once / MUST NOT
    // be there at all by the end of the soak
    let mut expected_ts: Vec<u64> = Vec::new();
    let mut forbidden_ts: Vec<u64> = Vec::new();

    let mut warm = SplitMix64::new(0x5EED_50AC);
    for _ in 0..150 {
        let user = users[warm.gen_range(users.len() as u64) as usize];
        let question = live.next_eit_question(user).id;
        let event = LifeLogEvent::new(
            user,
            Timestamp::from_millis(fresh_ts()),
            EventKind::EitAnswer {
                question,
                answer: Valence::new((warm.gen_range(2000) as f64 / 1000.0) - 1.0),
            },
        );
        live.ingest(&event).unwrap();
        reference.ingest(&event).unwrap();
        expected_ts.push(event.at.millis());
    }
    let mut data = Dataset::new(75);
    let mut known = Vec::new();
    for &user in &users {
        if let Ok(row) = live.advice_row(user) {
            data.push(&row, if row.get(65) > 0.4 { 1.0 } else { -1.0 }).unwrap();
            known.push(user);
        }
    }
    assert!(known.len() >= 8, "warmup left too few known users: {}", known.len());
    live.train_selection(&data).unwrap();
    reference.train_selection(&data).unwrap();
    live.checkpoint().unwrap();
    verify_bit_identity(&live, &reference, &users, 0);

    let mut positions = vec![LogPosition::default(); SHARDS];
    sync_positions(&live, &mut positions);

    // ---- the two fault plans and the serving stack -----------------
    let client_plan = Arc::new(NetFaultPlan::seeded(NetFaultConfig {
        seed: 0xC11E_57F0,
        drop_tx_per_10k: 700,
        drop_rx_per_10k: 700,
        stall_per_10k: 500,
        partial_write_per_10k: 700,
    }));
    let server_plan = Arc::new(NetFaultPlan::seeded(NetFaultConfig {
        seed: 0x5E4F_57F0,
        drop_tx_per_10k: 300,
        drop_rx_per_10k: 200,
        stall_per_10k: 100,
        partial_write_per_10k: 300,
    }));

    let mut platform = Arc::new(live);
    let mut api = Arc::new(SpaApi::new(platform.clone()));
    let mut handle = serve_with(api.clone(), "127.0.0.1:0", soak_options(&server_plan)).unwrap();
    let mut stats = handle.stats_handle();
    let mut addr = handle.addr();

    let gate = Arc::new(Gate::default());
    let known = Arc::new(known);
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let gate = gate.clone();
            let known = known.clone();
            std::thread::Builder::new()
                .name(format!("chaos-reader-{t}"))
                .spawn(move || reader_loop(&gate, &known, 0x0BEA_D000 + t as u64, t))
                .unwrap()
        })
        .collect();
    gate.publish(addr);
    client_plan.set_armed(true);
    server_plan.set_armed(true);

    let mut tally = MutatorTally::default();
    let mut server_counts = ServerCounts::default();
    let mut outcomes_acked = 0u64;
    let mut deadline_probes = 0u64;
    let mut kills_landed = 0u64;
    let mut kills_reissued = 0u64;
    let mut pacer = SplitMix64::new(0x9ACE_D00D);

    for cycle in 1..=cycles {
        // -- mutation phase: retried writes through injected weather --
        let mut mutator = SpaClient::connect_with(
            addr,
            ClientConfig {
                seed: Some(0xC0FF_EE00 + cycle as u64),
                fault: Some(client_plan.clone()),
                ..ClientConfig::default()
            },
        )
        .unwrap();
        for _ in 0..OPS_PER_CYCLE {
            if pacer.gen_range(4) == 0 {
                let user = known[pacer.gen_range(known.len() as u64) as usize];
                let responded = pacer.gen_range(2) == 0;
                let request = ApiRequest::ObserveOutcome { user, responded };
                let response = mutate_until_acked(&mut mutator, &request, &mut tally);
                assert!(matches!(response, ApiResponse::OutcomeRecorded), "got {response:?}");
                reference.observe_outcome(user, responded).unwrap();
                outcomes_acked += 1;
            } else {
                let event = transaction(
                    pacer.gen_range(N_USERS as u64) as u32,
                    fresh_ts(),
                    pacer.gen_range(25) as u32,
                    pacer.gen_range(2) == 0,
                );
                let request = ApiRequest::Ingest { event: event.clone() };
                let response = mutate_until_acked(&mut mutator, &request, &mut tally);
                assert!(
                    matches!(response, ApiResponse::Ingested { applied: 1 }),
                    "got {response:?}"
                );
                reference.ingest(&event).unwrap();
                expected_ts.push(event.at.millis());
                sync_positions(&platform, &mut positions);
            }
        }

        // -- settle: park the readers, freeze the server's plan, so
        //    the kill can't be blamed for a drawn fault or vice versa
        gate.pause_and_wait(READERS);
        server_plan.set_armed(false);

        // -- deadline probe: a stale envelope must be refused loudly,
        //    and its event must never reach the WAL
        let probe_ts = fresh_ts();
        forbidden_ts.push(probe_ts);
        let mut probe =
            SpaClient::connect_with(addr, clean_config(0xBEEF_0000 + cycle as u64)).unwrap();
        let probe_id = probe.next_request_id();
        let stale = RequestEnvelope {
            id: probe_id,
            sent_unix_micros: now_unix_micros().saturating_sub(10_000_000),
            deadline_micros: 1_000,
        };
        let request = ApiRequest::Ingest { event: transaction(1, probe_ts, 1, false) };
        let error = probe.call_enveloped(&stale, &request).unwrap_err();
        assert!(
            matches!(error, ClientError::DeadlineExceeded(_)),
            "cycle {cycle}: expected a deadline refusal, got {error}"
        );
        deadline_probes += 1;
        drop(probe);
        drop(mutator);

        // -- the ambiguous write: sent whole, never acknowledged, its
        //    socket held open straight through the kill
        let kill_ts = fresh_ts();
        let kill_event = transaction(2 + (cycle as u32 % 8), kill_ts, 3, true);
        let mut payload = BytesMut::new();
        encode_enveloped_request(
            &RequestEnvelope::stamped(0xDEAD_0000 + cycle as u64, 0),
            &ApiRequest::Ingest { event: kill_event.clone() },
            &mut payload,
        );
        let mut kill_socket = TcpStream::connect(addr).unwrap();
        send_frame(&mut kill_socket, &payload).unwrap();

        // -- kill: sever every socket, join the acceptor, count what
        //    the dying incarnation saw
        handle.hard_kill();
        server_counts.accumulate(stats.counts());
        drop(kill_socket);
        drop(api);
        drop(platform);

        // -- recover, resolve the ambiguity, verify bit identity -----
        let (recovered, report) =
            ShardedSpa::recover(&courses, SpaConfig, &campaigns, &root, log_config()).unwrap();
        assert!(report.selection_restored, "cycle {cycle}: selection must restore (clean disk)");
        let replayed = resync_reference(&reference, &root, &mut positions, &recovered);
        assert!(
            replayed.iter().all(|&ts| ts == kill_ts),
            "cycle {cycle}: replay surfaced a non-kill write {replayed:?} — \
             an acknowledged op was not applied exactly once"
        );
        assert!(replayed.len() <= 1, "cycle {cycle}: kill write applied {}×", replayed.len());
        let landed = !replayed.is_empty();
        verify_bit_identity(&recovered, &reference, &users, cycle);

        platform = Arc::new(recovered);
        api = Arc::new(SpaApi::recovered(platform.clone(), report));
        handle = serve_with(api.clone(), "127.0.0.1:0", soak_options(&server_plan)).unwrap();
        stats = handle.stats_handle();
        addr = handle.addr();

        if landed {
            kills_landed += 1;
        } else {
            // the kill outran the write: re-issue it through a clean
            // client against the new incarnation — the retry story at
            // process-death scale
            let mut reissue =
                SpaClient::connect_with(addr, clean_config(0xFEED_0000 + cycle as u64)).unwrap();
            let response = reissue.call(&ApiRequest::Ingest { event: kill_event.clone() }).unwrap();
            assert!(matches!(response, ApiResponse::Ingested { applied: 1 }), "got {response:?}");
            reference.ingest(&kill_event).unwrap();
            sync_positions(&platform, &mut positions);
            kills_reissued += 1;
        }
        expected_ts.push(kill_ts);

        gate.publish(addr);
        server_plan.set_armed(true);
    }

    // ---- wind down: stop readers, drain gracefully, final recovery --
    gate.stop();
    let mut reader_tally = ReaderTally::default();
    for reader in readers {
        let tally = reader.join().unwrap();
        reader_tally.ok += tally.ok;
        reader_tally.marked += tally.marked;
        reader_tally.unmarked += tally.unmarked;
    }
    server_plan.set_armed(false);
    client_plan.set_armed(false);

    let drained_ts = fresh_ts();
    forbidden_ts.push(drained_ts);
    let mut drain_client = SpaClient::connect_with(addr, clean_config(0xD4A1_F00D)).unwrap();
    // one served call first: draining refuses *attached* sessions
    // loudly — a never-accepted connection would just be reset when
    // the acceptor stops
    assert!(matches!(drain_client.call(&ApiRequest::Stats).unwrap(), ApiResponse::Stats { .. }));
    handle.begin_drain();
    let refusal = drain_client
        .call(&ApiRequest::Ingest { event: transaction(1, drained_ts, 1, false) })
        .unwrap_err();
    match &refusal {
        ClientError::Busy(text) => assert!(text.contains("draining"), "got {text}"),
        other => panic!("expected a drain refusal, got {other}"),
    }
    let drain = handle.finish_drain();
    assert!(drain.quiesced, "drain must quiesce with no readers attached");
    assert!(
        matches!(drain.checkpoint, ApiResponse::Checkpointed { shards, .. } if shards == SHARDS as u32),
        "drain must cut a checkpoint, got {:?}",
        drain.checkpoint
    );
    server_counts.accumulate(stats.counts());
    drop(drain_client);
    drop(handle);
    drop(api);
    drop(platform);

    let (last, report) =
        ShardedSpa::recover(&courses, SpaConfig, &campaigns, &root, log_config()).unwrap();
    assert!(report.selection_restored);
    let replayed = resync_reference(&reference, &root, &mut positions, &last);
    assert!(replayed.is_empty(), "post-drain recovery replayed {replayed:?}");
    verify_bit_identity(&last, &reference, &users, cycles + 1);

    // ---- pillar 2, the direct proof: scan every shard WAL from the
    //      beginning — each acknowledged write exactly once, each
    //      refused one absent
    let mut seen: HashMap<u64, u32> = HashMap::new();
    for index in 0..SHARDS {
        let dir = ShardedEventLog::shard_path(&root, ShardId::new(index as u32));
        for event in EventLog::replay_iter_from(&dir, LogPosition::default()).unwrap() {
            *seen.entry(event.unwrap().at.millis()).or_insert(0) += 1;
        }
    }
    for (&ts, &count) in &seen {
        assert_eq!(count, 1, "timestamp {ts} logged {count} times — a retry double-applied");
    }
    let expected: HashSet<u64> = expected_ts.iter().copied().collect();
    assert_eq!(expected.len(), expected_ts.len(), "soak bug: duplicate expected timestamp");
    for ts in &expected_ts {
        assert!(seen.contains_key(ts), "acknowledged write {ts} missing from the WAL");
    }
    for ts in &forbidden_ts {
        assert!(!seen.contains_key(ts), "refused write {ts} reached the WAL");
    }
    assert_eq!(seen.len(), expected.len(), "WAL holds writes nobody acknowledged");

    // the selection WAL saw exactly the acknowledged outcomes
    let selection_dir = root.join("selection-wal");
    let selection_events = EventLog::replay_iter_from(&selection_dir, LogPosition::default())
        .unwrap()
        .inspect(|event| assert!(event.is_ok(), "corrupt selection WAL event"))
        .count() as u64;
    assert_eq!(selection_events, outcomes_acked, "selection WAL event count diverges");

    // ---- pillar 3: both ledgers and every counter balance exactly --
    let client_faults = client_plan.ledger().counts();
    let server_faults = server_plan.ledger().counts();
    assert_eq!(tally.marked_tx, client_faults.drops_tx, "unaccounted client tx drops");
    assert_eq!(tally.marked_rx, client_faults.drops_rx, "unaccounted client rx drops");
    assert_eq!(tally.marked_stall, client_faults.stalls, "unaccounted client stalls");
    assert!(client_faults.drops_tx > 0, "soak too calm: no tx drops drawn");
    assert!(client_faults.drops_rx > 0, "soak too calm: no rx drops drawn");
    assert!(client_faults.stalls > 0, "soak too calm: no stalls drawn");
    assert!(client_faults.partial_writes > 0, "soak too calm: no partial writes drawn");

    // every server-side sever surfaced exactly once: as an unmarked
    // mutator error, an unmarked reader error, or masked behind a
    // simultaneous client-side rx/stall injection
    assert_eq!(
        server_counts.injected_disconnects,
        server_faults.must_surface(),
        "server plan drew severs outside the response path"
    );
    assert_eq!(
        tally.unmarked + reader_tally.unmarked + tally.masked_severs,
        server_faults.must_surface(),
        "server-side severs do not balance against observed errors"
    );
    assert_eq!(reader_tally.marked, 0, "a plan-less reader saw an injection marker");
    assert!(reader_tally.ok > 0, "readers never completed a call");
    assert!(server_faults.must_surface() > 0, "soak too calm: no server severs drawn");

    // exactly-once arithmetic: every attempt beyond the first that was
    // not a torn request (which never reached dispatch) must have been
    // answered from the dedup window
    assert_eq!(
        server_counts.dedup_hits,
        tally.attempts - tally.ops - tally.marked_tx,
        "dedup hits diverge from retry arithmetic — an op re-executed or vanished"
    );

    assert_eq!(tally.ops, (cycles * OPS_PER_CYCLE) as u64);
    assert!(outcomes_acked > 0, "pacer never drew an outcome op");
    assert_eq!(deadline_probes, cycles as u64);
    assert_eq!(server_counts.deadline_rejects, cycles as u64, "unexpected deadline rejections");
    assert_eq!(server_counts.drain_rejects, 1, "exactly one drain refusal was provoked");
    assert_eq!(kills_landed + kills_reissued, cycles as u64);
    assert_eq!(server_counts.sheds, 0, "unlimited in-flight must never shed");
    assert_eq!(server_counts.connections_refused, 0, "unlimited connections must never refuse");
    assert_eq!(server_counts.idle_reaped, 0, "idle reaping was disabled");
    assert_eq!(server_counts.slow_reaped, 0, "no real slow-loris peers in this soak");
    // torn requests (client tx drops) and kill-writes caught mid-read
    // are the only legal corruption sources
    assert!(
        server_counts.corrupt_frames <= client_faults.drops_tx + cycles as u64,
        "corrupt frames ({}) exceed torn requests ({}) plus kill windows ({cycles})",
        server_counts.corrupt_frames,
        client_faults.drops_tx
    );

    eprintln!(
        "server chaos soak: {cycles} kills ({kills_landed} landed, {kills_reissued} re-issued), \
         {} ops in {} attempts, client faults {:?}, server severs {}, \
         reader calls {} ({} severed), corrupt frames {}",
        tally.ops,
        tally.attempts,
        client_faults,
        server_faults.must_surface(),
        reader_tally.ok,
        reader_tally.unmarked,
        server_counts.corrupt_frames
    );

    let _ = std::fs::remove_dir_all(&root);
}
