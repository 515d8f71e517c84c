//! The per-layer probes of a traced run.
//!
//! Every traced run, whatever its workload, measures every layer the
//! same way: it times calls into each layer's public functions from
//! here, on platforms built exactly like the workloads' own. That is
//! what lets one traced run print every per-layer metric, and what
//! makes a layer's number comparable between workloads and commits.
//!
//! The serving budget is the centrepiece. Nothing inside the server can
//! be instrumented from outside, so the request stream a pinned TCP
//! closed loop just served is replayed in-process, stage by stage —
//! encode, frame, decode, `dispatch_enveloped`, encode, frame, decode —
//! on a twin platform. What the stages do not account for of the TCP
//! round trip is `server.transport_us`: the kernel socket path, the
//! thread hand-off and the connection loop.

use crate::fixture::{
    build_platform, cache_counts, campaigns, courses, mix, out_dir, user_range, Scale, WalDir, DIM,
};
use crate::inputs::{audiences, hot_set, scenario_ticks, serve_stream, Class};
use crate::metrics::Metrics;
use crate::runner::Step;
use crate::stats::{digest, median};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::engine_mixed::cycles;
use crate::workloads::engine_read::{AUDIENCE, RANK_K};
use crate::workloads::serve_closed::{response_hash, response_ok, Server};
use bytes::BytesMut;
use spa_campaign::campaign::{CampaignRunner, CampaignSpec, Channel};
use spa_campaign::experiment::{Experiment, ExperimentConfig};
use spa_core::platform::SpaConfig;
use spa_core::{ApiRequest, RequestEnvelope, ShardedSpa, Spa, SpaApi};
use spa_ml::svm::{LinearSvm, SvmConfig};
use spa_ml::{Classifier, Dataset};
use spa_server::{wire, ClientError};
use spa_store::codec;
use spa_store::fault::SplitMix64;
use spa_store::log::{EventLog, LogConfig};
use spa_store::shard_log::ShardedEventLog;
use spa_store::snapshot::{snapshot_path, Snapshot, SnapshotBuilder};
use spa_synth::catalog::CourseCatalog;
use spa_synth::population::{Population, PopulationConfig};
use spa_types::{CampaignId, ShardId, Timestamp};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes of the probe stream the pinned TCP closed loop makes; the
/// first starts from the freshly built platform (and is compared byte
/// for byte with the twin's), the rest are timed.
const CLOSED_PASSES: usize = 8;
/// Audience of the parallel-path scoring probe (>= 2048 engages rayon).
const PAR_AUDIENCE: usize = 16_384;

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Median over `passes` of the time one pass takes, per item, in ns.
/// Batching a whole pass under one clock read keeps the clock's own
/// ~25 ns out of calls that cost about as much.
fn ns_per_item(passes: usize, items: usize, mut pass: impl FnMut()) -> f64 {
    let mut per_item: Vec<f64> = (0..passes)
        .map(|_| {
            let start = Instant::now();
            pass();
            start.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&mut per_item)
}

/// Calls `call` until `seconds` have passed (at least three times),
/// returning the median duration of one call in ns.
fn p50_for(seconds: f64, mut call: impl FnMut(usize)) -> f64 {
    let (start, mut samples) = (Instant::now(), Vec::new());
    while samples.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        call(samples.len());
        samples.push(t.elapsed().as_nanos() as u64);
    }
    digest(&mut samples).p50_ns as f64
}

/// ns per step of a fixed SplitMix64 dependency chain: how fast the
/// CPU under the calling thread is running right now.
pub fn cpu_canary_ns(steps: u64) -> f64 {
    let start = Instant::now();
    let mut x = 0x5EED_u64;
    for i in 0..steps {
        x = mix(x, i);
    }
    black_box(x);
    start.elapsed().as_nanos() as f64 / steps as f64
}

/// Host-speed canaries, printed beside every run so that an outlier run
/// can be pinned on the host: [`cpu_canary_ns`] (`bench.ref_cpu_ns`) and
/// ns per hop of a pointer chase through a 64 MiB single-cycle
/// permutation (`bench.ref_mem_ns`).
pub fn host_canaries() -> (f64, f64) {
    let cpu_ns = cpu_canary_ns(4_000_000);
    const SLOTS: usize = 8 << 20; // 8 Mi u64 = 64 MiB
    const HOPS: usize = 1 << 20;
    let mut next: Vec<u64> = (0..SLOTS as u64).collect();
    let mut rng = SplitMix64::new(0xC4A5E);
    for i in (1..SLOTS).rev() {
        // Sattolo: one cycle through every slot
        next.swap(i, rng.gen_range(i as u64) as usize);
    }
    let start = Instant::now();
    let mut at = 0u64;
    for _ in 0..HOPS {
        at = next[at as usize];
    }
    black_box(at);
    (cpu_ns, start.elapsed().as_nanos() as f64 / HOPS as f64)
}

/// What the serving probes share: the request stream and what the TCP
/// run answered.
struct ServeProbe {
    stream: Vec<(Class, ApiRequest)>,
    /// Hash of the response each request of the first pass got over TCP.
    wire_hashes: Vec<u64>,
}

/// Pinned TCP closed loop over `stream` on `api`: [`CLOSED_PASSES`]
/// passes on one connection. Returns the median round trip of the timed
/// passes (ns) and the first pass's response hashes.
fn closed_loop(
    api: &Arc<SpaApi>,
    probe: &mut ServeProbe,
    seed: u64,
    m: &mut Metrics,
) -> (f64, Step) {
    let mut checks = Step::default();
    let all_cpus = sys::allowed_cpus().unwrap_or_default();
    // pin before the server starts so its threads inherit the mask
    let pinned = sys::pin_to_last_cpu().is_ok();
    if !pinned {
        println!("!!! sched_setaffinity FAILED: the closed-loop probe runs UNPINNED !!!");
    }
    let server = Server::start(api.clone());
    let mut client = server.connect(seed);
    let mut scratch = BytesMut::new();
    let mut samples = Vec::with_capacity(probe.stream.len() * CLOSED_PASSES);
    for pass in 0..CLOSED_PASSES {
        for (class, request) in &probe.stream {
            let start = Instant::now();
            let outcome = client.call(request);
            let nanos = start.elapsed().as_nanos() as u64;
            checks.attempted += 1;
            checks.failed += u64::from(!outcome.as_ref().is_ok_and(|r| response_ok(*class, r)));
            if pass == 0 {
                probe
                    .wire_hashes
                    .push(outcome.as_ref().map_or(0, |r| response_hash(r, &mut scratch)));
            } else {
                samples.push(nanos);
            }
        }
    }
    let counts = server.handle().stats().counts();
    drop(client);
    drop(server);
    if pinned {
        let _ = sys::set_allowed_cpus(&all_cpus);
    }
    m.set("server.frames_served", counts.frames_served as f64);
    m.set("server.sheds", counts.sheds as f64);
    m.set("server.dedup_hits", counts.dedup_hits as f64);
    m.set("server.deadline_rejects", counts.deadline_rejects as f64);
    // expected: every request served, nothing shed, replayed or expired
    checks.attempted += 1;
    checks.failed += u64::from(
        counts.frames_served != checks.attempted - 1
            || counts.sheds + counts.dedup_hits + counts.deadline_rejects != 0,
    );
    (digest(&mut samples).p50_ns as f64, checks)
}

/// Open loop at `rate` requests per second for `seconds`: Poisson
/// arrivals scheduled before the run, one spinning generator on one
/// connection, latency measured from the due time. Unpinned. Returns
/// (latency digest in ns, shed share, how late the generator sent, ns).
fn open_loop(
    api: &Arc<SpaApi>,
    stream: &[(Class, ApiRequest)],
    seed: u64,
    rate: f64,
    seconds: f64,
) -> (crate::stats::Digest, f64, Vec<u64>, Step) {
    let mut rng = SplitMix64::new(seed ^ 0xA221_7A15 ^ rate as u64);
    let total = ((rate * seconds) as usize).max(20);
    let mut due_ns = Vec::with_capacity(total);
    let mut clock = 0.0f64;
    for _ in 0..total {
        // exponential gaps make Poisson arrivals; u in (0, 1)
        let u = (rng.gen_range(1 << 53) as f64 + 0.5) / (1u64 << 53) as f64;
        clock += -1e9 / rate * (1.0 - u).ln();
        due_ns.push(clock as u64);
    }
    let server = Server::start(api.clone());
    let mut client = server.connect(seed ^ rate as u64);
    let (mut latencies, mut late) = (Vec::with_capacity(total), Vec::with_capacity(total));
    let (mut shed, mut checks) = (0u64, Step::default());
    let origin = Instant::now() + Duration::from_millis(20);
    for (i, &due) in due_ns.iter().enumerate() {
        let due = origin + Duration::from_nanos(due);
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        late.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        let (class, request) = &stream[i % stream.len()];
        let outcome = client.call(request);
        latencies.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        checks.attempted += 1;
        match outcome {
            Ok(response) if response_ok(*class, &response) => {}
            Err(ClientError::Busy(_)) => shed += 1,
            _ => checks.failed += 1,
        }
    }
    drop(client);
    drop(server);
    (digest(&mut latencies), shed as f64 / total as f64, late, checks)
}

/// One frame's trip without a socket: `send_frame` into `framed`, then
/// `recv_frame_event` out of it (length and CRC checked on both sides,
/// the payload copied out as the server and client do).
fn through_a_frame(framed: &mut Vec<u8>, payload: &[u8]) -> Vec<u8> {
    framed.clear();
    wire::send_frame(framed, payload).expect("frame into memory");
    match wire::recv_frame_event(&mut framed.as_slice()) {
        Ok(wire::FrameEvent::Frame(payload)) => payload,
        other => panic!("an in-memory frame did not come back whole: {other:?}"),
    }
}

/// The in-process replay: every stage of a request's life timed over
/// the whole stream (so each figure is per request of the 70/10/15/5
/// mix), dispatch timed per call and per class on the twin, and the
/// first pass's responses compared byte for byte with the wire's.
fn replay(
    twin: &SpaApi,
    probe: &ServeProbe,
    closed_p50_ns: f64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Step {
    const PASSES: usize = 9;
    let stream = &probe.stream;
    let n = stream.len();
    // ids 1.. (0 would opt out of dedup); no stamp, so no deadline
    let envelope =
        |i: usize| RequestEnvelope { id: i as u64 + 1, sent_unix_micros: 0, deadline_micros: 0 };
    let mut checks = Step::default();
    let mut scratch = BytesMut::new();

    // ---- first pass, with a span around every stage of every request:
    // the trace's picture of one request, and the wire ≡ in-process check
    tracer.set_enabled(true);
    let (mut request_payloads, mut response_payloads) =
        (Vec::with_capacity(n), Vec::with_capacity(n));
    let mut framed = Vec::new();
    for (i, (_, request)) in stream.iter().enumerate() {
        let op = i as u64;
        let root = tracer.begin("bench::replayed_request", None, op);
        let span = tracer.begin("server::wire::encode_enveloped_request", root, op);
        scratch.clear();
        wire::encode_enveloped_request(&envelope(i), request, &mut scratch);
        tracer.end(span);
        let span = tracer.begin("server::wire::send_frame+recv_frame_event", root, op);
        let payload = through_a_frame(&mut framed, &scratch);
        tracer.end(span);
        let span = tracer.begin("server::wire::decode_enveloped_request", root, op);
        let (decoded_envelope, decoded) =
            wire::decode_enveloped_request(&payload).expect("decode own encoding");
        tracer.end(span);
        let span = tracer.begin("api::SpaApi::dispatch_enveloped", root, op);
        let dispatched = twin.dispatch_enveloped(&decoded_envelope, &decoded);
        tracer.end(span);
        let span = tracer.begin("server::wire::encode_enveloped_response", root, op);
        scratch.clear();
        wire::encode_enveloped_response(
            decoded_envelope.id,
            dispatched.replayed,
            &dispatched.response,
            &mut scratch,
        );
        tracer.end(span);
        let span = tracer.begin("server::wire::send_frame+recv_frame_event", root, op);
        let response_payload = through_a_frame(&mut framed, &scratch);
        tracer.end(span);
        let span = tracer.begin("server::wire::decode_enveloped_response", root, op);
        let (_, _, response) =
            wire::decode_enveloped_response(&response_payload).expect("decode own encoding");
        tracer.end(span);
        tracer.end(root);
        checks.attempted += 1;
        checks.failed += u64::from(response_hash(&response, &mut scratch) != probe.wire_hashes[i]);
        request_payloads.push(payload);
        response_payloads.push(response_payload);
    }
    tracer.set_enabled(false);
    println!(
        "wire == in-process: {} of {n} replayed responses byte-identical to the TCP run's",
        checks.attempted - checks.failed
    );

    // ---- the wire stages, a whole pass under one clock read
    let responses: Vec<_> = response_payloads
        .iter()
        .map(|p| wire::decode_enveloped_response(p).expect("decode own encoding"))
        .collect();
    let encode_request = ns_per_item(PASSES, n, || {
        for (i, (_, request)) in stream.iter().enumerate() {
            scratch.clear();
            wire::encode_enveloped_request(&envelope(i), request, &mut scratch);
            black_box(&scratch);
        }
    });
    let decode_request = ns_per_item(PASSES, n, || {
        for payload in &request_payloads {
            black_box(wire::decode_enveloped_request(payload).expect("decode own encoding"));
        }
    });
    let encode_response = ns_per_item(PASSES, n, || {
        for (id, replayed, response) in &responses {
            scratch.clear();
            wire::encode_enveloped_response(*id, *replayed, response, &mut scratch);
            black_box(&scratch);
        }
    });
    let decode_response = ns_per_item(PASSES, n, || {
        for payload in &response_payloads {
            black_box(wire::decode_enveloped_response(payload).expect("decode own encoding"));
        }
    });
    // one frame = send_frame + recv_frame_event through memory, CRC on
    // both sides; a request crosses two (its own and its response's)
    let frame = ns_per_item(PASSES, 2 * n, || {
        for payload in request_payloads.iter().chain(&response_payloads) {
            black_box(through_a_frame(&mut framed, payload));
        }
    });

    // ---- dispatch, per call and per class, on the twin (fresh envelope
    // ids each pass, or the dedup window would answer the mutations)
    let mut by_class: [Vec<u64>; 4] = Default::default();
    for pass in 1..=3 {
        for (i, (class, request)) in stream.iter().enumerate() {
            let envelope = envelope(pass * n + i);
            let start = Instant::now();
            let dispatched = twin.dispatch_enveloped(&envelope, request);
            by_class[class.index()].push(start.elapsed().as_nanos() as u64);
            checks.attempted += 1;
            checks.failed += u64::from(!response_ok(*class, &dispatched.response));
        }
    }
    let dispatch: Vec<f64> = by_class.iter_mut().map(|s| digest(s).p50_ns as f64).collect();
    let share = |class: Class| by_class[class.index()].len() as f64 / (3 * n) as f64;
    let dispatch_mix: f64 = Class::ALL.iter().map(|&c| share(c) * dispatch[c.index()]).sum();

    let stages = encode_request + decode_request + encode_response + decode_response + 2.0 * frame;
    let transport_ns = closed_p50_ns - stages - dispatch_mix;
    m.set("server.wire.encode_request_ns", encode_request);
    m.set("server.wire.decode_request_ns", decode_request);
    m.set("server.wire.encode_response_ns", encode_response);
    m.set("server.wire.decode_response_ns", decode_response);
    m.set("server.wire.frame_ns", frame);
    m.set("api.dispatch_ns.score", dispatch[Class::Score.index()]);
    m.set("api.dispatch_ns.rank_top_k", dispatch[Class::RankTopK.index()]);
    m.set("api.dispatch_ns.ingest", dispatch[Class::Ingest.index()]);
    m.set("api.dispatch_ns.observe_outcome", dispatch[Class::ObserveOutcome.index()]);
    m.set("api.dedup_occupancy", twin.dedup().len() as f64);
    m.set("server.closed.latency_p50_us", closed_p50_ns / 1e3);
    m.set("server.transport_us", transport_ns / 1e3);
    m.set("server.transport_share", transport_ns / closed_p50_ns);
    println!(
        "serving budget  round trip p50 {:.2} us = wire stages {:.2} us + dispatch (mix) {:.2} us + transport {:.2} us",
        closed_p50_ns / 1e3,
        stages / 1e3,
        dispatch_mix / 1e3,
        transport_ns / 1e3
    );
    // a negative residual would mean the stages were mis-measured
    checks.attempted += 1;
    checks.failed += u64::from(transport_ns < 0.0);
    checks
}

/// Engine probes on the twin (no WAL): warm reads, reads after writes,
/// the parallel path, the cache-free reference path.
fn core_reads(twin: &ShardedSpa, scale: &Scale, seed: u64, each: f64, m: &mut Metrics) {
    let ring = audiences(seed ^ 1, scale.users, 64, AUDIENCE);
    for audience in &ring {
        twin.score_users(audience).expect("warm the probe audiences");
    }
    let (hits0, misses0) = cache_counts(twin);
    let score = p50_for(each, |i| drop(black_box(twin.score_users(&ring[i % ring.len()]))));
    let rank = p50_for(each, |i| drop(black_box(twin.rank_top_k(&ring[i % ring.len()], RANK_K))));
    let (hits1, misses1) = cache_counts(twin);
    m.set("core.score_users.warm_ns_per_user", score / AUDIENCE as f64);
    m.set("core.rank_top_k.warm_ns_per_user", rank / AUDIENCE as f64);
    m.set(
        "core.cache.hit_ratio.warm_read",
        (hits1 - hits0) as f64 / (hits1 - hits0 + misses1 - misses0) as f64,
    );

    // the two halves of an engine_mixed cycle, timed apart
    let ring = cycles(seed ^ 2, scale.users, 256);
    let (mut ingest, mut after_write) = (Vec::new(), Vec::new());
    let publishes0 = twin.publication_stats().model_publishes;
    let start = Instant::now();
    while ingest.len() < 3 || start.elapsed().as_secs_f64() < 2.0 * each {
        let cycle = &ring[ingest.len() % ring.len()];
        let t = Instant::now();
        twin.ingest_batch(&cycle.events).expect("probe ingest_batch");
        ingest.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        black_box(twin.score_users(&cycle.users).expect("probe score_users"));
        after_write.push(t.elapsed().as_nanos() as u64);
    }
    let events = (ingest.len() * ring[0].events.len()) as f64;
    let (hits2, misses2) = cache_counts(twin);
    let per_cycle = ring[0].events.len() as f64;
    m.set("core.ingest_batch.small_ns_per_event", digest(&mut ingest).p50_ns as f64 / per_cycle);
    m.set(
        "core.score_users.after_write_ns_per_user",
        digest(&mut after_write).p50_ns as f64 / per_cycle,
    );
    m.set(
        "core.cache.hit_ratio.after_write",
        (hits2 - hits1) as f64 / (hits2 - hits1 + misses2 - misses1) as f64,
    );
    m.set(
        "core.epoch.model_publishes_per_event",
        (twin.publication_stats().model_publishes - publishes0) as f64 / events,
    );

    let big = &audiences(seed ^ 3, scale.users, 1, PAR_AUDIENCE.min(scale.users as usize))[0];
    let par = p50_for(each / 2.0, |_| drop(black_box(twin.score_users(big))));
    m.set("core.score_users.par_ns_per_user", par / big.len() as f64);

    let users = &ring[0].users;
    let advice = ns_per_item(9, users.len(), || {
        for &user in users {
            black_box(twin.advice_row(user).expect("prefilled user"));
        }
    });
    m.set("core.advice_row_ns", advice);
}

/// `spa-ml` and `spa-linalg` kernels on the twin's advice rows.
fn ml_kernels(twin: &ShardedSpa, scale: &Scale, m: &mut Metrics) {
    let rows: Vec<_> = user_range(scale.train_rows)
        .into_iter()
        .map(|user| twin.advice_row(user).expect("training users are prefilled"))
        .collect();
    let mut data = Dataset::new(DIM);
    for row in &rows {
        data.push(row, if row.get(65) > 0.4 { 1.0 } else { -1.0 }).expect("75-wide row");
    }
    let mut svm = LinearSvm::new(DIM, SvmConfig::default());
    let mut fits: Vec<f64> = (0..3)
        .map(|_| {
            svm = LinearSvm::new(DIM, SvmConfig::default());
            let start = Instant::now();
            svm.fit(&data).expect("fit on advice rows");
            ms_since(start)
        })
        .collect();
    m.set("ml.svm.fit_ms", median(&mut fits));
    let decision = ns_per_item(9, rows.len(), || {
        for row in &rows {
            black_box(svm.decision_view(row.view()).expect("trained"));
        }
    });
    m.set("ml.svm.decision_view_ns", decision);
    let weights = svm.weights().to_vec();
    let dot = ns_per_item(9, rows.len(), || {
        for row in &rows {
            black_box(row.dot_dense(&weights));
        }
    });
    m.set("linalg.sparse_dot_ns", dot);
    let partial = ns_per_item(9, rows.len(), || {
        for (i, row) in rows.iter().enumerate() {
            svm.partial_fit_view(row.view(), if i % 2 == 0 { 1.0 } else { -1.0 })
                .expect("75-wide row");
        }
    });
    m.set("ml.svm.partial_fit_ns", partial);
}

/// Durable write paths on the WAL-backed platform, then the store
/// codecs and log on the same events.
fn writes_and_store(spa: &ShardedSpa, scale: &Scale, seed: u64, each: f64, m: &mut Metrics) {
    let start = Instant::now();
    let ticks = scenario_ticks(seed ^ 4, scale.users, 8, 4096);
    m.set("synth.scenario_ns_per_event", start.elapsed().as_nanos() as f64 / (8.0 * 4096.0));
    let batch = p50_for(each, |i| drop(black_box(spa.ingest_batch(&ticks[i % ticks.len()]))));
    m.set("core.ingest_batch.ns_per_event", batch / 4096.0);
    let events = &ticks[0];
    let single = ns_per_item(5, events.len(), || {
        for event in events {
            // 2 % of the EIT answers are rejected by design; both outcomes are the path
            let _ = black_box(spa.ingest(event));
        }
    });
    m.set("core.ingest.ns_per_event", single);
    let outcome = ns_per_item(5, 512, || {
        for (i, event) in events.iter().take(512).enumerate() {
            spa.observe_outcome(event.user, i % 2 == 0).expect("prefilled user");
        }
    });
    m.set("core.observe_outcome_ns", outcome);

    let mut frames = BytesMut::new();
    let encode = ns_per_item(15, events.len(), || {
        frames.clear();
        for event in events {
            codec::encode_frame(event, &mut frames);
        }
        black_box(&frames);
    });
    m.set("store.encode_frame_ns", encode);
    let decode = ns_per_item(15, events.len(), || {
        let mut at = 0;
        while at < frames.len() {
            let codec::FrameRead::Event(event, used) =
                codec::decode_frame(&frames[at..]).expect("own frames")
            else {
                panic!("own frames are complete")
            };
            black_box(event);
            at += used;
        }
    });
    m.set("store.decode_frame_ns", decode);
    let block = vec![0xA5u8; 64 * 1024];
    m.set(
        "store.crc32_ns_per_kib",
        ns_per_item(15, 64, || {
            black_box(codec::crc32(black_box(&block)));
        }),
    );

    let dir = WalDir::create();
    let log = EventLog::open(dir.path(), LogConfig::default()).expect("open probe log");
    let append = ns_per_item(25, events.len(), || {
        log.append_encoded(&frames).expect("append own frames");
    });
    m.set("store.append_encoded_ns_per_event", append);
    log.flush().expect("flush probe log");
    let start = Instant::now();
    let replayed =
        EventLog::replay_iter(dir.path()).expect("open replay").filter(|e| e.is_ok()).count();
    assert_eq!(replayed, 25 * events.len(), "replay returns what was appended");
    m.set("store.replay_ns_per_event", start.elapsed().as_nanos() as f64 / replayed as f64);
}

/// `spa-synth` and `spa-campaign`: population generation, a small
/// experiment (quality values must repeat exactly for a seed) and
/// `CampaignRunner::run_collect` alone.
fn campaign_probes(scale: &Scale, seed: u64, m: &mut Metrics) -> Step {
    let n_users = scale.campaign_users / 4;
    let start = Instant::now();
    let population = Population::generate(PopulationConfig { n_users, seed, ..Default::default() })
        .expect("generate population");
    m.set("synth.population_generate_ms", ms_since(start));
    drop(population);

    let experiment = Experiment::new(ExperimentConfig { n_users, seed, ..Default::default() })
        .expect("valid experiment configuration");
    let mut seconds = Vec::new();
    let mut results = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        results.push(experiment.run().expect("experiment run"));
        seconds.push(start.elapsed().as_secs_f64());
    }
    let result = &results[0];
    m.set("campaign.experiment_run_s", median(&mut seconds));
    m.set("campaign.auc", result.auc);
    m.set("campaign.captured_at_40", result.captured_at_40);
    m.set("campaign.redemption_improvement", result.redemption_improvement);
    let same = results.iter().all(|r| format!("{r:?}") == format!("{result:?}"));
    let checks = Step { nanos: 0, attempted: 1, failed: u64::from(!(same && result.auc > 0.5)) };

    let catalog = CourseCatalog::generate(120, 12, seed ^ 0xC0).expect("course catalog");
    let course =
        catalog.courses().find(|c| !c.appeal.is_empty()).expect("a course with an appeal").clone();
    let spec = CampaignSpec {
        id: CampaignId::new(7),
        channel: Channel::Push,
        target_size: n_users / 2,
        course,
        at: Timestamp::from_millis(0),
        seed,
    };
    let spa = Spa::new(&catalog, SpaConfig::default());
    let runner = CampaignRunner::new(experiment.population(), experiment.response());
    let mut per_contact: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let (outcome, _) =
                runner.run_collect(&spa, &spec, |_, _, _| (0.0, ())).expect("run_collect");
            start.elapsed().as_nanos() as f64 / outcome.contacts.len() as f64
        })
        .collect();
    m.set("campaign.run_collect_ns_per_contact", median(&mut per_contact));
    checks
}

/// Runs every probe and records every per-layer metric except the
/// runner's own (`workload.*`, `bench.*`). `seconds` is the time the
/// open-ended probe loops share; probes that make a fixed number of
/// passes add a few seconds on top at full scale.
pub fn probe(scale: &Scale, seed: u64, seconds: f64, tracer: &mut Tracer, m: &mut Metrics) -> Step {
    let mut checks = Step::default();
    let mut tally = |step: Step| {
        checks.attempted += step.attempted;
        checks.failed += step.failed;
    };
    let each = seconds / 16.0;
    println!("== layer probes ({} users, loops of {each:.2} s)", scale.users);

    // ---- the WAL-backed platform: exact storage counts first
    let wal = WalDir::create();
    let users = user_range(scale.users);
    let train_on = &users[..scale.train_rows as usize];
    let (spa, times) = build_platform(&users, train_on, seed, Some(wal.path()));
    m.set("core.train_selection_ms", times.train_selection_ms);
    spa.flush().expect("flush WAL");
    let wal_bytes = spa.log().expect("durable platform").stats().expect("log stats").bytes;
    m.set("store.wal_bytes_per_event", wal_bytes as f64 / times.prefill_events as f64);
    let start = Instant::now();
    let checkpoint = spa.checkpoint().expect("checkpoint");
    m.set("core.checkpoint_ms", ms_since(start));
    m.set(
        "store.snapshot_bytes_per_user",
        checkpoint.snapshot_bytes as f64 / f64::from(scale.users),
    );
    let shard0 = ShardedEventLog::shard_path(wal.path(), ShardId::new(0));
    let snapshot_file = snapshot_path(&shard0, checkpoint.positions[0]);
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for _ in 0..3 {
        let start = Instant::now();
        let snapshot = Snapshot::read(&snapshot_file).expect("read shard 0 snapshot");
        reads.push(ms_since(start));
        let mut builder = SnapshotBuilder::new(snapshot.position());
        for (tag, payload) in snapshot.sections() {
            builder.section(*tag, payload.clone());
        }
        let copy = out_dir().join(format!("probe-{}.snap", std::process::id()));
        let start = Instant::now();
        builder.write_atomic(&copy).expect("write snapshot copy");
        writes.push(ms_since(start));
        let _ = std::fs::remove_file(&copy);
    }
    m.set("store.snapshot_read_ms", median(&mut reads));
    m.set("store.snapshot_write_ms", median(&mut writes));
    let start = Instant::now();
    spa.compact().expect("compact");
    m.set("core.compact_ms", ms_since(start));

    // ---- serving: pinned closed loop, then the open loops, over TCP
    let api = Arc::new(SpaApi::new(Arc::new(spa)));
    let hot = hot_set(seed, scale.users, scale.hot_users);
    let mut serve = ServeProbe {
        stream: serve_stream(seed ^ 5, &hot, scale.probe_requests),
        wire_hashes: Vec::with_capacity(scale.probe_requests),
    };
    let (closed_p50_ns, closed_checks) = closed_loop(&api, &mut serve, seed, m);
    tally(closed_checks);
    let (r1000, _, mut late, step) = open_loop(&api, &serve.stream, seed, 1000.0, 3.0 * each);
    tally(step);
    let (r8000, shed_share, late8000, step) =
        open_loop(&api, &serve.stream, seed, 8000.0, 3.0 * each);
    tally(step);
    late.extend(late8000);
    late.sort_unstable();
    m.set("server.open.r1000.latency_p50_us", r1000.p50_ns as f64 / 1e3);
    m.set("server.open.r1000.latency_tail_us", r1000.tail_ns as f64 / 1e3);
    m.set("server.open.r8000.latency_p50_us", r8000.p50_ns as f64 / 1e3);
    m.set("server.open.r8000.latency_tail_us", r8000.tail_ns as f64 / 1e3);
    m.set("server.open.r8000.shed_share", shed_share);
    m.set(
        "server.open.generator_late_p99_us",
        crate::stats::percentile_sorted(&late, 99.0) as f64 / 1e3,
    );
    println!(
        "open loop       1000/s p50 {:.1} us p{} {:.1} us (n={}) | 8000/s p50 {:.1} us p{} {:.1} us (n={}) — informational",
        r1000.p50_ns as f64 / 1e3, r1000.tail_pct, r1000.tail_ns as f64 / 1e3, r1000.count,
        r8000.p50_ns as f64 / 1e3, r8000.tail_pct, r8000.tail_ns as f64 / 1e3, r8000.count,
    );

    // ---- the twin: in-process replay, engine reads, ml kernels
    let (twin, _) = build_platform(&users, train_on, seed, None);
    let twin = SpaApi::new(Arc::new(twin));
    tally(replay(&twin, &serve, closed_p50_ns, tracer, m));
    core_reads(twin.platform(), scale, seed, each, m);
    ml_kernels(twin.platform(), scale, m);
    drop(twin);

    // ---- durable writes, then recovery of what they left behind
    writes_and_store(api.platform(), scale, seed, each, m);
    api.platform().flush().expect("flush WAL before recovery");
    let live_stats = api.platform().stats();
    drop(api); // the servers are gone, so this is the platform's last owner
    let start = Instant::now();
    let (recovered, _) = ShardedSpa::recover(
        &courses(),
        SpaConfig::default(),
        &campaigns(),
        wal.path(),
        LogConfig::default(),
    )
    .expect("recover the probe platform");
    m.set("core.recover_ms", ms_since(start));
    tally(Step { nanos: 0, attempted: 1, failed: u64::from(recovered.stats() != live_stats) });
    drop(recovered);

    tally(campaign_probes(scale, seed, m));
    checks
}
