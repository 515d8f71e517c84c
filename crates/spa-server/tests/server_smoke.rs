//! Serving smoke: boot the TCP server over a live platform, drive a
//! mixed read/write workload through the binary protocol, and prove
//! every response is **bit-identical** to dispatching the same request
//! in-process against a twin platform — plus corruption handling over
//! a real socket.

use bytes::BytesMut;
use spa_core::platform::SpaConfig;
use spa_core::{ApiRequest, ApiResponse, ShardedSpa, SpaApi};
use spa_server::wire::{encode_response, recv_frame, send_frame};
use spa_server::{serve, SpaClient};
use spa_store::fault::SplitMix64;
use spa_synth::catalog::CourseCatalog;
use spa_types::{
    CampaignId, CourseId, EmotionalAttribute, EventKind, LifeLogEvent, Timestamp, UserId, Valence,
};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const N_USERS: u32 = 40;

fn platform(courses: &CourseCatalog) -> SpaApi {
    let spa = ShardedSpa::new(courses, SpaConfig, 3).unwrap();
    spa.register_campaign(CampaignId::new(1), &[EmotionalAttribute::Hopeful]);
    SpaApi::new(Arc::new(spa))
}

/// A deterministic mixed workload: reads (score / rank / stats) and
/// writes (ingest / batch / outcomes) interleaved.
fn workload(api: &SpaApi, rng: &mut SplitMix64, steps: usize) -> Vec<ApiRequest> {
    let mut requests = Vec::with_capacity(steps);
    for step in 0..steps {
        let user = UserId::new(rng.gen_range(N_USERS as u64) as u32);
        let request = match rng.gen_range(8) {
            0 | 1 => {
                let audience: Vec<UserId> = (0..1 + rng.gen_range(12))
                    .map(|_| UserId::new(rng.gen_range(N_USERS as u64) as u32))
                    .collect();
                ApiRequest::Score { users: audience }
            }
            2 => {
                let audience: Vec<UserId> = (0..N_USERS).map(UserId::new).collect();
                ApiRequest::RankTopK { users: audience, k: 1 + rng.gen_range(6) as u32 }
            }
            3 | 4 => {
                // the EIT schedule is platform state: ask the twin that
                // will serve this request stream what comes next
                let question = api.platform().next_eit_question(user).id;
                ApiRequest::Ingest {
                    event: LifeLogEvent::new(
                        user,
                        Timestamp::from_millis(step as u64),
                        EventKind::EitAnswer {
                            question,
                            answer: Valence::new((rng.gen_range(2000) as f64 / 1000.0) - 1.0),
                        },
                    ),
                }
            }
            5 => {
                let events: Vec<LifeLogEvent> = (0..3)
                    .map(|i| {
                        LifeLogEvent::new(
                            UserId::new(rng.gen_range(N_USERS as u64) as u32),
                            Timestamp::from_millis((step * 10 + i) as u64),
                            EventKind::Transaction {
                                course: CourseId::new(rng.gen_range(25) as u32),
                                campaign: Some(CampaignId::new(1)),
                            },
                        )
                    })
                    .collect();
                ApiRequest::IngestBatch { events }
            }
            6 => ApiRequest::ObserveOutcome { user, responded: rng.gen_range(2) == 0 },
            _ => ApiRequest::Stats,
        };
        requests.push(request);
    }
    requests
}

fn canonical(response: &ApiResponse) -> Vec<u8> {
    let mut out = BytesMut::new();
    encode_response(response, &mut out);
    out.to_vec()
}

/// The headline: every response that crosses the wire is byte-identical
/// to the in-process dispatch of the same request on a twin platform
/// fed the same stream.
#[test]
fn served_responses_are_bit_identical_to_in_process_dispatch() {
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let served = platform(&courses);
    let local = platform(&courses);

    // seed both twins identically so scoring has trained weights
    for api in [&served, &local] {
        let mut rng = SplitMix64::new(77);
        for step in 0..120 {
            let user = UserId::new(rng.gen_range(N_USERS as u64) as u32);
            let question = api.platform().next_eit_question(user).id;
            api.platform()
                .ingest(&LifeLogEvent::new(
                    user,
                    Timestamp::from_millis(step),
                    EventKind::EitAnswer {
                        question,
                        answer: Valence::new((rng.gen_range(2000) as f64 / 1000.0) - 1.0),
                    },
                ))
                .unwrap();
        }
        let mut data = spa_ml::Dataset::new(75);
        for raw in 0..N_USERS {
            if let Ok(row) = api.platform().advice_row(UserId::new(raw)) {
                data.push(&row, if row.get(65) > 0.4 { 1.0 } else { -1.0 }).unwrap();
            }
        }
        api.platform().train_selection(&data).unwrap();
    }

    let handle = serve(Arc::new(served.clone()), "127.0.0.1:0").unwrap();
    let mut client = SpaClient::connect(handle.addr()).unwrap();

    // requests are generated against `local` (the twin we also dispatch
    // on), so stateful requests like EIT answers stay in lockstep
    let mut rng = SplitMix64::new(0x5E12_B00B);
    let requests = {
        let mut all = Vec::new();
        for _ in 0..4 {
            all.extend(workload(&local, &mut rng, 60));
            all.push(ApiRequest::RecoverStatus);
            all.push(ApiRequest::Stats);
        }
        all
    };
    let mut mismatches = 0;
    for (index, request) in requests.iter().enumerate() {
        let over_wire = client.call(request).unwrap();
        let in_process = local.dispatch(request);
        let wire_bytes = canonical(&over_wire);
        let local_bytes = canonical(&in_process);
        if wire_bytes != local_bytes {
            eprintln!("request {index} diverged: {request:?}\n  wire: {over_wire:?}\n  local: {in_process:?}");
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "wire responses must be bit-identical to in-process dispatch");
    assert!(handle.stats().frames_served.load(Ordering::Relaxed) >= requests.len() as u64);
    assert_eq!(handle.stats().corrupt_frames.load(Ordering::Relaxed), 0);
    handle.shutdown();
}

/// A flipped bit on the wire gets a loud error answer and the
/// connection is closed; the server keeps serving everyone else.
#[test]
fn corrupted_frames_are_rejected_loudly_and_contained() {
    let courses = CourseCatalog::generate(10, 4, 3).unwrap();
    let api = platform(&courses);
    let handle = serve(Arc::new(api), "127.0.0.1:0").unwrap();

    // hand-build a frame and flip one payload bit after the CRC was set
    let mut payload = BytesMut::new();
    spa_server::wire::encode_request(&ApiRequest::Stats, &mut payload);
    let mut frame = Vec::new();
    send_frame(&mut frame, &payload).unwrap();
    let last = frame.len() - 1;
    frame[last] ^= 0x10;

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(&frame).unwrap();
    stream.flush().unwrap();
    match recv_frame(&mut stream) {
        Ok(Some(reply)) => {
            let (id, replayed, response) =
                spa_server::wire::decode_enveloped_response(&reply).unwrap();
            assert_eq!(id, 0, "a frame too corrupt to carry an id is answered under id 0");
            assert!(!replayed);
            match response {
                ApiResponse::Error { message } => {
                    assert!(message.contains("CRC"), "rejection names the cause: {message}")
                }
                other => panic!("expected a loud error, got {other:?}"),
            }
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // the server closed our stream after the rejection
    assert!(recv_frame(&mut stream).unwrap().is_none());

    // a torn request (connection dies mid-frame) is swallowed whole
    let mut torn = TcpStream::connect(handle.addr()).unwrap();
    torn.write_all(&frame[..5]).unwrap();
    drop(torn);

    // and a fresh client still gets served
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut client = SpaClient::connect(handle.addr()).unwrap();
    assert!(matches!(client.call(&ApiRequest::Stats).unwrap(), ApiResponse::Stats { .. }));
    assert_eq!(handle.stats().corrupt_frames.load(Ordering::Relaxed), 2);
    handle.shutdown();
}

/// Many clients hammering `&self` entry points concurrently: no lock
/// poisoning, no torn responses, and the write paths stay serialized
/// behind their WAL discipline.
#[test]
fn concurrent_clients_are_served_consistently() {
    let courses = CourseCatalog::generate(10, 4, 3).unwrap();
    let api = platform(&courses);
    let handle = serve(Arc::new(api), "127.0.0.1:0").unwrap();
    let addr = handle.addr();
    let threads: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = SpaClient::connect(addr).unwrap();
                let mut rng = SplitMix64::new(t);
                for step in 0..50 {
                    let user = UserId::new(rng.gen_range(20) as u32);
                    let request = if step % 3 == 0 {
                        ApiRequest::Stats
                    } else {
                        ApiRequest::Ingest {
                            event: LifeLogEvent::new(
                                user,
                                Timestamp::from_millis(step),
                                EventKind::Transaction {
                                    course: CourseId::new(rng.gen_range(10) as u32),
                                    campaign: None,
                                },
                            ),
                        }
                    };
                    let response = client.call(&request).unwrap();
                    assert!(
                        !matches!(response, ApiResponse::Error { .. }),
                        "unexpected error: {response:?}"
                    );
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
    // all writes from all clients landed exactly once
    let mut client = SpaClient::connect(addr).unwrap();
    match client.call(&ApiRequest::Stats).unwrap() {
        ApiResponse::Stats { stats, .. } => {
            let per_thread = (0..50).filter(|s| s % 3 != 0).count() as u64;
            assert_eq!(stats.transactions, 8 * per_thread);
        }
        other => panic!("expected stats, got {other:?}"),
    }
    handle.shutdown();
}
