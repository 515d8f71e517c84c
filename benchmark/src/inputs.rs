//! Inputs, all generated from the run's seed before anything is timed.

use crate::fixture::CAMPAIGN;
use crate::stats::Fnv;
use bytes::BytesMut;
use spa_core::ApiRequest;
use spa_store::fault::SplitMix64;
use spa_synth::scenario::{ScenarioEngine, ScenarioSpec};
use spa_types::{CourseId, EventKind, LifeLogEvent, QuestionId, Timestamp, UserId};

/// Users in a `Score` request of the serving mix.
pub const SCORE_AUDIENCE: usize = 16;
/// Users in a `RankTopK` request of the serving mix.
pub const RANK_AUDIENCE: usize = 64;
/// `k` of a `RankTopK` request of the serving mix.
pub const SERVE_RANK_K: u32 = 8;
/// Question ids below this are in the platform's bank; the scenario
/// aims 2 % of its EIT answers past it, which the platform rejects.
pub const QUESTION_BANK: u32 = 40;

/// Request classes of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 70 %: `Score` over 16 users.
    Score,
    /// 10 %: `RankTopK` over 64 users, k = 8.
    RankTopK,
    /// 15 %: `Ingest` of one transaction.
    Ingest,
    /// 5 %: `ObserveOutcome`.
    ObserveOutcome,
}

impl Class {
    /// All classes, in the order of [`Class::index`].
    pub const ALL: [Class; 4] =
        [Class::Score, Class::RankTopK, Class::Ingest, Class::ObserveOutcome];

    /// Position in [`Class::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// `count` distinct users out of `0..users`, fixed by `seed`.
pub fn hot_set(seed: u64, users: u32, count: u32) -> Vec<UserId> {
    let mut rng = SplitMix64::new(seed ^ 0x0407_75E7);
    let mut all: Vec<u32> = (0..users).collect();
    for i in 0..count.min(users) as usize {
        let j = i + rng.gen_range((all.len() - i) as u64) as usize;
        all.swap(i, j);
    }
    all[..count.min(users) as usize].iter().copied().map(UserId::new).collect()
}

/// `n` requests of the 70/10/15/5 serving mix, every user drawn from
/// `hot`.
pub fn serve_stream(seed: u64, hot: &[UserId], n: usize) -> Vec<(Class, ApiRequest)> {
    let mut rng = SplitMix64::new(seed ^ 0x09E4_100D);
    let user = |rng: &mut SplitMix64| hot[rng.gen_range(hot.len() as u64) as usize];
    (0..n)
        .map(|step| match rng.gen_range(100) {
            0..=69 => (
                Class::Score,
                ApiRequest::Score { users: (0..SCORE_AUDIENCE).map(|_| user(&mut rng)).collect() },
            ),
            70..=79 => (
                Class::RankTopK,
                ApiRequest::RankTopK {
                    users: (0..RANK_AUDIENCE).map(|_| user(&mut rng)).collect(),
                    k: SERVE_RANK_K,
                },
            ),
            80..=94 => (
                Class::Ingest,
                ApiRequest::Ingest {
                    event: LifeLogEvent::new(
                        user(&mut rng),
                        Timestamp::from_millis(step as u64),
                        EventKind::Transaction {
                            course: CourseId::new(rng.gen_range(25) as u32),
                            campaign: Some(CAMPAIGN),
                        },
                    ),
                },
            ),
            _ => (
                Class::ObserveOutcome,
                ApiRequest::ObserveOutcome {
                    user: user(&mut rng),
                    responded: rng.gen_range(2) == 0,
                },
            ),
        })
        .collect()
}

/// `count` audiences of `size` users drawn uniformly from `0..users`.
pub fn audiences(seed: u64, users: u32, count: usize, size: usize) -> Vec<Vec<UserId>> {
    let mut rng = SplitMix64::new(seed ^ 0xA0D1_E2CE);
    (0..count)
        .map(|_| (0..size).map(|_| UserId::new(rng.gen_range(u64::from(users)) as u32)).collect())
        .collect()
}

/// `ticks` batches of `events_per_tick` events from
/// `ScenarioSpec::steady` (Zipf 0.6 over `users`, 2 % of EIT answers
/// aimed past the question bank).
pub fn scenario_ticks(
    seed: u64,
    users: u32,
    ticks: u32,
    events_per_tick: u32,
) -> Vec<Vec<LifeLogEvent>> {
    let spec = ScenarioSpec { events_per_tick, ..ScenarioSpec::steady(seed, users, ticks) };
    assert_eq!(spec.question_bank, QUESTION_BANK);
    ScenarioEngine::new(spec).expect("steady scenario is valid").map(|tick| tick.events).collect()
}

/// Events of `batch` the platform applies: all but the EIT answers
/// aimed past the question bank.
pub fn expected_applied(batch: &[LifeLogEvent]) -> usize {
    let rejected = |event: &&LifeLogEvent| matches!(event.kind, EventKind::EitAnswer { question, .. } if question >= QuestionId::new(QUESTION_BANK));
    batch.len() - batch.iter().filter(rejected).count()
}

/// Digest of a request stream, over each request's wire encoding.
pub fn digest_requests(requests: &[(Class, ApiRequest)]) -> u64 {
    let mut fnv = Fnv::default();
    let mut scratch = BytesMut::new();
    for (_, request) in requests {
        scratch.clear();
        spa_server::wire::encode_request(request, &mut scratch);
        fnv.write(&scratch);
    }
    fnv.0
}

/// Digest of event batches, over each event's WAL frame.
pub fn digest_events<'a>(batches: impl IntoIterator<Item = &'a [LifeLogEvent]>) -> u64 {
    let mut fnv = Fnv::default();
    let mut scratch = BytesMut::new();
    for event in batches.into_iter().flatten() {
        scratch.clear();
        spa_store::codec::encode_frame(event, &mut scratch);
        fnv.write(&scratch);
    }
    fnv.0
}

/// Digest of audiences, over the raw user ids.
pub fn digest_users(audiences: &[Vec<UserId>]) -> u64 {
    let mut fnv = Fnv::default();
    for user in audiences.iter().flatten() {
        fnv.write(&user.raw().to_le_bytes());
    }
    fnv.0
}
