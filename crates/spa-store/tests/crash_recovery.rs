//! Crash-recovery property tests for the event log: whatever byte
//! offset a crash cuts the tail segment at, replay must yield *exactly*
//! the prefix of fully framed records — never a torn record, never a
//! record past the cut, and never a silent misparse.

use proptest::prelude::*;
use spa_store::codec::encode_frame;
use spa_store::log::{EventLog, LogConfig, TornTail};
use spa_types::{
    ActionId, CampaignId, CourseId, EventKind, LifeLogEvent, QuestionId, Timestamp, UserId, Valence,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-crash-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Decodes one generated tuple into a concrete event (covers every
/// variant, including optional ids present and absent).
fn make_event(kind: u8, user: u32, at: u64, id: u32, value: f64) -> LifeLogEvent {
    let kind = match kind % 8 {
        0 => EventKind::Action { action: ActionId::new(id % 984), course: None },
        1 => EventKind::Action {
            action: ActionId::new(id % 984),
            course: Some(CourseId::new(id % 50)),
        },
        2 => EventKind::Transaction { course: CourseId::new(id % 50), campaign: None },
        3 => EventKind::Transaction {
            course: CourseId::new(id % 50),
            campaign: Some(CampaignId::new(id % 9)),
        },
        4 => EventKind::Rating { course: CourseId::new(id % 50), stars: (id % 5 + 1) as u8 },
        5 => {
            EventKind::EitAnswer { question: QuestionId::new(id % 40), answer: Valence::new(value) }
        }
        6 => EventKind::EitSkipped { question: QuestionId::new(id % 40) },
        _ => EventKind::MessageOpened { campaign: CampaignId::new(id % 9) },
    };
    LifeLogEvent::new(UserId::new(user), Timestamp::from_millis(at), kind)
}

/// Frame boundaries (cumulative end offsets) of `events` as the log
/// writer lays them out — computed independently via the codec, not by
/// reading the log back.
fn frame_ends(events: &[LifeLogEvent]) -> Vec<usize> {
    let mut ends = Vec::with_capacity(events.len());
    let mut total = 0usize;
    let mut scratch = bytes::BytesMut::new();
    for event in events {
        scratch.clear();
        encode_frame(event, &mut scratch);
        total += scratch.len();
        ends.push(total);
    }
    ends
}

/// Every event framed into one buffer, the form the platform's batch
/// path hands to [`EventLog::append_encoded`].
fn encoded(events: &[LifeLogEvent]) -> bytes::BytesMut {
    let mut frames = bytes::BytesMut::new();
    for event in events {
        encode_frame(event, &mut frames);
    }
    frames
}

/// Every intact event of a log directory, plus its torn tail if any.
fn replay(dir: &std::path::Path) -> (Vec<LifeLogEvent>, Option<TornTail>) {
    let mut iter = EventLog::replay_iter(dir).unwrap();
    let events = iter.by_ref().collect::<Result<Vec<_>, _>>().unwrap();
    (events, iter.torn_tail())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-segment log, truncated at an arbitrary byte offset:
    /// replay returns exactly the events whose frames fit entirely
    /// below the cut, and reports a torn tail iff the cut lands
    /// mid-frame.
    #[test]
    fn truncation_yields_exactly_the_framed_prefix(
        raw in proptest::collection::vec(
            (0u8..8, 0u32..500, 0u64..1_000_000, 0u32..10_000, -1.0f64..1.0),
            1..40,
        ),
        cut_seed in 0u64..1_000_000,
    ) {
        let events: Vec<LifeLogEvent> =
            raw.iter().map(|&(k, u, at, id, v)| make_event(k, u, at, id, v)).collect();
        let dir = tmp_dir("prefix");
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            prop_assert_eq!(log.append_encoded(&encoded(&events)).unwrap(), events.len());
            log.flush().unwrap();
        }
        let ends = frame_ends(&events);
        let total = *ends.last().unwrap();
        let cut = (cut_seed % (total as u64 + 1)) as usize; // 0..=total
        let seg = dir.join("segment-0000000000.log");
        prop_assert_eq!(std::fs::metadata(&seg).unwrap().len(), total as u64);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut as u64)
            .unwrap();

        let expected = ends.iter().take_while(|&&end| end <= cut).count();
        let (replayed, torn_tail) = replay(&dir);
        prop_assert_eq!(replayed.len(), expected, "cut at {} of {}", cut, total);
        prop_assert_eq!(&replayed[..], &events[..expected]);
        let cut_is_on_boundary = cut == 0 || ends.contains(&cut);
        prop_assert_eq!(
            torn_tail.is_some(),
            !cut_is_on_boundary,
            "torn tail must be reported iff the cut is mid-frame (cut {})", cut
        );
        if let Some(torn) = torn_tail {
            prop_assert_eq!(torn.offset as usize + torn.bytes_dropped as usize, cut);
        }

        // reopening cuts the torn frame and appends continue cleanly
        let log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let clean = if expected == 0 { 0 } else { ends[expected - 1] };
        prop_assert_eq!(std::fs::metadata(&seg).unwrap().len(), clean as u64);
        let extra = make_event(0, 42, 7, 7, 0.0);
        log.append(&extra).unwrap();
        log.flush().unwrap();
        let (replayed, torn_tail) = replay(&dir);
        prop_assert!(torn_tail.is_none());
        prop_assert_eq!(replayed.len(), expected + 1);
        prop_assert_eq!(replayed.last().unwrap(), &extra);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Multi-segment log (tiny roll threshold), tail segment truncated:
    /// all fully framed records across *all* segments survive.
    #[test]
    fn multi_segment_truncation_keeps_all_earlier_segments(
        raw in proptest::collection::vec(
            (0u8..8, 0u32..500, 0u64..1_000_000, 0u32..10_000, -1.0f64..1.0),
            20..80,
        ),
        drop_bytes in 1u64..64,
    ) {
        let events: Vec<LifeLogEvent> =
            raw.iter().map(|&(k, u, at, id, v)| make_event(k, u, at, id, v)).collect();
        let dir = tmp_dir("multiseg");
        {
            // one pre-encoded run, split across many rolls by the writer
            let log = EventLog::open(&dir, LogConfig { segment_bytes: 160, fsync: false }).unwrap();
            prop_assert_eq!(log.append_encoded(&encoded(&events)).unwrap(), events.len());
            log.flush().unwrap();
        }
        // find the last segment and cut it short (never below zero)
        let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segments.sort();
        prop_assert!(segments.len() > 1, "test needs multiple segments");
        let last = segments.last().unwrap();
        let len = std::fs::metadata(last).unwrap().len();
        let cut = len.saturating_sub(drop_bytes);
        std::fs::OpenOptions::new().write(true).open(last).unwrap().set_len(cut).unwrap();

        let (replayed, _) = replay(&dir);
        // every surviving event is a prefix of the original stream
        prop_assert!(replayed.len() <= events.len());
        prop_assert_eq!(&replayed[..], &events[..replayed.len()]);
        // and nothing from segments before the tail was lost: the byte
        // span of earlier segments only holds whole frames
        let earlier_bytes: u64 =
            segments[..segments.len() - 1].iter().map(|p| std::fs::metadata(p).unwrap().len()).sum();
        let ends = frame_ends(&events);
        let in_earlier = ends.iter().take_while(|&&end| end as u64 <= earlier_bytes).count();
        prop_assert!(replayed.len() >= in_earlier);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
