//! Fault-injection contract tests for the storage substrate: every
//! injected storage fault must be either *recovered* (bounded retry on
//! the write path) or *surfaced loudly* (error + poisoned log +
//! recovery healing) — never silently absorbed into divergent state.
//!
//! The centerpiece is the poisoned-log contract, end to end: a failed
//! append poisons the log, further appends are refused, recovery heals
//! the torn tail, and ingest continues — with the final replay
//! bit-identical to a fault-free log fed the surviving sequence.

use spa_store::codec::encode_frame;
use spa_store::fault::{FaultPlan, FaultPlanConfig};
use spa_store::log::{EventLog, LogConfig, LogPosition, WRITE_RETRY_LIMIT};
use spa_store::snapshot::{self, Snapshot, SnapshotBuilder};
use spa_types::{
    ActionId, CourseId, EventKind, LifeLogEvent, SpaError, Timestamp, UserId, Valence,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-fault-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn event(i: u32) -> LifeLogEvent {
    let kind = if i.is_multiple_of(3) {
        EventKind::EitAnswer {
            question: spa_types::QuestionId::new(i % 40),
            answer: Valence::new((i as f64 / 50.0).sin()),
        }
    } else {
        EventKind::Action { action: ActionId::new(i % 984), course: Some(CourseId::new(i % 50)) }
    };
    LifeLogEvent::new(UserId::new(i % 64), Timestamp::from_millis(i as u64), kind)
}

fn plan(config: FaultPlanConfig) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::seeded(config))
}

fn replayed(dir: &std::path::Path) -> Result<Vec<LifeLogEvent>, SpaError> {
    EventLog::replay_iter(dir)?.collect()
}

/// `events` framed into one buffer, as the platform's batch path hands
/// them to [`EventLog::append_encoded`].
fn encoded(events: impl IntoIterator<Item = LifeLogEvent>) -> bytes::BytesMut {
    let mut frames = bytes::BytesMut::new();
    for event in events {
        encode_frame(&event, &mut frames);
    }
    frames
}

/// The poisoned-log contract: failed write → poisoned log → appends
/// refused → reopening cuts the torn tail → ingest continues, and the
/// surviving stream replays bit-identically to a fault-free log.
#[test]
fn poisoned_log_contract_end_to_end() {
    let dir = tmp_dir("poison");
    let config = LogConfig { segment_bytes: 256, fsync: false };
    let faults = plan(FaultPlanConfig {
        seed: 11,
        torn_write_per_10k: 10_000, // every consulted write tears
        ..FaultPlanConfig::default()
    });
    let mut survivors: Vec<LifeLogEvent> = Vec::new();
    {
        let log = EventLog::open_with_io(&dir, config.clone(), faults.clone()).unwrap();
        for i in 0..10u32 {
            log.append(&event(i)).unwrap();
            survivors.push(event(i));
        }
        faults.set_armed(true);
        // the torn write physically lands a strict prefix of the frame
        // and fails the append
        let err = log.append(&event(10)).unwrap_err();
        assert!(
            err.to_string().contains(spa_store::fault::INJECTED_TORN_WRITE),
            "the torn append surfaces the injected fault: {err}"
        );
        assert_eq!(faults.ledger().counts().torn_writes, 1);
        // the log is now poisoned: the segment may end mid-frame, so
        // every further append is refused — acknowledged events must
        // never be buried behind the tear
        faults.set_armed(false);
        let refused = log.append(&event(11)).unwrap_err();
        assert!(
            refused.to_string().contains("poisoned"),
            "appends after a failed write are refused: {refused}"
        );
        let refused_batch = log.append_encoded(&encoded([event(11)])).unwrap_err();
        assert!(refused_batch.to_string().contains("poisoned"));
    } // crash (drop the poisoned writer)

    // replay stops at the torn tail; reopening cuts it for appending
    let mut iter = EventLog::replay_iter(&dir).unwrap();
    assert_eq!(iter.by_ref().count(), 10, "all acknowledged events survive");
    assert!(iter.torn_tail().is_some(), "the torn write left a partial frame");
    let log = EventLog::open(&dir, config.clone()).unwrap();
    for i in 12..20u32 {
        log.append(&event(i)).unwrap();
        survivors.push(event(i));
    }
    log.flush().unwrap();
    let recovered = replayed(&dir).unwrap();
    drop(log);

    // fault-free reference fed the surviving sequence
    let ref_dir = tmp_dir("poison-ref");
    let reference = EventLog::open(&ref_dir, config).unwrap();
    for e in &survivors {
        reference.append(e).unwrap();
    }
    reference.flush().unwrap();
    assert_eq!(recovered, replayed(&ref_dir).unwrap(), "recovered log replays bit-identically");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

#[test]
fn transient_eios_are_absorbed_by_bounded_retry() {
    let dir = tmp_dir("transient");
    let faults = plan(FaultPlanConfig {
        seed: 7,
        transient_eio_per_10k: 2_000,
        transient_burst_max: 2,
        ..FaultPlanConfig::default()
    });
    let log = EventLog::open_with_io(&dir, LogConfig::default(), faults.clone()).unwrap();
    faults.set_armed(true);
    let events: Vec<LifeLogEvent> = (0..200).map(event).collect();
    for e in &events {
        log.append(e).unwrap(); // every transient is absorbed in place
    }
    faults.set_armed(false);
    log.flush().unwrap();
    let counts = faults.ledger().counts();
    let counters = log.write_fault_counters();
    assert!(counts.transient_eios > 0, "a 20% rate over 200 appends must fire");
    assert_eq!(
        counters.transients_absorbed, counts.transient_eios,
        "every injected transient is accounted as absorbed — none fatal, none lost"
    );
    assert_eq!(counters.transients_fatal, 0);
    assert!(counters.writes_recovered > 0);
    assert_eq!(replayed(&dir).unwrap(), events, "retried writes landed every event exactly once");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transient_exhaustion_poisons_the_log() {
    let dir = tmp_dir("exhaust");
    let faults = plan(FaultPlanConfig {
        seed: 3,
        transient_eio_per_10k: 10_000, // every attempt fails: retry budget exhausts
        ..FaultPlanConfig::default()
    });
    let log = EventLog::open_with_io(&dir, LogConfig::default(), faults.clone()).unwrap();
    log.append(&event(0)).unwrap();
    faults.set_armed(true);
    let err = log.append(&event(1)).unwrap_err();
    assert!(err.to_string().contains(spa_store::fault::INJECTED_TRANSIENT_EIO), "{err}");
    faults.set_armed(false);
    assert_eq!(
        log.write_fault_counters().transients_fatal,
        (WRITE_RETRY_LIMIT + 1) as u64,
        "the initial attempt plus every retry is counted"
    );
    assert!(log.append(&event(2)).unwrap_err().to_string().contains("poisoned"));
    // nothing of the failed frame reached the file: replay sees
    // exactly the acknowledged prefix
    drop(log);
    let mut iter = EventLog::replay_iter(&dir).unwrap();
    assert_eq!(iter.by_ref().collect::<Result<Vec<_>, _>>().unwrap(), vec![event(0)]);
    assert!(iter.torn_tail().is_none(), "transients never tear the file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch write that fails is not counted: `events_appended` moves
/// only once a run's bytes land, so 10 acknowledged appends and one
/// torn 10-frame `append_encoded` leave it at 10.
#[test]
fn a_failed_batch_write_is_not_counted_as_appended() {
    let dir = tmp_dir("batch-count");
    let faults = plan(FaultPlanConfig {
        seed: 13,
        torn_write_per_10k: 10_000, // every consulted write tears
        ..FaultPlanConfig::default()
    });
    let log = EventLog::open_with_io(&dir, LogConfig::default(), faults.clone()).unwrap();
    for i in 0..10u32 {
        log.append(&event(i)).unwrap();
    }
    faults.set_armed(true);
    let err = log.append_encoded(&encoded((10..20).map(event))).unwrap_err();
    assert!(err.to_string().contains(spa_store::fault::INJECTED_TORN_WRITE), "{err}");
    assert_eq!(log.stats().unwrap().events_appended, 10, "the torn batch counts nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failures_are_loud_but_do_not_poison() {
    let dir = tmp_dir("fsync");
    let config = LogConfig { segment_bytes: 8 * 1024 * 1024, fsync: true };
    let faults = plan(FaultPlanConfig {
        seed: 5,
        fsync_failure_per_10k: 10_000,
        ..FaultPlanConfig::default()
    });
    let log = EventLog::open_with_io(&dir, config, faults.clone()).unwrap();
    log.append(&event(0)).unwrap();
    faults.set_armed(true);
    let err = log.flush().unwrap_err();
    assert!(err.to_string().contains(spa_store::fault::INJECTED_FSYNC_FAILURE), "{err}");
    // sync_up_to consults the seam even when `fsync: false` would not
    let err = log.sync_up_to(LogPosition::default()).unwrap_err();
    assert!(err.to_string().contains(spa_store::fault::INJECTED_FSYNC_FAILURE), "{err}");
    assert_eq!(faults.ledger().counts().fsync_failures, 2);
    // nothing was torn — the caller just didn't get its durability
    // point. The log stays usable: disarm and both succeed.
    faults.set_armed(false);
    log.append(&event(1)).unwrap();
    log.flush().unwrap();
    assert_eq!(replayed(&dir).unwrap(), vec![event(0), event(1)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_rot_in_closed_segments_is_loud_never_silent() {
    let dir = tmp_dir("rot");
    let config = LogConfig { segment_bytes: 256, fsync: false };
    let events: Vec<LifeLogEvent> = (0..60).map(event).collect();
    {
        let log = EventLog::open(&dir, config).unwrap();
        for e in &events {
            log.append(e).unwrap();
        }
        log.flush().unwrap();
    }
    let faults =
        plan(FaultPlanConfig { seed: 23, read_rot_per_10k: 10_000, ..FaultPlanConfig::default() });
    faults.set_armed(true);
    faults.allow_read_faults(1);
    let iter =
        EventLog::replay_iter_from_with(&dir, LogPosition::default(), faults.clone()).unwrap();
    let outcome: Result<Vec<LifeLogEvent>, SpaError> = iter.collect();
    // one bit flipped in a closed segment: the CRC framing must refuse
    // the segment loudly, not yield a silently different event
    assert!(matches!(outcome, Err(SpaError::Corrupt(_))), "rot must surface: {outcome:?}");
    assert_eq!(faults.ledger().counts().read_corruptions, 1, "allowance bounds injections to 1");
    // the file itself was never modified — a clean replay still works
    assert_eq!(replayed(&dir).unwrap(), events);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_final_segment_is_exempt_from_read_rot() {
    let dir = tmp_dir("rot-tail");
    // one big segment: everything lives in the final (tail) segment,
    // where a flip would be indistinguishable from a torn tail and
    // recovery would silently truncate acknowledged events
    let events: Vec<LifeLogEvent> = (0..40).map(event).collect();
    {
        let log = EventLog::open(&dir, LogConfig::default()).unwrap();
        for e in &events {
            log.append(e).unwrap();
        }
        log.flush().unwrap();
    }
    let faults =
        plan(FaultPlanConfig { seed: 29, read_rot_per_10k: 10_000, ..FaultPlanConfig::default() });
    faults.set_armed(true);
    faults.allow_read_faults(10);
    let replayed: Vec<LifeLogEvent> =
        EventLog::replay_iter_from_with(&dir, LogPosition::default(), faults.clone())
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
    assert_eq!(replayed, events);
    assert_eq!(faults.ledger().counts().read_corruptions, 0, "tail reads are never corrupted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_write_faults_never_touch_the_final_path() {
    let position = LogPosition { segment: 2, offset: 64 };
    for (name, config) in [
        (
            "torn",
            FaultPlanConfig { seed: 41, torn_write_per_10k: 10_000, ..FaultPlanConfig::default() },
        ),
        (
            "transient",
            FaultPlanConfig {
                seed: 43,
                transient_eio_per_10k: 10_000,
                ..FaultPlanConfig::default()
            },
        ),
        (
            "fsync",
            FaultPlanConfig {
                seed: 47,
                fsync_failure_per_10k: 10_000,
                ..FaultPlanConfig::default()
            },
        ),
    ] {
        let dir = tmp_dir(&format!("snap-{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        let faults = plan(config);
        faults.set_armed(true);
        let mut builder = SnapshotBuilder::new(position);
        builder.section(1, vec![7u8; 512]);
        let path = snapshot::snapshot_path(&dir, position);
        let err = builder.write_atomic_with(&path, faults.as_ref()).unwrap_err();
        // the checkpoint fails loudly; the final path never appears, so
        // recovery can never load a half-written snapshot
        assert!(err.to_string().contains("injected"), "{name}: {err}");
        assert!(!path.exists(), "{name}: final snapshot path must not exist");
        // the stale temp the fault left behind is exactly what
        // recovery's sweep removes (and reports)
        let removed = snapshot::remove_stale_temps(&dir).unwrap();
        if name == "torn" {
            assert_eq!(removed.len(), 1, "a torn snapshot write leaves its partial temp");
            assert!(removed[0].to_string_lossy().ends_with(".snap-tmp"));
        }
        assert!(snapshot::remove_stale_temps(&dir).unwrap().is_empty(), "sweep is idempotent");
        // a clean retry of the same checkpoint succeeds
        faults.set_armed(false);
        let mut builder = SnapshotBuilder::new(position);
        builder.section(1, vec![7u8; 512]);
        builder.write_atomic_with(&path, faults.as_ref()).unwrap();
        assert!(Snapshot::read(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The position-only validating read compaction runs meets injected
/// rot through the same seam as `Snapshot::read_with`, and the CRC
/// surfaces it.
#[test]
fn position_only_snapshot_read_meets_rot_through_the_same_seam() {
    let dir = tmp_dir("snap-rot-position");
    std::fs::create_dir_all(&dir).unwrap();
    let position = LogPosition { segment: 2, offset: 64 };
    let mut builder = SnapshotBuilder::new(position);
    builder.section(1, (0..=255u8).collect::<Vec<u8>>());
    let path = snapshot::snapshot_path(&dir, position);
    builder.write_atomic(&path).unwrap();
    let faults =
        plan(FaultPlanConfig { seed: 61, read_rot_per_10k: 10_000, ..FaultPlanConfig::default() });
    faults.set_armed(true);
    faults.allow_read_faults(1);
    let err = Snapshot::read_position_with(&path, faults.as_ref()).unwrap_err();
    // this seed's flip lands past the header: the CRC is what catches it
    assert!(matches!(err, SpaError::Corrupt(_)), "snapshot rot must surface: {err}");
    assert!(err.to_string().contains("checksum mismatch"), "{err}");
    assert_eq!(faults.ledger().counts().read_corruptions, 1);
    // the file is untouched, and the read budget is spent
    assert_eq!(Snapshot::read_position_with(&path, faults.as_ref()).unwrap(), position);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_read_rot_fails_the_crc_loudly() {
    let dir = tmp_dir("snap-rot");
    std::fs::create_dir_all(&dir).unwrap();
    let position = LogPosition { segment: 1, offset: 32 };
    let mut builder = SnapshotBuilder::new(position);
    builder.section(1, (0..=255u8).collect::<Vec<u8>>());
    let path = snapshot::snapshot_path(&dir, position);
    builder.write_atomic(&path).unwrap();
    let faults =
        plan(FaultPlanConfig { seed: 53, read_rot_per_10k: 10_000, ..FaultPlanConfig::default() });
    faults.set_armed(true);
    faults.allow_read_faults(1);
    let err = Snapshot::read_with(&path, faults.clone()).unwrap_err();
    assert!(matches!(err, SpaError::Corrupt(_)), "snapshot rot must surface: {err}");
    assert_eq!(faults.ledger().counts().read_corruptions, 1);
    // the on-disk file is untouched: a clean read still succeeds
    let snap = Snapshot::read(&path).unwrap();
    assert_eq!(snap.position(), position);
    let _ = std::fs::remove_dir_all(&dir);
}
