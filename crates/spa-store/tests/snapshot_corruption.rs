//! Corruption properties of the snapshot container: **no flipped bit is
//! ever silently accepted**. A snapshot either reads back byte-identical
//! to what was written or fails loudly — there is no third outcome where
//! a recovering platform loads subtly different state. Plus the
//! crash-mid-checkpoint atomicity property: a kill between the temp
//! write and the rename leaves the previous snapshot fully loadable.

use proptest::prelude::*;
use spa_store::log::LogPosition;
use spa_store::snapshot::{
    latest_valid_snapshot, list_snapshots, snapshot_path, Snapshot, SnapshotBuilder,
};
use spa_types::SpaError;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spa-snapcorrupt-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small but representative snapshot: three sections (one empty) with
/// distinct contents, covering a non-trivial position.
fn small_snapshot_bytes() -> Vec<u8> {
    let dir = tmp_dir("build");
    let position = LogPosition { segment: 2, offset: 1234 };
    let path = snapshot_path(&dir, position);
    let mut builder = SnapshotBuilder::new(position);
    builder
        .section(1, (0u8..40).collect())
        .section(2, Vec::new())
        .section(3, vec![0xFF, 0x00, 0x7F, 0x80]);
    builder.write_atomic(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

/// Exhaustive single-bit flips: every flip of every byte must be a loud
/// decode error. (CRC-32 detects *all* single-bit errors by
/// construction; this test pins that the decoder actually routes every
/// one of them — magic, header, section bytes, the CRC field itself —
/// through [`SpaError::Corrupt`] instead of accepting or panicking.)
#[test]
fn every_flipped_bit_is_detected() {
    let clean = small_snapshot_bytes();
    let reference = Snapshot::decode(&clean).unwrap();
    for position in 0..clean.len() {
        for bit in 0..8u8 {
            let mut corrupted = clean.clone();
            corrupted[position] ^= 1 << bit;
            match Snapshot::decode(&corrupted) {
                Err(SpaError::Corrupt(_)) => {}
                Err(e) => panic!("byte {position} bit {bit}: unexpected error kind {e}"),
                Ok(decoded) => panic!(
                    "byte {position} bit {bit}: silently decoded ({} sections, position {}) \
                     despite corruption — reference had {} sections",
                    decoded.sections().len(),
                    decoded.position(),
                    reference.sections().len()
                ),
            }
        }
    }
}

/// Every truncation of the file is loud — a partially written snapshot
/// (torn copy, short read) can never decode.
#[test]
fn every_truncation_is_detected() {
    let clean = small_snapshot_bytes();
    for cut in 0..clean.len() {
        assert!(
            matches!(Snapshot::decode(&clean[..cut]), Err(SpaError::Corrupt(_))),
            "truncation to {cut} bytes must not decode"
        );
    }
}

/// `Snapshot::decode` and the position-only validating read share one
/// parse, so they give one verdict: both accept an image (at the same
/// position) or both reject it with the same `SpaError::Corrupt`.
fn assert_one_verdict(bytes: &[u8], what: &str) {
    match (Snapshot::decode(bytes), Snapshot::decode_position(bytes)) {
        (Ok(full), Ok(position)) => assert_eq!(full.position(), position, "{what}"),
        (Err(SpaError::Corrupt(full)), Err(SpaError::Corrupt(position))) => {
            assert_eq!(full, position, "{what}: both reject, for the same reason")
        }
        (full, position) => {
            panic!("{what}: decode gave {full:?}, the position-only read {position:?}")
        }
    }
}

/// Every single-bit flip and every truncation of a clean image gets the
/// same verdict from `Snapshot::decode` and from the position-only
/// validating read compaction runs before it deletes segments.
#[test]
fn the_position_only_read_gives_the_verdict_of_decode() {
    let clean = small_snapshot_bytes();
    assert_one_verdict(&clean, "clean image");
    assert_eq!(
        Snapshot::decode_position(&clean).unwrap(),
        LogPosition { segment: 2, offset: 1234 }
    );
    for position in 0..clean.len() {
        for bit in 0..8u8 {
            let mut corrupted = clean.clone();
            corrupted[position] ^= 1 << bit;
            assert_one_verdict(&corrupted, &format!("byte {position} bit {bit}"));
        }
    }
    for cut in 0..clean.len() {
        assert_one_verdict(&clean[..cut], &format!("truncation to {cut} bytes"));
    }
    let mut longer = clean.clone();
    longer.push(0);
    assert_one_verdict(&longer, "one trailing byte");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random multi-bit / multi-byte corruption: still never silent.
    /// (Multi-bit errors are where "CRC catches everything" stops being
    /// a theorem and becomes 2^-32 odds; the decoder's structural
    /// validation backs it up, and this pins that nothing panics.)
    #[test]
    fn random_corruption_never_silently_decodes(
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 1..12),
    ) {
        let clean = small_snapshot_bytes();
        let mut corrupted = clean.clone();
        let mut changed = false;
        for (pos, bit) in flips {
            let pos = pos % corrupted.len();
            corrupted[pos] ^= 1 << bit;
            changed = true;
        }
        // an even number of flips can cancel out; only assert when the
        // bytes actually differ
        if changed && corrupted != clean {
            prop_assert!(matches!(Snapshot::decode(&corrupted), Err(SpaError::Corrupt(_))));
        }
    }

    /// Random multi-bit corruption and cuts: the position-only read
    /// still gives `Snapshot::decode`'s verdict.
    #[test]
    fn random_damage_gets_one_verdict(
        flips in proptest::collection::vec((0usize..4096, 0u8..8), 0..12),
        cut in 0usize..4096,
    ) {
        let mut damaged = small_snapshot_bytes();
        for (pos, bit) in flips {
            let pos = pos % damaged.len();
            damaged[pos] ^= 1 << bit;
        }
        damaged.truncate(cut.max(damaged.len() / 2));
        assert_one_verdict(&damaged, "random damage");
    }

    /// Arbitrary section payloads round-trip byte-identically through
    /// write_atomic + read.
    #[test]
    fn arbitrary_sections_round_trip(
        payloads in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..64),
            0..5,
        ),
        segment in 0u64..1_000_000,
        offset in 0u64..1_000_000_000,
    ) {
        let dir = tmp_dir("roundtrip");
        let position = LogPosition { segment, offset };
        let mut builder = SnapshotBuilder::new(position);
        for (i, payload) in payloads.iter().enumerate() {
            builder.section(i as u32, payload.clone());
        }
        let path = snapshot_path(&dir, position);
        builder.write_atomic(&path).unwrap();
        let snapshot = Snapshot::read(&path).unwrap();
        prop_assert_eq!(snapshot.position(), position);
        prop_assert_eq!(snapshot.sections().len(), payloads.len());
        for (i, payload) in payloads.iter().enumerate() {
            prop_assert_eq!(snapshot.section(i as u32).unwrap(), payload.as_slice());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash between the temp write and the rename: the new snapshot is
/// invisible (a `.snap-tmp` file discovery ignores), and the previous
/// checkpoint still loads. This is the atomicity contract a real kill
/// -9 exercises.
#[test]
fn crash_mid_checkpoint_leaves_the_old_snapshot_loadable() {
    let dir = tmp_dir("atomicity");
    let old_position = LogPosition { segment: 1, offset: 500 };
    let mut old = SnapshotBuilder::new(old_position);
    old.section(1, vec![1, 2, 3]);
    old.write_atomic(snapshot_path(&dir, old_position)).unwrap();

    // simulate the crash: the next checkpoint got as far as writing its
    // temporary file (even a fully valid one) but died before rename
    let new_position = LogPosition { segment: 4, offset: 42 };
    let mut new = SnapshotBuilder::new(new_position);
    new.section(1, vec![9, 9, 9]);
    let final_path = snapshot_path(&dir, new_position);
    new.write_atomic(&final_path).unwrap();
    let committed = std::fs::read(&final_path).unwrap();
    std::fs::remove_file(&final_path).unwrap();
    std::fs::write(final_path.with_extension("snap-tmp"), &committed).unwrap();
    // …and another temp that died mid-write (garbage)
    std::fs::write(dir.join("snapshot-0000000009-000000000000.snap-tmp"), b"torn").unwrap();

    let listed = list_snapshots(&dir).unwrap();
    assert_eq!(listed.len(), 1, "temporaries must be invisible to discovery");
    assert_eq!(listed[0].0, old_position);
    let (snapshot, _) = latest_valid_snapshot(&dir).unwrap().expect("old snapshot survives");
    assert_eq!(snapshot.position(), old_position);
    assert_eq!(snapshot.section(1), Some(&[1u8, 2, 3][..]));

    // re-running the interrupted checkpoint converges: the same
    // write_atomic now completes and becomes the latest
    let mut retry = SnapshotBuilder::new(new_position);
    retry.section(1, vec![9, 9, 9]);
    retry.write_atomic(&final_path).unwrap();
    let (snapshot, _) = latest_valid_snapshot(&dir).unwrap().unwrap();
    assert_eq!(snapshot.position(), new_position);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn *final* rename target (e.g. bit rot after a completed
/// checkpoint) falls back to the previous valid snapshot rather than
/// failing recovery outright.
#[test]
fn bit_rotted_newest_snapshot_falls_back_to_previous() {
    let dir = tmp_dir("fallback");
    for (seg, payload) in [(1u64, 11u8), (2, 22), (3, 33)] {
        let position = LogPosition { segment: seg, offset: 0 };
        let mut b = SnapshotBuilder::new(position);
        b.section(1, vec![payload]);
        b.write_atomic(snapshot_path(&dir, position)).unwrap();
    }
    let newest = snapshot_path(&dir, LogPosition { segment: 3, offset: 0 });
    let mut bytes = std::fs::read(&newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x04;
    std::fs::write(&newest, &bytes).unwrap();
    let (snapshot, _) = latest_valid_snapshot(&dir).unwrap().unwrap();
    assert_eq!(snapshot.position(), LogPosition { segment: 2, offset: 0 });
    assert_eq!(snapshot.section(1), Some(&[22u8][..]));
    let _ = std::fs::remove_dir_all(&dir);
}
