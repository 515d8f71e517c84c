//! Byte pins of the checkpoint files a seeded durable platform writes.
//!
//! A 3-shard write-ahead-logged platform ingests `ScenarioSpec::steady`
//! ticks and is checkpointed and compacted after ticks 4, 8 and 12.
//! Every `.snap` file left on disk and the shard manifest are pinned by
//! length and FNV-1a, so any change to the snapshot container, the SUM
//! or stats section codecs, the selection section or the manifest fails
//! here, whatever the platform still reads back.

use spa::prelude::*;
use spa::synth::scenario::{ScenarioEngine, ScenarioSpec};
use std::path::{Path, PathBuf};

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// Every regular file under `dir` whose name ends in `.snap` or is the
/// manifest, as (path relative to `root`, length, FNV-1a), sorted.
fn pinned_files(root: &Path, dir: &Path, out: &mut Vec<(String, usize, u64)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            pinned_files(root, &path, out);
            continue;
        }
        let name = path.file_name().unwrap().to_str().unwrap();
        if name.ends_with(".snap") || name == "shards.manifest" {
            let bytes = std::fs::read(&path).unwrap();
            let relative = path.strip_prefix(root).unwrap().to_str().unwrap().replace('\\', "/");
            out.push((relative, bytes.len(), fnv1a(&bytes)));
        }
    }
}

fn tmp_root() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spa-snapshot-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn checkpoint_files_are_pinned_at_a_fixed_seed() {
    let root = tmp_root();
    let courses = CourseCatalog::generate(25, 5, 3).unwrap();
    let spa = ShardedSpa::with_log(&courses, SpaConfig, 3, &root, LogConfig::default()).unwrap();
    let spec = ScenarioSpec { events_per_tick: 4096, ..ScenarioSpec::steady(5, 20_000, 12) };
    let mut scenario = ScenarioEngine::new(spec).unwrap();
    for (campaign, appeal) in scenario.all_campaigns() {
        spa.register_campaign(campaign, &appeal);
    }
    let mut ticks = 0;
    while let Some(tick) = scenario.next_tick() {
        spa.ingest_batch(&tick.events).unwrap();
        ticks += 1;
        if ticks % 4 == 0 {
            spa.checkpoint().unwrap();
            let report = spa.compact().unwrap();
            assert_eq!(report.shards_skipped, 0);
        }
    }
    assert_eq!(ticks, 12);
    let mut files = Vec::new();
    pinned_files(&root, &root, &mut files);
    files.sort();
    let rendered: Vec<String> =
        files.iter().map(|(name, len, hash)| format!("{name} {len} {hash:016x}")).collect();
    assert_eq!(
        rendered,
        [
            "selection.snap 669 311b271b1ed3f4c8",
            "shard-0000/snapshot-0000000000-000000472169.snap 599292 5ffd073a0b1c745a",
            "shard-0001/snapshot-0000000000-000000475139.snap 595876 621d4141afdd5430",
            "shard-0002/snapshot-0000000000-000000484718.snap 601940 e932b23023e88ed0",
            "shards.manifest 62 f6f9d9d498058319",
        ],
        "checkpoint files: name, length, FNV-1a"
    );
    drop(spa);
    let _ = std::fs::remove_dir_all(&root);
}
