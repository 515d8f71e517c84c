//! Per-shard event-log handles for a horizontally partitioned platform.
//!
//! A [`ShardedEventLog`] owns one [`EventLog`] per shard under a common
//! root directory (`shard-0000/`, `shard-0001/`, …) plus a tiny
//! `shards.manifest` file recording the shard count, so a recovering
//! process can rediscover the layout without out-of-band configuration.
//! Routing (user → shard) is the caller's business — the log set only
//! guarantees that shard `i` always maps to the same directory.
//!
//! The manifest also **registers checkpoints**: after a platform
//! checkpoint writes one snapshot per shard
//! ([`crate::snapshot`]), the manifest is atomically rewritten with one
//! `snapshot <shard> <segment> <offset>` line per shard, naming the
//! newest snapshot and the segment position it covers. Recovery reads
//! the registration to find each shard's snapshot; compaction reads it
//! to know which segments are fully covered and safe to delete.
//!
//! ```text
//! shards.manifest:
//!   <shard count>
//!   snapshot 0 2 40960
//!   snapshot 1 1 8834
//!   …
//! ```

use crate::fault::StorageIo;
use crate::log::{CompactionStats, EventLog, LogConfig, LogPosition, LogStats, WriteFaultCounters};
use spa_types::{LifeLogEvent, Result, ShardId, SpaError};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST: &str = "shards.manifest";

fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:04}"))
}

/// Parsed contents of `shards.manifest`: the shard count plus the
/// registered snapshot position per shard (`None` where no checkpoint
/// has been registered yet).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Manifest {
    shards: usize,
    snapshots: Vec<Option<LogPosition>>,
}

fn parse_manifest(path: &Path, text: &str) -> Result<Manifest> {
    let corrupt = |what: &str| SpaError::Corrupt(format!("manifest {}: {what}", path.display()));
    let mut lines = text.lines();
    let shards = lines
        .next()
        .and_then(|l| l.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .ok_or_else(|| corrupt("bad shard count on line 1"))?;
    let mut snapshots = vec![None; shards];
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["snapshot", shard, segment, offset] => {
                let shard = shard
                    .parse::<usize>()
                    .ok()
                    .filter(|&s| s < shards)
                    .ok_or_else(|| corrupt(&format!("snapshot line names shard {shard:?}")))?;
                let segment = segment
                    .parse::<u64>()
                    .map_err(|_| corrupt(&format!("bad snapshot segment {segment:?}")))?;
                let offset = offset
                    .parse::<u64>()
                    .map_err(|_| corrupt(&format!("bad snapshot offset {offset:?}")))?;
                snapshots[shard] = Some(LogPosition { segment, offset });
            }
            _ => return Err(corrupt(&format!("unrecognized line {line:?}"))),
        }
    }
    Ok(Manifest { shards, snapshots })
}

fn load_manifest(root: &Path) -> Result<Manifest> {
    let path = root.join(MANIFEST);
    let text = fs::read_to_string(&path).map_err(|e| {
        SpaError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    })?;
    parse_manifest(&path, &text)
}

fn store_manifest(root: &Path, manifest: &Manifest) -> Result<()> {
    let mut text = format!("{}\n", manifest.shards);
    for (shard, position) in manifest.snapshots.iter().enumerate() {
        if let Some(p) = position {
            text.push_str(&format!("snapshot {shard} {} {}\n", p.segment, p.offset));
        }
    }
    // atomic rewrite: a crash mid-checkpoint must leave the previous
    // registration intact, never a half-written manifest
    crate::snapshot::write_file_atomic(
        &root.join(MANIFEST),
        &root.join(format!("{MANIFEST}.tmp")),
        text.as_bytes(),
    )
}

fn read_manifest(root: &Path) -> Result<usize> {
    Ok(load_manifest(root)?.shards)
}

/// One [`EventLog`] per shard under a root directory, with a manifest
/// pinning the shard count across restarts.
pub struct ShardedEventLog {
    root: PathBuf,
    logs: Vec<EventLog>,
}

impl ShardedEventLog {
    /// Opens (creating if needed) a sharded log with `shards` shards,
    /// whose logs share one [`StorageIo`] seam (see
    /// [`EventLog::open_with_io`]). If the directory was used before,
    /// the manifest must agree — replaying events under a different
    /// partitioning would silently scramble per-shard streams, so a
    /// mismatch is a loud error.
    pub fn open_with_io(
        root: impl Into<PathBuf>,
        shards: usize,
        config: LogConfig,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self> {
        if shards == 0 {
            return Err(SpaError::Invalid("shard count must be at least 1".into()));
        }
        let root = root.into();
        fs::create_dir_all(&root)?;
        let manifest = root.join(MANIFEST);
        if manifest.exists() {
            let existing = read_manifest(&root)?;
            if existing != shards {
                return Err(SpaError::Invalid(format!(
                    "sharded log at {} has {existing} shards, caller wants {shards}",
                    root.display()
                )));
            }
        } else {
            fs::write(&manifest, format!("{shards}\n"))?;
        }
        let logs = (0..shards)
            .map(|i| EventLog::open_with_io(shard_dir(&root, i), config.clone(), io.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { root, logs })
    }

    /// Opens an existing sharded log, taking the shard count from the
    /// manifest (the crash-recovery entry point: the recovering process
    /// does not need to know the original configuration), with an
    /// explicit [`StorageIo`] seam.
    pub fn open_existing_with_io(
        root: impl Into<PathBuf>,
        config: LogConfig,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self> {
        let root = root.into();
        let shards = read_manifest(&root)?;
        Self::open_with_io(root, shards, config, io)
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Appends one event to one shard's log.
    pub fn append(&self, shard: ShardId, event: &LifeLogEvent) -> Result<()> {
        self.logs[shard.index()].append(event)
    }

    /// Appends pre-encoded frames to one shard's log (see
    /// [`EventLog::append_encoded`]).
    pub fn append_encoded(&self, shard: ShardId, frames: &[u8]) -> Result<usize> {
        self.logs[shard.index()].append_encoded(frames)
    }

    /// Flushes every shard's log.
    pub fn flush(&self) -> Result<()> {
        for log in &self.logs {
            log.flush()?;
        }
        Ok(())
    }

    /// Aggregate write-path fault accounting over all shards (see
    /// [`EventLog::write_fault_counters`]); zeroes under production
    /// I/O.
    pub fn write_fault_counters(&self) -> WriteFaultCounters {
        let mut total = WriteFaultCounters::default();
        for log in &self.logs {
            total.accumulate(log.write_fault_counters());
        }
        total
    }

    /// Aggregate statistics over all shards.
    pub fn stats(&self) -> Result<LogStats> {
        let mut total = LogStats::default();
        for log in &self.logs {
            let s = log.stats()?;
            total.segments += s.segments;
            total.bytes += s.bytes;
            total.events_appended += s.events_appended;
        }
        Ok(total)
    }

    /// One shard's current frame-boundary position without I/O (see
    /// [`EventLog::buffered_position`]).
    pub fn buffered_position(&self, shard: ShardId) -> LogPosition {
        self.logs[shard.index()].buffered_position()
    }

    /// Makes one shard's log durable up to `position` irrespective of
    /// the `fsync` configuration (see [`EventLog::sync_up_to`]).
    pub fn sync_up_to(&self, shard: ShardId, position: LogPosition) -> Result<()> {
        self.logs[shard.index()].sync_up_to(position)
    }

    /// Deletes one shard's segments fully covered by a snapshot at
    /// `position` (see [`EventLog::compact_before`]).
    pub fn compact_before(&self, shard: ShardId, position: LogPosition) -> Result<CompactionStats> {
        self.logs[shard.index()].compact_before(position)
    }

    /// Atomically registers one snapshot position per shard in the
    /// manifest (the final step of a platform checkpoint: once this
    /// returns, recovery will prefer the new snapshots). Entries are
    /// merged — shards passed as `None` keep their previous
    /// registration.
    pub fn register_snapshots(root: &Path, positions: &[Option<LogPosition>]) -> Result<()> {
        let mut manifest = load_manifest(root)?;
        if positions.len() != manifest.shards {
            return Err(SpaError::Invalid(format!(
                "registering {} snapshot positions for a {}-shard log",
                positions.len(),
                manifest.shards
            )));
        }
        for (slot, position) in manifest.snapshots.iter_mut().zip(positions) {
            if position.is_some() {
                *slot = *position;
            }
        }
        store_manifest(root, &manifest)
    }

    /// The registered snapshot position per shard (`None` where no
    /// checkpoint has ever been registered).
    pub fn registered_snapshots(root: &Path) -> Result<Vec<Option<LogPosition>>> {
        Ok(load_manifest(root)?.snapshots)
    }

    /// The directory holding one shard's segments (for writer-free
    /// streaming replay via [`EventLog::replay_iter`]).
    pub fn shard_path(root: &Path, shard: ShardId) -> PathBuf {
        shard_dir(root, shard.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::real_io;
    use spa_types::{ActionId, EventKind, Timestamp, UserId};

    fn tmp_root(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spa-shardlog-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn event(i: u32) -> LifeLogEvent {
        LifeLogEvent::new(
            UserId::new(i),
            Timestamp::from_millis(i as u64),
            EventKind::Action { action: ActionId::new(i % 984), course: None },
        )
    }

    #[test]
    fn routes_appends_to_the_right_shard() {
        let root = tmp_root("route");
        let set = ShardedEventLog::open_with_io(&root, 3, LogConfig::default(), real_io()).unwrap();
        for i in 0..30 {
            set.append(ShardId::new(i % 3), &event(i)).unwrap();
        }
        set.flush().unwrap();
        for s in 0..3u32 {
            let events: Vec<_> =
                EventLog::replay_iter(ShardedEventLog::shard_path(&root, ShardId::new(s)))
                    .unwrap()
                    .collect::<Result<_>>()
                    .unwrap();
            assert_eq!(events.len(), 10);
            assert!(events.iter().all(|e| e.user.raw() % 3 == s));
        }
        assert_eq!(set.stats().unwrap().events_appended, 30);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_pins_the_shard_count() {
        let root = tmp_root("manifest");
        {
            let _ =
                ShardedEventLog::open_with_io(&root, 4, LogConfig::default(), real_io()).unwrap();
        }
        // reopening with the same count is fine, a different count is loud
        assert!(ShardedEventLog::open_with_io(&root, 4, LogConfig::default(), real_io()).is_ok());
        assert!(matches!(
            ShardedEventLog::open_with_io(&root, 5, LogConfig::default(), real_io()),
            Err(SpaError::Invalid(_))
        ));
        let reopened =
            ShardedEventLog::open_existing_with_io(&root, LogConfig::default(), real_io()).unwrap();
        assert_eq!(reopened.logs.len(), 4);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_shards_is_invalid() {
        let root = tmp_root("zero");
        assert!(ShardedEventLog::open_with_io(&root, 0, LogConfig::default(), real_io()).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_existing_without_manifest_is_an_error() {
        let root = tmp_root("nomanifest");
        fs::create_dir_all(&root).unwrap();
        assert!(
            ShardedEventLog::open_existing_with_io(&root, LogConfig::default(), real_io()).is_err()
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_manifest_is_loud() {
        let root = tmp_root("badmanifest");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join(MANIFEST), "not-a-number\n").unwrap();
        assert!(matches!(
            ShardedEventLog::open_existing_with_io(&root, LogConfig::default(), real_io()),
            Err(SpaError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_registration_round_trips_and_merges() {
        let root = tmp_root("register");
        {
            let _ =
                ShardedEventLog::open_with_io(&root, 3, LogConfig::default(), real_io()).unwrap();
        }
        assert_eq!(
            ShardedEventLog::registered_snapshots(&root).unwrap(),
            vec![None, None, None],
            "fresh manifest has no registrations"
        );
        let first = LogPosition { segment: 2, offset: 100 };
        ShardedEventLog::register_snapshots(&root, &[Some(first), None, None]).unwrap();
        assert_eq!(
            ShardedEventLog::registered_snapshots(&root).unwrap(),
            vec![Some(first), None, None]
        );
        // a later registration for other shards keeps shard 0's entry
        let second = LogPosition { segment: 0, offset: 7 };
        ShardedEventLog::register_snapshots(&root, &[None, Some(second), None]).unwrap();
        assert_eq!(
            ShardedEventLog::registered_snapshots(&root).unwrap(),
            vec![Some(first), Some(second), None]
        );
        // the count line still reads back, and reopening still works
        let reopened =
            ShardedEventLog::open_existing_with_io(&root, LogConfig::default(), real_io()).unwrap();
        assert_eq!(reopened.logs.len(), 3);
        // wrong-arity registration is rejected
        assert!(ShardedEventLog::register_snapshots(&root, &[None]).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn manifest_rejects_bad_snapshot_lines() {
        let root = tmp_root("badsnapline");
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join(MANIFEST), "2\nsnapshot 5 0 0\n").unwrap();
        assert!(matches!(ShardedEventLog::registered_snapshots(&root), Err(SpaError::Corrupt(_))));
        fs::write(root.join(MANIFEST), "2\nnonsense line\n").unwrap();
        assert!(matches!(
            ShardedEventLog::open_existing_with_io(&root, LogConfig::default(), real_io()),
            Err(SpaError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }
}
