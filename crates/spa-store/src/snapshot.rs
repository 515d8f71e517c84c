//! Versioned, checksummed platform snapshots.
//!
//! A write-ahead log alone makes recovery **O(history)**: replaying
//! months of LifeLogs (≈50 GB/month in the paper's deployment, §5.1)
//! after every restart is unacceptable for a serving system. The
//! standard fix is the WAL + checkpoint architecture: periodically
//! serialize the in-memory state, record the log position the snapshot
//! covers, and on recovery load the newest valid snapshot and replay
//! only the tail behind it. Once a snapshot is durable, the covered
//! segments can be deleted ([`crate::log::EventLog::compact_before`]),
//! bounding both recovery time and disk usage.
//!
//! This module provides the **container**, not the contents: a snapshot
//! is a [`LogPosition`] plus a sequence of opaque, tagged,
//! length-prefixed sections, the whole body protected by one CRC-32.
//! The platform layer (spa-core) decides what goes in the sections
//! (user models, counters, selection weights); this layer guarantees
//! that whatever was written either reads back byte-identical or fails
//! loudly — a flipped bit anywhere in the file is a
//! [`SpaError::Corrupt`], never a silently different payload.
//!
//! ## File layout (little-endian)
//!
//! ```text
//! magic  "SPASNAP1"                      (8 bytes)
//! body:  version   u32                   (currently 1)
//!        segment   u64  ┐ log position the snapshot covers
//!        offset    u64  ┘
//!        n_sections u32
//!        n × [ tag u32 | len u64 | payload (len bytes) ]
//! crc32 over body                        (4 bytes)
//! ```
//!
//! ## Built in place, validated without copies
//!
//! A shard snapshot runs to megabytes, and a checkpoint writes one per
//! shard, so no step of the maintenance path copies a whole image.
//! [`SnapshotBuilder`] holds the file image itself: the header is
//! written when the builder starts, and each section is appended to the
//! image as it is added — [`SnapshotBuilder::section_with`] hands the
//! image to the section's encoder, which appends its payload straight
//! into it (the section count and length are patched behind it). The
//! CRC is computed over the image in place and written after it.
//!
//! Reading has one parse, borrowed from the file buffer, that checks
//! magic, CRC, version, every section's bounds and trailing bytes.
//! [`Snapshot::decode`] copies the sections out of it;
//! [`Snapshot::read_position_with`] — what compaction runs before it
//! deletes covered segments — makes the same checks and copies nothing.
//!
//! ## Atomicity
//!
//! [`SnapshotBuilder::write_atomic`] writes to a temporary file in the
//! same directory, `fsync`s it, renames it over the final
//! position-derived name ([`snapshot_path`]) and `fsync`s the
//! directory. A crash at any point leaves either the old snapshot set
//! untouched or the new file fully in place — never a half-written
//! snapshot under a discoverable name. Discovery
//! ([`latest_valid_snapshot`]) ignores temporaries and skips files that
//! fail their CRC, so a torn temp write can never shadow an older good
//! checkpoint.

use crate::codec::crc32;
use crate::fault::{
    injected_error, real_io, StorageIo, WriteFault, INJECTED_FSYNC_FAILURE, INJECTED_TORN_WRITE,
    INJECTED_TRANSIENT_EIO,
};
use crate::log::LogPosition;
use spa_types::{Result, SpaError};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"SPASNAP1";

/// Current container format version.
pub(crate) const SNAPSHOT_VERSION: u32 = 1;

/// Suffix of finished snapshot files.
pub(crate) const SNAPSHOT_EXT: &str = "snap";

/// Suffix of in-flight temporary files (ignored by discovery, removed
/// loudly by recovery's [`remove_stale_temps`]).
pub(crate) const TMP_EXT: &str = "snap-tmp";

/// Makes a completed rename durable by fsyncing its directory. A POSIX
/// notion — on non-unix targets the rename is left to the OS's own
/// metadata durability (opening a directory for sync is not portable).
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

/// The one crash-atomic file write in this crate: `bytes` land in `tmp`
/// (same directory), the file is fsynced, renamed over `path`, and the
/// directory fsynced. A crash at any point leaves `path` either absent
/// or its previous content — never partial. Used by snapshot files and
/// the shard manifest alike, so the sequence has exactly one
/// implementation to audit.
pub(crate) fn write_file_atomic(path: &Path, tmp: &Path, bytes: &[u8]) -> Result<()> {
    write_file_atomic_with(path, tmp, &[bytes], &crate::fault::RealIo)
}

/// [`write_file_atomic`] of the concatenation of `parts` (a snapshot
/// image and the CRC behind it, so the image is never copied to append
/// four bytes), with a [`StorageIo`] seam consulted once for the whole
/// file. Unlike the WAL append path there is no retry policy here: any
/// injected fault fails the whole atomic write loudly (the final `path`
/// is never touched — the rename only happens after a clean write +
/// fsync) and the operation as a whole (a checkpoint) simply did not
/// commit. A torn or transient fault leaves the partial/empty **temp**
/// file behind, exactly like a crash mid-checkpoint — recovery's
/// [`remove_stale_temps`] sweeps those.
pub(crate) fn write_file_atomic_with(
    path: &Path,
    tmp: &Path,
    parts: &[&[u8]],
    io: &dyn StorageIo,
) -> Result<()> {
    {
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(tmp)?;
        let len: usize = parts.iter().map(|part| part.len()).sum();
        match io.write_fault(len) {
            None => {
                for part in parts {
                    file.write_all(part)?;
                }
            }
            Some(WriteFault::Transient) => {
                return Err(SpaError::Io(injected_error(
                    INJECTED_TRANSIENT_EIO,
                    format!("writing {}", tmp.display()),
                )))
            }
            Some(WriteFault::Torn { keep }) => {
                let keep = keep.min(len);
                let mut left = keep;
                for part in parts {
                    let n = left.min(part.len());
                    file.write_all(&part[..n])?;
                    left -= n;
                }
                return Err(SpaError::Io(injected_error(
                    INJECTED_TORN_WRITE,
                    format!("{keep} of {len} bytes landed in {}", tmp.display()),
                )));
            }
        }
        if io.fsync_fault() {
            return Err(SpaError::Io(injected_error(
                INJECTED_FSYNC_FAILURE,
                format!("syncing {}", tmp.display()),
            )));
        }
        file.sync_all()?;
    }
    fs::rename(tmp, path)?;
    let dir = path.parent().ok_or_else(|| {
        SpaError::Invalid(format!("path {} has no parent directory", path.display()))
    })?;
    sync_dir(dir)?;
    Ok(())
}

/// Removes stale temporary files (`*.snap-tmp` and `*.tmp`) left in
/// `dir` by a crash mid-atomic-write, returning the removed paths so
/// the caller can surface the cleanup loudly. Finished snapshots,
/// manifests and subdirectories are never touched; a missing `dir` is
/// an empty sweep.
pub fn remove_stale_temps(dir: impl AsRef<Path>) -> Result<Vec<PathBuf>> {
    let mut removed = Vec::new();
    let entries = match fs::read_dir(dir.as_ref()) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(removed),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        if path.is_dir() {
            continue;
        }
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if name.ends_with(&format!(".{TMP_EXT}")) || name.ends_with(".tmp") {
            fs::remove_file(&path)?;
            removed.push(path);
        }
    }
    removed.sort();
    Ok(removed)
}

/// Bounds-checked cursor advance shared by the binary state codecs:
/// splits `n` bytes off the front of `cursor` or errors with a
/// [`SpaError::Corrupt`] naming `what`.
pub fn take<'a>(cursor: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if cursor.len() < n {
        return Err(SpaError::Corrupt(format!("state truncated reading {what}")));
    }
    let (head, tail) = cursor.split_at(n);
    *cursor = tail;
    Ok(head)
}

/// Bytes of the fixed header: magic, version, position, section count.
const HEADER_LEN: usize = MAGIC.len() + 4 + 16 + 4;

/// Where the section count sits in the image.
const SECTION_COUNT_AT: usize = HEADER_LEN - 4;

/// Builds and atomically writes one snapshot file. The builder holds
/// the file image itself — magic, header and each section as it is
/// added — so writing it costs one CRC pass over the image and the
/// write, never a copy.
pub struct SnapshotBuilder {
    image: Vec<u8>,
}

impl SnapshotBuilder {
    /// Starts a snapshot covering the log prefix up to `position`.
    pub fn new(position: LogPosition) -> Self {
        let mut image = Vec::with_capacity(HEADER_LEN);
        image.extend_from_slice(MAGIC);
        image.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        image.extend_from_slice(&position.segment.to_le_bytes());
        image.extend_from_slice(&position.offset.to_le_bytes());
        image.extend_from_slice(&0u32.to_le_bytes());
        Self { image }
    }

    /// Appends one tagged section. Tags are the platform layer's
    /// vocabulary; the container does not interpret them.
    pub fn section(&mut self, tag: u32, payload: Vec<u8>) -> &mut Self {
        self.section_with(tag, |out| out.extend_from_slice(&payload))
    }

    /// Appends one tagged section whose payload `write` appends straight
    /// into the image (it must only append: the bytes it finds in `out`
    /// are the snapshot so far).
    pub fn section_with(&mut self, tag: u32, write: impl FnOnce(&mut Vec<u8>)) -> &mut Self {
        let count_at = SECTION_COUNT_AT..HEADER_LEN;
        let count = u32::from_le_bytes(self.image[count_at.clone()].try_into().expect("4 bytes"));
        self.image[count_at].copy_from_slice(&(count + 1).to_le_bytes());
        self.image.extend_from_slice(&tag.to_le_bytes());
        let len_at = self.image.len();
        self.image.extend_from_slice(&0u64.to_le_bytes());
        write(&mut self.image);
        let len = (self.image.len() - len_at - 8) as u64;
        self.image[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        self
    }

    /// Writes the snapshot to `path` atomically (temp file in the same
    /// directory → `fsync` → rename → directory `fsync`) and returns
    /// the file size. An existing file at `path` is replaced atomically;
    /// a crash mid-write leaves it untouched.
    pub fn write_atomic(&self, path: impl AsRef<Path>) -> Result<u64> {
        self.write_atomic_with(path, real_io().as_ref())
    }

    /// [`SnapshotBuilder::write_atomic`] with a [`StorageIo`] seam: an
    /// injected fault fails the checkpoint loudly before the rename, so
    /// the discoverable snapshot set is untouched (see
    /// `write_file_atomic_with` for what each fault leaves behind).
    pub fn write_atomic_with(&self, path: impl AsRef<Path>, io: &dyn StorageIo) -> Result<u64> {
        let path = path.as_ref();
        let dir = path.parent().ok_or_else(|| {
            SpaError::Invalid(format!("snapshot path {} has no parent directory", path.display()))
        })?;
        fs::create_dir_all(dir)?;
        let crc = crc32(&self.image[MAGIC.len()..]).to_le_bytes();
        write_file_atomic_with(path, &path.with_extension(TMP_EXT), &[&self.image, &crc], io)?;
        Ok((self.image.len() + crc.len()) as u64)
    }
}

/// One decoded snapshot: the covered log position plus its sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    position: LogPosition,
    sections: Vec<(u32, Vec<u8>)>,
}

/// Reads a whole snapshot file and passes the buffer through
/// [`StorageIo::read_fault`] (`tail = false` — a snapshot is not a log
/// tail), so injected bit rot meets the container CRC like real rot.
fn read_image(path: &Path, io: &dyn StorageIo) -> Result<Vec<u8>> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    io.read_fault(&mut bytes, false);
    Ok(bytes)
}

/// Names the file in a snapshot validation error.
fn in_file(path: &Path) -> impl FnOnce(SpaError) -> SpaError + '_ {
    move |e| SpaError::Corrupt(format!("snapshot {}: {e}", path.display()))
}

/// The one validation of a snapshot image: magic, CRC, version, every
/// section's bounds and no trailing bytes, in that order. Hands each
/// `(tag, payload)` to `section` as a borrow of `bytes`, in file order,
/// and returns the covered position. Any mismatch is
/// [`SpaError::Corrupt`].
fn parse<'a>(bytes: &'a [u8], mut section: impl FnMut(u32, &'a [u8])) -> Result<LogPosition> {
    if bytes.len() < HEADER_LEN + 4 {
        return Err(SpaError::Corrupt("file shorter than the fixed header".into()));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SpaError::Corrupt("bad magic".into()));
    }
    let body = &bytes[MAGIC.len()..bytes.len() - 4];
    let crc_stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    let crc_actual = crc32(body);
    if crc_stored != crc_actual {
        return Err(SpaError::Corrupt(format!(
            "checksum mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}"
        )));
    }
    let mut cursor = body;
    let version = u32::from_le_bytes(take(&mut cursor, 4, "version")?.try_into().expect("4"));
    if version != SNAPSHOT_VERSION {
        return Err(SpaError::Corrupt(format!("unsupported snapshot version {version}")));
    }
    let segment = u64::from_le_bytes(take(&mut cursor, 8, "segment")?.try_into().expect("8"));
    let offset = u64::from_le_bytes(take(&mut cursor, 8, "offset")?.try_into().expect("8"));
    let n_sections =
        u32::from_le_bytes(take(&mut cursor, 4, "section count")?.try_into().expect("4"));
    for i in 0..n_sections {
        let tag = u32::from_le_bytes(take(&mut cursor, 4, "section tag")?.try_into().expect("4"));
        let len =
            u64::from_le_bytes(take(&mut cursor, 8, "section length")?.try_into().expect("8"));
        let len = usize::try_from(len)
            .map_err(|_| SpaError::Corrupt(format!("section {i} length {len} overflows")))?;
        section(tag, take(&mut cursor, len, "section payload")?);
    }
    if !cursor.is_empty() {
        return Err(SpaError::Corrupt(format!("{} trailing bytes", cursor.len())));
    }
    Ok(LogPosition { segment, offset })
}

impl Snapshot {
    /// Reads and fully validates a snapshot file. Any mismatch — bad
    /// magic, bad CRC, unknown version, truncated or trailing bytes,
    /// section lengths beyond the buffer — is [`SpaError::Corrupt`].
    pub fn read(path: impl AsRef<Path>) -> Result<Self> {
        Self::read_with(path, real_io())
    }

    /// [`Snapshot::read`] with a [`StorageIo`] seam: the freshly read
    /// buffer passes through [`StorageIo::read_fault`] before decoding
    /// (`tail = false` — a snapshot is not a log tail), so injected bit
    /// rot must be caught by the container CRC and surfaced as a loud
    /// [`SpaError::Corrupt`].
    pub fn read_with(path: impl AsRef<Path>, io: Arc<dyn StorageIo>) -> Result<Self> {
        let path = path.as_ref();
        Self::decode(&read_image(path, io.as_ref())?).map_err(in_file(path))
    }

    /// Decodes a snapshot from raw bytes (the validation core of
    /// [`Snapshot::read`]).
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut sections = Vec::new();
        let position = parse(bytes, |tag, payload| sections.push((tag, payload.to_vec())))?;
        Ok(Self { position, sections })
    }

    /// Fully validates a snapshot file — the same checks as
    /// [`Snapshot::read_with`], through the same [`StorageIo::read_fault`]
    /// seam — and returns only the position it covers, copying no
    /// section out. What compaction needs before it deletes the covered
    /// segments.
    pub fn read_position_with(path: impl AsRef<Path>, io: &dyn StorageIo) -> Result<LogPosition> {
        let path = path.as_ref();
        Self::decode_position(&read_image(path, io)?).map_err(in_file(path))
    }

    /// [`Snapshot::decode`]'s validation alone: the covered position of
    /// a snapshot image that passes every check, and the same
    /// [`SpaError::Corrupt`] for one that fails any.
    pub fn decode_position(bytes: &[u8]) -> Result<LogPosition> {
        parse(bytes, |_, _| {})
    }

    /// Log position the snapshot covers: recovery replays the tail
    /// after it, compaction may delete segments fully before it.
    pub fn position(&self) -> LogPosition {
        self.position
    }

    /// The first section carrying `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<&[u8]> {
        self.sections.iter().find(|(t, _)| *t == tag).map(|(_, p)| p.as_slice())
    }

    /// All `(tag, payload)` sections in file order.
    pub fn sections(&self) -> &[(u32, Vec<u8>)] {
        &self.sections
    }
}

/// Canonical file name of a snapshot covering `position`, sortable by
/// position (zero-padded) so lexical order is coverage order.
pub(crate) fn snapshot_file_name(position: LogPosition) -> String {
    format!("snapshot-{:010}-{:012}.{SNAPSHOT_EXT}", position.segment, position.offset)
}

/// Canonical path of a snapshot covering `position` inside `dir`.
pub fn snapshot_path(dir: impl AsRef<Path>, position: LogPosition) -> PathBuf {
    dir.as_ref().join(snapshot_file_name(position))
}

/// Lists snapshot files in `dir`, ascending by covered position.
/// Temporaries and foreign files are ignored; validity is **not**
/// checked here (see [`latest_valid_snapshot`]).
pub fn list_snapshots(dir: impl AsRef<Path>) -> Result<Vec<(LogPosition, PathBuf)>> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir.as_ref()) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        let Some(rest) = name.strip_prefix("snapshot-") else { continue };
        let Some(rest) = rest.strip_suffix(&format!(".{SNAPSHOT_EXT}")) else { continue };
        let mut parts = rest.splitn(2, '-');
        let (Some(seg), Some(off)) = (parts.next(), parts.next()) else { continue };
        let (Ok(segment), Ok(offset)) = (seg.parse::<u64>(), off.parse::<u64>()) else { continue };
        found.push((LogPosition { segment, offset }, path));
    }
    found.sort_by_key(|&(p, _)| p);
    Ok(found)
}

/// Loads the newest snapshot in `dir` that passes full validation,
/// skipping (not erroring on) corrupt or unreadable ones — a torn or
/// bit-rotted newest snapshot falls back to the previous good one.
/// `None` when no valid snapshot exists.
pub fn latest_valid_snapshot(dir: impl AsRef<Path>) -> Result<Option<(Snapshot, PathBuf)>> {
    for (_, path) in list_snapshots(dir.as_ref())?.into_iter().rev() {
        if let Ok(snapshot) = Snapshot::read(&path) {
            return Ok(Some((snapshot, path)));
        }
    }
    Ok(None)
}

/// Deletes snapshot files covering positions strictly before `keep`
/// (used after a newer checkpoint is registered). Returns how many were
/// removed.
pub fn prune_snapshots_before(dir: impl AsRef<Path>, keep: LogPosition) -> Result<usize> {
    let mut removed = 0;
    for (position, path) in list_snapshots(dir.as_ref())? {
        if position < keep {
            fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spa-snap-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(position: LogPosition) -> SnapshotBuilder {
        let mut b = SnapshotBuilder::new(position);
        b.section(1, vec![1, 2, 3, 4, 5]).section(2, Vec::new()).section(7, vec![0xAB; 33]);
        b
    }

    #[test]
    fn round_trips_positions_and_sections() {
        let dir = tmp_dir("roundtrip");
        let position = LogPosition { segment: 3, offset: 4096 };
        let path = snapshot_path(&dir, position);
        let bytes = sample(position).write_atomic(&path).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), bytes);
        let snap = Snapshot::read(&path).unwrap();
        assert_eq!(snap.position(), position);
        assert_eq!(snap.section(1), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(snap.section(2), Some(&[][..]));
        assert_eq!(snap.section(7).unwrap().len(), 33);
        assert_eq!(snap.section(99), None);
        assert_eq!(snap.sections().len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let dir = tmp_dir("empty");
        let path = snapshot_path(&dir, LogPosition::default());
        SnapshotBuilder::new(LogPosition::default()).write_atomic(&path).unwrap();
        let snap = Snapshot::read(&path).unwrap();
        assert_eq!(snap.position(), LogPosition::default());
        assert!(snap.sections().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn listing_sorts_by_position_and_ignores_temporaries() {
        let dir = tmp_dir("list");
        for position in [
            LogPosition { segment: 2, offset: 10 },
            LogPosition { segment: 0, offset: 999 },
            LogPosition { segment: 2, offset: 5 },
        ] {
            sample(position).write_atomic(snapshot_path(&dir, position)).unwrap();
        }
        fs::write(dir.join("snapshot-0000000009-000000000000.snap-tmp"), b"half written").unwrap();
        fs::write(dir.join("unrelated.txt"), b"noise").unwrap();
        let listed = list_snapshots(&dir).unwrap();
        let positions: Vec<LogPosition> = listed.iter().map(|&(p, _)| p).collect();
        assert_eq!(
            positions,
            vec![
                LogPosition { segment: 0, offset: 999 },
                LogPosition { segment: 2, offset: 5 },
                LogPosition { segment: 2, offset: 10 },
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_skips_a_corrupt_newer_snapshot() {
        let dir = tmp_dir("fallback");
        let old = LogPosition { segment: 1, offset: 100 };
        let new = LogPosition { segment: 5, offset: 7 };
        sample(old).write_atomic(snapshot_path(&dir, old)).unwrap();
        sample(new).write_atomic(snapshot_path(&dir, new)).unwrap();
        // bit-rot the newer file
        let mut bytes = fs::read(snapshot_path(&dir, new)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs::write(snapshot_path(&dir, new), &bytes).unwrap();
        let (snap, path) = latest_valid_snapshot(&dir).unwrap().expect("older one is valid");
        assert_eq!(snap.position(), old);
        assert_eq!(path, snapshot_path(&dir, old));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_lists_empty() {
        let dir = std::env::temp_dir().join("spa-snap-definitely-not-there");
        assert!(list_snapshots(&dir).unwrap().is_empty());
        assert!(latest_valid_snapshot(&dir).unwrap().is_none());
    }

    #[test]
    fn prune_removes_only_older_snapshots() {
        let dir = tmp_dir("prune");
        let keep = LogPosition { segment: 4, offset: 0 };
        for position in [
            LogPosition { segment: 1, offset: 0 },
            LogPosition { segment: 3, offset: 900 },
            keep,
            LogPosition { segment: 6, offset: 1 },
        ] {
            sample(position).write_atomic(snapshot_path(&dir, position)).unwrap();
        }
        assert_eq!(prune_snapshots_before(&dir, keep).unwrap(), 2);
        let left: Vec<LogPosition> =
            list_snapshots(&dir).unwrap().into_iter().map(|(p, _)| p).collect();
        assert_eq!(left, vec![keep, LogPosition { segment: 6, offset: 1 }]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_at_the_same_position_is_atomic_replace() {
        let dir = tmp_dir("rewrite");
        let position = LogPosition { segment: 0, offset: 64 };
        let path = snapshot_path(&dir, position);
        sample(position).write_atomic(&path).unwrap();
        let mut b = SnapshotBuilder::new(position);
        b.section(42, vec![9; 8]);
        b.write_atomic(&path).unwrap();
        let snap = Snapshot::read(&path).unwrap();
        assert_eq!(snap.section(42), Some(&[9u8; 8][..]));
        assert_eq!(snap.section(1), None, "old contents fully replaced");
        let _ = fs::remove_dir_all(&dir);
    }
}
