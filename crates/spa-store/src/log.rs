//! Append-only, segmented event log.
//!
//! LifeLog events arrive as a continuous stream ("the continuous storage
//! of raw information streams", §4). The log stores them in numbered
//! segment files (`segment-0000000000.log`, …), rolling to a new segment
//! once the active one exceeds a size threshold. Each record is framed
//! with a length and CRC ([`crate::codec`]), so replay detects both bit
//! rot (error) and a torn tail write (reported, then cut off when the
//! log is next opened, like a WAL recovery).
//!
//! One way in, one way out: [`EventLog::append`] and
//! [`EventLog::append_encoded`] share one locked write core, and
//! [`ReplayIter`] is the only frame walk — opening a log replays its
//! active segment with it to find the torn tail it cuts.

use crate::codec::{decode_frame, encode_frame, FrameRead};
use crate::fault::{
    injected_error, real_io, StorageIo, WriteFault, INJECTED_FSYNC_FAILURE, INJECTED_TORN_WRITE,
    INJECTED_TRANSIENT_EIO,
};
use bytes::BytesMut;
use parking_lot::Mutex;
use spa_types::{LifeLogEvent, Result, SpaError};
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How many transient write faults the append path absorbs per write
/// before giving up and poisoning the log. A transient fault leaves the
/// file untouched, so re-attempting is always sound; bounding the
/// retries keeps a persistently failing device from hanging ingest.
pub const WRITE_RETRY_LIMIT: u32 = 4;

/// Base backoff between transient-write retries, in microseconds
/// (doubled per successive retry of the same write).
pub(crate) const WRITE_RETRY_BACKOFF_US: u64 = 20;

/// Write-path fault accounting for one log: how the bounded retry
/// policy disposed of transient write faults. All zero under
/// production I/O ([`crate::fault::RealIo`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteFaultCounters {
    /// Transient write faults absorbed by in-place retries (the write
    /// eventually landed; callers never saw an error).
    pub transients_absorbed: u64,
    /// Transient write faults in bursts that exhausted
    /// [`WRITE_RETRY_LIMIT`] and poisoned the log.
    pub transients_fatal: u64,
    /// Writes that succeeded only after at least one retry.
    pub writes_recovered: u64,
}

impl WriteFaultCounters {
    /// Component-wise sum (for aggregating shards).
    pub fn accumulate(&mut self, other: WriteFaultCounters) {
        self.transients_absorbed += other.transients_absorbed;
        self.transients_fatal += other.transients_fatal;
        self.writes_recovered += other.writes_recovered;
    }
}

/// Configuration for an [`EventLog`].
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Roll to a new segment after the active one reaches this many
    /// bytes (default 8 MiB).
    pub segment_bytes: u64,
    /// Call `sync_all` on segment roll and explicit flushes.
    pub fsync: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self { segment_bytes: 8 * 1024 * 1024, fsync: false }
    }
}

/// Aggregate statistics of a log directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Number of segment files.
    pub segments: usize,
    /// Total bytes across segments.
    pub bytes: u64,
    /// Events successfully appended (writer-side counter).
    pub events_appended: u64,
}

/// A durable position in a segmented log: the byte `offset` within
/// segment `segment` where the next frame will begin. A checkpoint
/// takes its position with [`EventLog::buffered_position`] (always on a
/// frame boundary) and makes the prefix before it durable with
/// [`EventLog::sync_up_to`]. Positions are stored inside snapshots
/// ([`crate::snapshot`]) and consumed by [`EventLog::replay_iter_from`]
/// (replay the tail after a checkpoint) and [`EventLog::compact_before`]
/// (delete fully covered segments). Ordered by `(segment, offset)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LogPosition {
    /// Segment index the position points into.
    pub segment: u64,
    /// Byte offset within that segment (frame boundary).
    pub offset: u64,
}

impl std::fmt::Display for LogPosition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.segment, self.offset)
    }
}

/// What [`EventLog::compact_before`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Segment files deleted (every one strictly below the position's
    /// segment index).
    pub segments_deleted: usize,
    /// Bytes those segments held.
    pub bytes_reclaimed: u64,
}

/// Where a replay found the final segment cut off mid-frame — the
/// signature of a crash during an append. Everything before `offset`
/// decoded cleanly; the bytes from `offset` to the end of the segment
/// are an unfinished frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornTail {
    /// Index of the (last) segment holding the partial frame.
    pub(crate) segment: u64,
    /// Byte offset of the first torn byte within that segment.
    pub offset: u64,
    /// How many trailing bytes the partial frame occupies.
    pub bytes_dropped: u64,
}

struct Writer {
    file: BufWriter<File>,
    segment_index: u64,
    segment_bytes: u64,
    events_appended: u64,
    io_counters: WriteFaultCounters,
    /// The frame [`EventLog::append`] encodes into, reused across calls.
    scratch: BytesMut,
    /// Set after a failed write. The active segment may end in a torn
    /// frame, so accepting further appends would bury acknowledged
    /// events *behind* the tear — the next open cuts the log at the
    /// first torn frame and would silently discard them. Poisoned logs
    /// refuse all appends until reopened.
    poisoned: bool,
}

impl Writer {
    /// Writes one run of whole frames into the active segment. The
    /// segment size and the appended count move only once it lands.
    fn land(&mut self, io: &dyn StorageIo, run: &[u8], frames: usize) -> Result<()> {
        write_guarded(&mut self.file, &mut self.io_counters, io, run)?;
        self.segment_bytes += run.len() as u64;
        self.events_appended += frames as u64;
        Ok(())
    }
}

/// One guarded physical write: consults the [`StorageIo`] seam before
/// the real `write_all`, applying the bounded transient-retry policy.
///
/// * A **transient** fault leaves the file untouched, so the write is
///   retried in place (short exponential backoff) up to
///   [`WRITE_RETRY_LIMIT`] times; exhaustion surfaces a loud error the
///   caller must treat like any failed write (poison).
/// * A **torn** fault is made physically real: previously buffered
///   frames are flushed first (they were acknowledged and must land
///   *before* the tear), then the fault's prefix of `bytes` is written
///   straight to the file, and an error is returned — the segment now
///   ends mid-frame exactly as a crash during `write(2)` would leave
///   it, and only the torn-tail cut of the next open may touch it again.
fn write_guarded(
    file: &mut BufWriter<File>,
    counters: &mut WriteFaultCounters,
    io: &dyn StorageIo,
    bytes: &[u8],
) -> std::io::Result<()> {
    if bytes.is_empty() {
        return Ok(());
    }
    let mut transients = 0u32;
    loop {
        match io.write_fault(bytes.len()) {
            None => break,
            Some(WriteFault::Transient) => {
                transients += 1;
                if transients > WRITE_RETRY_LIMIT {
                    counters.transients_fatal += transients as u64;
                    return Err(injected_error(
                        INJECTED_TRANSIENT_EIO,
                        format!("persisted through {transients} write attempts"),
                    ));
                }
                std::thread::sleep(std::time::Duration::from_micros(
                    WRITE_RETRY_BACKOFF_US << (transients - 1).min(6),
                ));
            }
            Some(WriteFault::Torn { keep }) => {
                // Acknowledged frames buffered ahead of this write land
                // first, then the tear: a best-effort flush whose own
                // failure changes nothing (the log poisons either way).
                let _ = file.flush();
                let keep = keep.min(bytes.len());
                if keep > 0 {
                    // `&File` implements `Write`, so the partial frame
                    // bypasses the BufWriter and lands immediately.
                    let mut raw: &File = file.get_ref();
                    let _ = raw.write_all(&bytes[..keep]);
                }
                return Err(injected_error(
                    INJECTED_TORN_WRITE,
                    format!("{keep} of {} bytes landed", bytes.len()),
                ));
            }
        }
    }
    if transients > 0 {
        counters.transients_absorbed += transients as u64;
        counters.writes_recovered += 1;
    }
    file.write_all(bytes)
}

/// One guarded fsync: an injected fault fails the sync without calling
/// it — per fsyncgate semantics the durability of earlier writes is
/// then unknown, and the call site decides whether that poisons (mid-
/// append segment roll) or merely fails the operation loudly (an
/// explicit flush or checkpoint sync, where nothing was torn and the
/// caller simply did not get its durability point).
fn sync_guarded(io: &dyn StorageIo, file: &File) -> std::io::Result<()> {
    if io.fsync_fault() {
        return Err(injected_error(INJECTED_FSYNC_FAILURE, "sync_all failed".into()));
    }
    file.sync_all()
}

/// A durable, append-only LifeLog event store over a directory of
/// segment files. Appends are serialized behind a mutex; replay opens
/// the segments independently of the writer.
pub struct EventLog {
    dir: PathBuf,
    config: LogConfig,
    io: Arc<dyn StorageIo>,
    writer: Mutex<Writer>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:010}.log"))
}

fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if let Some(idx) = name.strip_prefix("segment-").and_then(|r| r.strip_suffix(".log")) {
            if let Ok(index) = idx.parse::<u64>() {
                segments.push((index, path));
            }
        }
    }
    segments.sort_by_key(|&(i, _)| i);
    Ok(segments)
}

impl EventLog {
    /// Opens (creating if needed) a log in `dir`. Appends continue into
    /// the highest existing segment.
    ///
    /// Opening a log is where a torn tail is cut: the active segment is
    /// replayed first, and a partial frame at its tail (a crash during
    /// an append) is truncated away, so new appends never bury garbage
    /// mid-segment where replay would mistake it for corruption. A
    /// checksum-invalid frame earlier in the segment is a loud
    /// [`SpaError::Corrupt`] instead.
    pub fn open(dir: impl Into<PathBuf>, config: LogConfig) -> Result<Self> {
        Self::open_with_io(dir, config, real_io())
    }

    /// [`EventLog::open`] with an explicit [`StorageIo`] seam: every
    /// physical write and fsync this log performs consults `io` first.
    /// Production callers use [`EventLog::open`] (a no-op seam); chaos
    /// harnesses pass a [`crate::fault::FaultPlan`]. The open itself
    /// (the torn-tail cut) always uses real I/O — injection starts with
    /// the first append.
    pub fn open_with_io(
        dir: impl Into<PathBuf>,
        config: LogConfig,
        io: Arc<dyn StorageIo>,
    ) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segment_index = list_segments(&dir)?.last().map_or(0, |&(i, _)| i);
        let mut active =
            Self::replay_iter_from(&dir, LogPosition { segment: segment_index, offset: 0 })?;
        for event in active.by_ref() {
            event?;
        }
        if let Some(torn) = active.torn_tail() {
            OpenOptions::new()
                .write(true)
                .open(segment_path(&dir, torn.segment))?
                .set_len(torn.offset)?;
        }
        let file =
            OpenOptions::new().create(true).append(true).open(segment_path(&dir, segment_index))?;
        let segment_bytes = file.metadata()?.len();
        Ok(Self {
            dir,
            config,
            io,
            writer: Mutex::new(Writer {
                file: BufWriter::new(file),
                segment_index,
                segment_bytes,
                events_appended: 0,
                io_counters: WriteFaultCounters::default(),
                scratch: BytesMut::with_capacity(64),
                poisoned: false,
            }),
        })
    }

    /// Appends one event, rolling the segment when full. The frame is
    /// encoded into the writer's scratch buffer and written from it —
    /// no per-append allocation.
    ///
    /// A failed write poisons the log (the active segment may end in a
    /// torn frame); every later append fails fast instead of burying
    /// acknowledged events behind the tear, where the torn-tail cut of
    /// the next [`EventLog::open`] would silently discard them.
    pub fn append(&self, event: &LifeLogEvent) -> Result<()> {
        let mut guard = self.writer.lock();
        let w = &mut *guard;
        let mut frame = std::mem::take(&mut w.scratch);
        frame.clear();
        encode_frame(event, &mut frame);
        let result = self.append_locked(w, &frame);
        w.scratch = frame;
        result.map(drop)
    }

    /// Appends a run of **pre-encoded frames** — the bytes a routing
    /// pass produced with [`crate::codec::encode_frame`] while each
    /// event was still hot in cache — in one write per segment, and
    /// returns the frame count. The segment files come out byte for
    /// byte as [`EventLog::append`] of each event would leave them,
    /// rolls included.
    ///
    /// `frames` must be a well-formed concatenation of frames; a
    /// length header exceeding [`crate::codec::MAX_PAYLOAD`] or a
    /// truncated tail is a loud [`SpaError::Corrupt`] before anything
    /// is written. A failed write poisons the log as in
    /// [`EventLog::append`]; only frames that landed before it count
    /// as appended.
    pub fn append_encoded(&self, frames: &[u8]) -> Result<usize> {
        // validation walk first (the bytes come from outside the log),
        // so a malformed buffer is rejected before any byte lands
        let mut offset = 0usize;
        while offset < frames.len() {
            if frames.len() - offset < 8 {
                return Err(SpaError::Corrupt(format!(
                    "pre-encoded batch ends mid-header at offset {offset}"
                )));
            }
            let len = u32::from_le_bytes(frames[offset..offset + 4].try_into().expect("4 bytes"));
            if len > crate::codec::MAX_PAYLOAD {
                return Err(SpaError::Corrupt(format!(
                    "pre-encoded frame at offset {offset} claims {len} payload bytes"
                )));
            }
            let total = 8 + len as usize;
            if frames.len() - offset < total {
                return Err(SpaError::Corrupt(format!(
                    "pre-encoded batch ends mid-frame at offset {offset}"
                )));
            }
            offset += total;
        }
        self.append_locked(&mut self.writer.lock(), frames)
    }

    /// The one write core behind both appends. Any failure poisons the
    /// log.
    fn append_locked(&self, w: &mut Writer, frames: &[u8]) -> Result<usize> {
        if w.poisoned {
            return Err(SpaError::Corrupt(
                "event log poisoned by an earlier write failure; reopen via recovery".into(),
            ));
        }
        let result = self.write_frames(w, frames);
        w.poisoned = result.is_err();
        result
    }

    /// Walks the length headers of `frames` (whole, valid frames), rolls
    /// the segment before any frame that would overflow it, and lands
    /// each segment's run in one guarded write. Returns the frame count.
    fn write_frames(&self, w: &mut Writer, frames: &[u8]) -> Result<usize> {
        let io = self.io.as_ref();
        let mut cursor = 0usize; // start of the next frame
        let mut run = 0usize; // start of the bytes not yet written
        let mut walked = 0usize;
        let mut landed = 0usize;
        while cursor < frames.len() {
            let len = u32::from_le_bytes(frames[cursor..cursor + 4].try_into().expect("4 bytes"));
            let frame_len = 8 + len as usize;
            let filled = w.segment_bytes + (cursor - run) as u64;
            if filled > 0 && filled + frame_len as u64 > self.config.segment_bytes {
                w.land(io, &frames[run..cursor], walked - landed)?;
                self.roll_locked(w)?;
                run = cursor;
                landed = walked;
            }
            cursor += frame_len;
            walked += 1;
        }
        w.land(io, &frames[run..], walked - landed)?;
        Ok(walked)
    }

    fn roll_locked(&self, w: &mut Writer) -> Result<()> {
        w.file.flush()?;
        if self.config.fsync {
            sync_guarded(self.io.as_ref(), w.file.get_ref())?;
        }
        w.segment_index += 1;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, w.segment_index))?;
        w.file = BufWriter::new(file);
        w.segment_bytes = 0;
        Ok(())
    }

    /// Flushes buffered appends to the OS (and disk when `fsync`). A
    /// failed (or injected) fsync here is loud but does **not** poison:
    /// no frame was torn — the caller merely did not get its durability
    /// point and may retry the flush.
    pub fn flush(&self) -> Result<()> {
        let mut w = self.writer.lock();
        w.file.flush()?;
        if self.config.fsync {
            sync_guarded(self.io.as_ref(), w.file.get_ref())?;
        }
        Ok(())
    }

    /// Write-path fault accounting for this log (see
    /// [`WriteFaultCounters`]); zeroes under production I/O.
    pub fn write_fault_counters(&self) -> WriteFaultCounters {
        self.writer.lock().io_counters
    }

    /// The writer's current frame boundary **without any I/O** — the
    /// position accounts for buffered-but-unflushed appends. Use when a
    /// caller needs the position while holding a latency-sensitive lock
    /// and will make the prefix durable with [`EventLog::sync_up_to`]
    /// *before* acting on it (a checkpoint must sync before registering
    /// the snapshot).
    pub fn buffered_position(&self) -> LogPosition {
        let w = self.writer.lock();
        LogPosition { segment: w.segment_index, offset: w.segment_bytes }
    }

    /// Makes the log durable up to `position` **regardless of the
    /// `fsync` configuration**: flushes the writer, then fsyncs the
    /// position's segment file by path (the writer may have rolled past
    /// it since the position was recorded).
    ///
    /// A checkpoint must call this before registering `position` in the
    /// manifest. The snapshot and manifest writes are always fsynced;
    /// if the WAL bytes they point at stayed in the page cache, a power
    /// loss after compaction would leave a durable registration whose
    /// offset lies beyond the surviving segment — permanently
    /// unrecoverable, even though the snapshot holds all covered state.
    /// One extra fsync per checkpoint closes that window without
    /// imposing per-append fsync costs.
    pub fn sync_up_to(&self, position: LogPosition) -> Result<()> {
        self.flush()?;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(segment_path(&self.dir, position.segment))?;
        sync_guarded(self.io.as_ref(), &file)?;
        Ok(())
    }

    /// Deletes every segment file strictly below `position.segment` —
    /// they are fully covered by a snapshot taken at `position`, so
    /// replay will never need them again. The position's own segment is
    /// always kept (replay resumes inside it at `position.offset`).
    /// Safe to call while the log is open for appending: only closed,
    /// older segments are removed.
    pub fn compact_before(&self, position: LogPosition) -> Result<CompactionStats> {
        Self::compact_dir_before(&self.dir, position)
    }

    /// [`EventLog::compact_before`] for a directory without an open
    /// writer (the recovery-tooling form).
    pub fn compact_dir_before(
        dir: impl AsRef<Path>,
        position: LogPosition,
    ) -> Result<CompactionStats> {
        let mut stats = CompactionStats::default();
        for (index, path) in list_segments(dir.as_ref())? {
            if index < position.segment {
                stats.bytes_reclaimed += fs::metadata(&path)?.len();
                fs::remove_file(&path)?;
                stats.segments_deleted += 1;
            }
        }
        Ok(stats)
    }

    /// Lowest segment index present in a log directory (`None` for an
    /// empty directory). `Some(0)` means the full history survives —
    /// the precondition for a from-scratch replay after a snapshot
    /// fails to load; a compacted log starts at a later index.
    pub fn first_segment_index(dir: impl AsRef<Path>) -> Result<Option<u64>> {
        Ok(list_segments(dir.as_ref())?.first().map(|&(i, _)| i))
    }

    /// Statistics over the on-disk segments (flush first for an exact
    /// byte count).
    pub fn stats(&self) -> Result<LogStats> {
        let segments = list_segments(&self.dir)?;
        let mut bytes = 0;
        for (_, path) in &segments {
            bytes += fs::metadata(path)?.len();
        }
        let events_appended = self.writer.lock().events_appended;
        Ok(LogStats { segments: segments.len(), bytes, events_appended })
    }

    /// Streaming replay over a log directory: yields one intact event at
    /// a time (one segment buffered at a time, not the whole log). After
    /// exhaustion, [`ReplayIter::torn_tail`] reports a partial final
    /// frame if the log ends mid-write.
    pub fn replay_iter(dir: impl AsRef<Path>) -> Result<ReplayIter> {
        Self::replay_iter_from(dir, LogPosition::default())
    }

    /// Streaming replay of only the log **tail** after `from` — the
    /// segment tail a snapshot does not cover. Segments below
    /// `from.segment` are skipped without being opened (compaction may
    /// already have deleted them); the start segment is read from
    /// `from.offset` (a frame boundary taken by
    /// [`EventLog::buffered_position`] and made durable by
    /// [`EventLog::sync_up_to`]), so replay cost is proportional to the
    /// tail, not the history.
    ///
    /// A non-zero `from` whose segment file is missing is loud
    /// corruption: it means compaction outran the snapshot that was
    /// supposed to cover those events.
    pub fn replay_iter_from(dir: impl AsRef<Path>, from: LogPosition) -> Result<ReplayIter> {
        Self::replay_iter_from_with(dir, from, real_io())
    }

    /// [`EventLog::replay_iter_from`] with an explicit [`StorageIo`]
    /// seam: each segment buffer passes through
    /// [`StorageIo::read_fault`] right after it is read, so a fault
    /// plan can inject read-side bit rot that the CRC framing must then
    /// surface loudly. The **final** segment is exempt (`tail = true`):
    /// rot there is indistinguishable from a torn tail and would be
    /// healed by silently truncating acknowledged events.
    pub fn replay_iter_from_with(
        dir: impl AsRef<Path>,
        from: LogPosition,
        io: Arc<dyn StorageIo>,
    ) -> Result<ReplayIter> {
        let all = list_segments(dir.as_ref())?;
        let segments: Vec<(u64, PathBuf)> =
            all.into_iter().filter(|&(i, _)| i >= from.segment).collect();
        if from != LogPosition::default() {
            match segments.first() {
                Some(&(index, _)) if index == from.segment => {}
                _ => {
                    return Err(SpaError::Corrupt(format!(
                        "log {} has no segment {} to resume from position {from}",
                        dir.as_ref().display(),
                        from.segment
                    )))
                }
            }
        }
        Ok(ReplayIter {
            segments,
            seg_pos: 0,
            buf: Vec::new(),
            offset: 0,
            base: 0,
            start: from,
            loaded: false,
            torn_tail: None,
            failed: false,
            io,
        })
    }
}

/// Streaming iterator over the intact events of a log directory (see
/// [`EventLog::replay_iter`]). Yields `Err` once — on mid-log
/// truncation, a bad checksum or I/O failure — and then terminates.
pub struct ReplayIter {
    segments: Vec<(u64, PathBuf)>,
    seg_pos: usize,
    buf: Vec<u8>,
    offset: usize,
    /// Absolute byte offset of `buf[0]` within the current segment file
    /// (non-zero only for a start segment entered mid-file via
    /// [`EventLog::replay_iter_from`]). Reported offsets add this base.
    base: u64,
    /// Where replay begins (frame boundary); `LogPosition::default()`
    /// replays everything.
    start: LogPosition,
    loaded: bool,
    torn_tail: Option<TornTail>,
    failed: bool,
    /// Fault seam consulted on every segment read (no-op in
    /// production); see [`EventLog::replay_iter_from_with`].
    io: Arc<dyn StorageIo>,
}

impl ReplayIter {
    /// After the iterator is exhausted: where the final segment was cut
    /// off mid-frame, if it was. `None` while events remain.
    pub fn torn_tail(&self) -> Option<TornTail> {
        self.torn_tail
    }

    fn fail(&mut self, msg: String) -> Option<Result<LifeLogEvent>> {
        self.failed = true;
        Some(Err(SpaError::Corrupt(msg)))
    }
}

impl Iterator for ReplayIter {
    type Item = Result<LifeLogEvent>;

    // inlined into the caller's loop (recovery in spa-core, the torn-tail
    // walk of `open`): a call per frame made a segment walk 10–30 % slower
    #[inline]
    fn next(&mut self) -> Option<Result<LifeLogEvent>> {
        if self.failed {
            return None;
        }
        loop {
            if !self.loaded {
                let (index, path) = self.segments.get(self.seg_pos)?;
                // a start segment entered mid-file reads only its tail
                let base = if *index == self.start.segment { self.start.offset } else { 0 };
                self.buf.clear();
                let read = File::open(path).and_then(|mut f| {
                    let len = f.metadata()?.len();
                    if base > len {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "segment {} is {len} bytes, shorter than resume offset {base}",
                                path.display()
                            ),
                        ));
                    }
                    if base > 0 {
                        use std::io::Seek;
                        f.seek(std::io::SeekFrom::Start(base))?;
                    }
                    f.read_to_end(&mut self.buf)
                });
                if let Err(e) = read {
                    self.failed = true;
                    return Some(Err(if e.kind() == std::io::ErrorKind::InvalidData {
                        SpaError::Corrupt(e.to_string())
                    } else {
                        e.into()
                    }));
                }
                // read-side rot injection point: never on the final
                // segment, where a flip is indistinguishable from a
                // torn tail (see replay_iter_from_with)
                let tail = self.seg_pos + 1 == self.segments.len();
                self.io.read_fault(&mut self.buf, tail);
                self.base = base;
                self.offset = 0;
                self.loaded = true;
            }
            let (index, path) = &self.segments[self.seg_pos];
            let last = self.seg_pos + 1 == self.segments.len();
            if self.offset < self.buf.len() {
                match decode_frame(&self.buf[self.offset..]) {
                    Ok(FrameRead::Event(event, consumed)) => {
                        self.offset += consumed;
                        return Some(Ok(event));
                    }
                    Ok(FrameRead::Incomplete) if last => {
                        // torn tail write — recoverable, end of replay
                        self.torn_tail = Some(TornTail {
                            segment: *index,
                            offset: self.base + self.offset as u64,
                            bytes_dropped: (self.buf.len() - self.offset) as u64,
                        });
                        self.seg_pos = self.segments.len();
                        self.loaded = false; // keep further next() calls at None
                        return None;
                    }
                    Ok(FrameRead::Incomplete) => {
                        let msg = format!(
                            "segment {} truncated mid-log at offset {}",
                            path.display(),
                            self.base + self.offset as u64
                        );
                        return self.fail(msg);
                    }
                    Err(e) => {
                        let msg = format!(
                            "segment {} offset {}: {e}",
                            path.display(),
                            self.base + self.offset as u64
                        );
                        return self.fail(msg);
                    }
                }
            }
            self.loaded = false;
            self.seg_pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spa_types::{ActionId, EventKind, Timestamp, UserId};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spa-log-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn event(i: u32) -> LifeLogEvent {
        LifeLogEvent::new(
            UserId::new(i),
            Timestamp::from_millis(i as u64 * 10),
            EventKind::Action { action: ActionId::new(i % 984), course: None },
        )
    }

    fn replayed(dir: &Path) -> Result<Vec<LifeLogEvent>> {
        EventLog::replay_iter(dir)?.collect()
    }

    fn tear_last_segment(dir: &Path, bytes: u64) -> (PathBuf, u64) {
        let seg = list_segments(dir).unwrap().pop().unwrap().1;
        let len = fs::metadata(&seg).unwrap().len() - bytes;
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len).unwrap();
        (seg, len)
    }

    #[test]
    fn append_then_replay_round_trips() {
        let dir = tmp_dir("roundtrip");
        let log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let events: Vec<_> = (0..100).map(event).collect();
        for e in &events {
            log.append(e).unwrap();
        }
        log.flush().unwrap();
        assert_eq!(replayed(&dir).unwrap(), events);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_counts() {
        let dir = tmp_dir("batch");
        let log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let mut frames = BytesMut::new();
        for e in (0..50).map(event) {
            encode_frame(&e, &mut frames);
        }
        assert_eq!(log.append_encoded(&frames).unwrap(), 50);
        log.flush().unwrap();
        assert_eq!(replayed(&dir).unwrap().len(), 50);
        assert_eq!(log.stats().unwrap().events_appended, 50);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The two appends share one write core: `append` calls interleaved
    /// with `append_encoded` runs of every length (empty, one frame,
    /// longer than a segment) lay down the same segment files, byte for
    /// byte, as one `append` per event, and count the same.
    #[test]
    fn batch_append_bytes_match_single_appends_across_rolls() {
        let config = LogConfig { segment_bytes: 256, fsync: false };
        let events: Vec<_> = (0..120).map(event).collect();
        let dir_single = tmp_dir("bytes-single");
        {
            let log = EventLog::open(&dir_single, config.clone()).unwrap();
            for e in &events {
                log.append(e).unwrap();
            }
            log.flush().unwrap();
        }
        let dir_mixed = tmp_dir("bytes-mixed");
        {
            let log = EventLog::open(&dir_mixed, config).unwrap();
            let mut rest = &events[..];
            for run in [0, 3, 1, 0, 37, 2, 11, 1, 25, 5].iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                // one single append, then a pre-encoded run of `run` frames
                log.append(&rest[0]).unwrap();
                rest = &rest[1..];
                let (chunk, tail) = rest.split_at((*run).min(rest.len()));
                let mut frames = BytesMut::new();
                for e in chunk {
                    encode_frame(e, &mut frames);
                }
                assert_eq!(log.append_encoded(&frames).unwrap(), chunk.len());
                rest = tail;
            }
            log.flush().unwrap();
            assert_eq!(log.stats().unwrap().events_appended, 120);
        }
        let single = list_segments(&dir_single).unwrap();
        let mixed = list_segments(&dir_mixed).unwrap();
        assert!(single.len() > 5, "the run must cross several rolls");
        assert_eq!(single.len(), mixed.len(), "segment layout diverges");
        for ((i_s, p_s), (i_m, p_m)) in single.iter().zip(mixed.iter()) {
            assert_eq!(i_s, i_m);
            assert_eq!(fs::read(p_s).unwrap(), fs::read(p_m).unwrap(), "segment {i_s} diverges");
        }
        assert_eq!(replayed(&dir_mixed).unwrap(), events);
        let _ = fs::remove_dir_all(&dir_single);
        let _ = fs::remove_dir_all(&dir_mixed);
    }

    /// One pre-encoded buffer holding the whole batch and the same batch
    /// split into uneven runs lay down identical segment files.
    #[test]
    fn append_encoded_matches_append_batch_bytes_across_rolls() {
        let config = LogConfig { segment_bytes: 256, fsync: false };
        let events: Vec<_> = (0..120).map(event).collect();
        let dir_batch = tmp_dir("encoded-batch");
        {
            let log = EventLog::open(&dir_batch, config.clone()).unwrap();
            let mut frames = BytesMut::new();
            for e in &events {
                encode_frame(e, &mut frames);
            }
            assert_eq!(log.append_encoded(&frames).unwrap(), 120);
            log.flush().unwrap();
        }
        let dir_encoded = tmp_dir("encoded-pre");
        {
            let log = EventLog::open(&dir_encoded, config).unwrap();
            // pre-encode in uneven runs, crossing roll boundaries
            for chunk in events.chunks(37) {
                let mut frames = BytesMut::new();
                for e in chunk {
                    encode_frame(e, &mut frames);
                }
                assert_eq!(log.append_encoded(&frames).unwrap(), chunk.len());
            }
            log.flush().unwrap();
        }
        let batch = list_segments(&dir_batch).unwrap();
        let encoded = list_segments(&dir_encoded).unwrap();
        assert!(batch.len() > 5, "the batch must cross several rolls");
        assert_eq!(batch.len(), encoded.len(), "segment layout diverges");
        for ((i_b, p_b), (i_e, p_e)) in batch.iter().zip(encoded.iter()) {
            assert_eq!(i_b, i_e);
            assert_eq!(fs::read(p_b).unwrap(), fs::read(p_e).unwrap(), "segment {i_b} diverges");
        }
        assert_eq!(replayed(&dir_encoded).unwrap(), events);
        let _ = fs::remove_dir_all(&dir_batch);
        let _ = fs::remove_dir_all(&dir_encoded);
    }

    #[test]
    fn append_encoded_rejects_malformed_buffers() {
        let dir = tmp_dir("encoded-bad");
        let log = EventLog::open(&dir, LogConfig::default()).unwrap();
        let mut frames = BytesMut::new();
        encode_frame(&event(1), &mut frames);
        // truncated tail
        assert!(matches!(
            log.append_encoded(&frames[..frames.len() - 2]),
            Err(SpaError::Corrupt(_))
        ));
        // absurd length header
        let mut bad = frames.to_vec();
        bad[..4].copy_from_slice(&(crate::codec::MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(log.append_encoded(&bad), Err(SpaError::Corrupt(_))));
        // nothing was written, and the log is not poisoned
        assert_eq!(log.append_encoded(&frames).unwrap(), 1);
        log.flush().unwrap();
        assert_eq!(replayed(&dir).unwrap(), vec![event(1)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_at_threshold() {
        let dir = tmp_dir("roll");
        let config = LogConfig { segment_bytes: 256, fsync: false };
        let log = EventLog::open(&dir, config).unwrap();
        for i in 0..100 {
            log.append(&event(i)).unwrap();
        }
        log.flush().unwrap();
        let stats = log.stats().unwrap();
        assert!(stats.segments > 1, "expected multiple segments, got {}", stats.segments);
        assert_eq!(replayed(&dir).unwrap().len(), 100, "roll must not lose events");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_appending() {
        let dir = tmp_dir("reopen");
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..10 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            for i in 10..20 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
            let replayed = replayed(&dir).unwrap();
            assert_eq!(replayed.len(), 20);
            assert_eq!(replayed[19], event(19));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_recovered_silently() {
        let dir = tmp_dir("torn");
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..10 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        // truncate the (single) segment mid-frame
        tear_last_segment(&dir, 3);
        let events = replayed(&dir).unwrap();
        assert_eq!(events.len(), 9, "the torn final event is dropped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_loud() {
        let dir = tmp_dir("midcorrupt");
        let config = LogConfig { segment_bytes: 128, fsync: false };
        {
            let log = EventLog::open(&dir, config).unwrap();
            for i in 0..40 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        // truncate the FIRST segment so an earlier segment ends mid-frame
        let first = list_segments(&dir).unwrap()[0].1.clone();
        let len = fs::metadata(&first).unwrap().len();
        OpenOptions::new().write(true).open(&first).unwrap().set_len(len - 2).unwrap();
        assert!(matches!(replayed(&dir), Err(SpaError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_on_replay() {
        let dir = tmp_dir("bitflip");
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..5 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        let seg = list_segments(&dir).unwrap()[0].1.clone();
        let mut bytes = fs::read(&seg).unwrap();
        bytes[12] ^= 0xFF; // somewhere inside the first payload
        fs::write(&seg, &bytes).unwrap();
        assert!(matches!(replayed(&dir), Err(SpaError::Corrupt(_))));
        // opening is a frame walk too: the same rot is loud there
        assert!(matches!(EventLog::open(&dir, LogConfig::default()), Err(SpaError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_log_replays_empty() {
        let dir = tmp_dir("empty");
        let log = EventLog::open(&dir, LogConfig::default()).unwrap();
        assert!(replayed(&dir).unwrap().is_empty());
        let stats = log.stats().unwrap();
        assert_eq!(stats.events_appended, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_iter_surfaces_the_torn_tail() {
        let dir = tmp_dir("torn-report");
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..10 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        let mut intact = EventLog::replay_iter(&dir).unwrap();
        assert_eq!(intact.by_ref().count(), 10);
        assert!(intact.torn_tail().is_none());
        let (_, torn_len) = tear_last_segment(&dir, 3);
        // the iterator stays at None after the torn tail ends it
        // (Iterator contract: no panic on a post-exhaustion poll)
        let mut iter = EventLog::replay_iter(&dir).unwrap();
        assert_eq!(iter.by_ref().filter(|e| e.is_ok()).count(), 9);
        assert!(iter.next().is_none());
        assert!(iter.next().is_none());
        let tail = iter.torn_tail().expect("tail must be reported torn");
        assert_eq!(tail.segment, 0);
        assert_eq!(tail.offset + tail.bytes_dropped, torn_len);
    }

    #[test]
    fn replay_iter_streams_and_stops_at_corruption() {
        let dir = tmp_dir("iter");
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..20 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        assert_eq!(replayed(&dir).unwrap().len(), 20);
        // flip a payload byte of frame 10: the iterator yields the clean
        // prefix, then exactly one error, then terminates
        let mut scratch = BytesMut::new();
        encode_frame(&event(0), &mut scratch);
        let frame_len = scratch.len(); // all test events frame identically
        let seg = list_segments(&dir).unwrap()[0].1.clone();
        let mut bytes = fs::read(&seg).unwrap();
        bytes[10 * frame_len + 12] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        let mut iter = EventLog::replay_iter(&dir).unwrap();
        let mut okays = 0;
        let mut errors = 0;
        for item in iter.by_ref() {
            match item {
                Ok(_) => okays += 1,
                Err(SpaError::Corrupt(_)) => errors += 1,
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        }
        assert_eq!(errors, 1, "exactly one loud error");
        assert_eq!(okays, 10, "the clean prefix ends at the flipped frame");
        assert!(iter.next().is_none(), "iterator is fused after failure");
    }

    #[test]
    fn plain_open_heals_a_torn_active_segment() {
        let dir = tmp_dir("open-heal");
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..10 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        let (seg, _) = tear_last_segment(&dir, 3);
        let mut iter = EventLog::replay_iter(&dir).unwrap();
        assert_eq!(iter.by_ref().count(), 9);
        let torn = iter.torn_tail().expect("tail was torn");
        // opening cuts the partial frame off at the reported offset, so
        // new appends land on a clean frame boundary instead of being
        // buried behind garbage mid-segment
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            assert_eq!(fs::metadata(&seg).unwrap().len(), torn.offset, "partial frame removed");
            for i in 50..53 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        let replayed = replayed(&dir).unwrap();
        assert_eq!(replayed.len(), 12, "9 surviving + 3 post-reopen events");
        assert_eq!(replayed[8], event(8));
        assert_eq!(replayed[9], event(50), "new events follow the healed tail");
    }

    /// Recovery by reopening: a crash that left half a frame's bytes
    /// after the last whole frame is cut back to that frame, and appends
    /// after the reopen follow the surviving prefix.
    #[test]
    fn open_recover_truncates_the_torn_tail_and_appends_cleanly() {
        let dir = tmp_dir("recover");
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..10 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        let seg = list_segments(&dir).unwrap().pop().unwrap().1;
        let whole = fs::metadata(&seg).unwrap().len();
        let mut partial = BytesMut::new();
        encode_frame(&event(10), &mut partial);
        OpenOptions::new().append(true).open(&seg).unwrap().write_all(&partial[..5]).unwrap();
        {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            assert_eq!(fs::metadata(&seg).unwrap().len(), whole, "partial frame removed");
            for i in 100..105 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
        }
        let mut iter = EventLog::replay_iter(&dir).unwrap();
        let replayed: Vec<_> = iter.by_ref().collect::<Result<_>>().unwrap();
        assert!(iter.torn_tail().is_none(), "the reopened log has no torn tail");
        assert_eq!(replayed.len(), 15);
        assert_eq!(replayed[9], event(9));
        assert_eq!(replayed[10], event(100), "post-recovery events follow the surviving prefix");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn buffered_position_after_flush_is_the_segment_size() {
        let dir = tmp_dir("position");
        let config = LogConfig { segment_bytes: 256, fsync: false };
        let log = EventLog::open(&dir, config).unwrap();
        log.flush().unwrap();
        assert_eq!(log.buffered_position(), LogPosition::default());
        for i in 0..30 {
            log.append(&event(i)).unwrap();
        }
        log.flush().unwrap();
        let pos = log.buffered_position();
        assert!(pos.segment > 0, "30 events must roll a 256-byte segment");
        // the recorded position equals the on-disk size of its segment
        assert_eq!(fs::metadata(segment_path(&dir, pos.segment)).unwrap().len(), pos.offset);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_from_position_yields_exactly_the_tail() {
        let dir = tmp_dir("replay-from");
        let config = LogConfig { segment_bytes: 256, fsync: false };
        let log = EventLog::open(&dir, config).unwrap();
        let events: Vec<_> = (0..100).map(event).collect();
        for e in &events[..60] {
            log.append(e).unwrap();
        }
        log.flush().unwrap();
        let mark = log.buffered_position();
        for e in &events[60..] {
            log.append(e).unwrap();
        }
        log.flush().unwrap();
        let tail: Vec<_> =
            EventLog::replay_iter_from(&dir, mark).unwrap().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(tail, &events[60..], "tail replay must resume exactly at the mark");
        // position-at-end replays nothing
        let end = log.buffered_position();
        assert_eq!(EventLog::replay_iter_from(&dir, end).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_from_position_reports_torn_tail_with_absolute_offset() {
        let dir = tmp_dir("replay-from-torn");
        let last_frame = {
            let log = EventLog::open(&dir, LogConfig::default()).unwrap();
            for i in 0..10 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
            let mark = log.buffered_position();
            for i in 10..19 {
                log.append(&event(i)).unwrap();
            }
            log.flush().unwrap();
            let last_frame = log.buffered_position();
            log.append(&event(19)).unwrap();
            log.flush().unwrap();
            let (_, torn_len) = tear_last_segment(&dir, 3);
            let mut iter = EventLog::replay_iter_from(&dir, mark).unwrap();
            let tail: Vec<_> = iter.by_ref().collect::<Result<Vec<_>>>().unwrap();
            assert_eq!(tail.len(), 9, "9 intact tail events, the 10th is torn");
            let torn = iter.torn_tail().expect("tail is torn");
            assert_eq!(torn.offset, last_frame.offset, "offset must be segment-absolute");
            assert_eq!(torn.offset + torn.bytes_dropped, torn_len);
            last_frame
        };
        // the next open cuts the segment exactly there
        let log = EventLog::open(&dir, LogConfig::default()).unwrap();
        assert_eq!(log.buffered_position(), last_frame);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_deletes_only_covered_segments() {
        let dir = tmp_dir("compact");
        let config = LogConfig { segment_bytes: 256, fsync: false };
        let log = EventLog::open(&dir, config).unwrap();
        let events: Vec<_> = (0..120).map(event).collect();
        for e in &events[..90] {
            log.append(e).unwrap();
        }
        log.flush().unwrap();
        let mark = log.buffered_position();
        for e in &events[90..] {
            log.append(e).unwrap();
        }
        log.flush().unwrap();
        assert!(mark.segment >= 2, "need several covered segments");
        let before = log.stats().unwrap();
        let stats = log.compact_before(mark).unwrap();
        assert_eq!(stats.segments_deleted as u64, mark.segment);
        assert!(stats.bytes_reclaimed > 0);
        let after = log.stats().unwrap();
        assert_eq!(after.segments, before.segments - stats.segments_deleted);
        assert_eq!(EventLog::first_segment_index(&dir).unwrap(), Some(mark.segment));
        // tail replay from the mark is unaffected by compaction
        let tail: Vec<_> =
            EventLog::replay_iter_from(&dir, mark).unwrap().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(tail, &events[90..]);
        // …and appending still works after compaction
        log.append(&event(500)).unwrap();
        log.flush().unwrap();
        let tail2: Vec<_> =
            EventLog::replay_iter_from(&dir, mark).unwrap().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(tail2.len(), 31);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resuming_past_compaction_is_loud() {
        let dir = tmp_dir("compact-gap");
        let config = LogConfig { segment_bytes: 256, fsync: false };
        let log = EventLog::open(&dir, config).unwrap();
        for i in 0..90 {
            log.append(&event(i)).unwrap();
        }
        log.flush().unwrap();
        let mark = log.buffered_position();
        // compact past the snapshot position (an operator error): the
        // mark's own segment is gone, so resuming must fail loudly
        // rather than silently skipping events
        log.compact_before(LogPosition { segment: mark.segment + 1, offset: 0 }).unwrap();
        assert!(matches!(EventLog::replay_iter_from(&dir, mark), Err(SpaError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_are_all_stored() {
        let dir = tmp_dir("concurrent");
        let log = std::sync::Arc::new(EventLog::open(&dir, LogConfig::default()).unwrap());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let log = log.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u32 {
                    log.append(&event(t * 1000 + i)).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        log.flush().unwrap();
        assert_eq!(replayed(&dir).unwrap().len(), 1000);
        let _ = fs::remove_dir_all(&dir);
    }
}
