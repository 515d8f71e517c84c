//! The binary serving protocol.
//!
//! Frame layout — **identical to a write-ahead-log frame on disk**
//! (little-endian, CRC-32/IEEE over the payload):
//!
//! ```text
//! +----------+----------+---------------------+
//! | len: u32 | crc: u32 | payload (len bytes) |
//! +----------+----------+---------------------+
//! ```
//!
//! The payload is a one-byte opcode followed by fixed-width fields; all
//! counts are `u32` LE, all floats travel as their IEEE-754 bit
//! patterns, so a response decodes to bit-identical values on any
//! platform. `Ingest` / `IngestBatch` payloads embed events in the
//! WAL's own event encoding ([`spa_store::codec`]) — the serving wire
//! and the durability log reject the same corruptions with the same
//! loudness:
//!
//! * a flipped bit anywhere in the payload fails the CRC before any
//!   field is parsed;
//! * a torn frame (connection died mid-message) is an
//!   [`std::io::ErrorKind::UnexpectedEof`], never a half-read request;
//! * an oversized length prefix is rejected before any allocation.

use bytes::{Buf, BufMut, BytesMut};
use spa_core::preprocessor::PreprocessorStats;
use spa_core::{ApiRequest, ApiResponse, PublicationStats, RecoverStatus, RequestEnvelope};
use spa_store::codec::{crc32, decode_event_slice, encode_event, MAX_PAYLOAD};
use spa_types::{Result, SpaError, UserId};
use std::io::{self, IoSlice, Read, Write};

/// Hard cap on one frame's payload. Large enough for a full scoring
/// audience or ingest batch, small enough that a corrupted length
/// prefix cannot demand an absurd allocation.
pub const MAX_WIRE_PAYLOAD: u32 = 1 << 20;

/// Most users one `Score` / `RankTopK` request may carry.
pub(crate) const MAX_AUDIENCE: u32 = 65_536;

/// Most events one `IngestBatch` request may carry.
pub(crate) const MAX_BATCH: u32 = 16_384;

const OP_SCORE: u8 = 1;
const OP_RANK_TOP_K: u8 = 2;
const OP_INGEST: u8 = 3;
const OP_INGEST_BATCH: u8 = 4;
const OP_OBSERVE_OUTCOME: u8 = 5;
const OP_STATS: u8 = 6;
const OP_CHECKPOINT: u8 = 7;
const OP_COMPACT: u8 = 8;
const OP_RECOVER_STATUS: u8 = 9;

const RESP_SCORES: u8 = 1;
const RESP_INGESTED: u8 = 2;
const RESP_OUTCOME: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_CHECKPOINTED: u8 = 5;
const RESP_COMPACTED: u8 = 6;
const RESP_RECOVER_STATUS: u8 = 7;
const RESP_ERROR: u8 = 8;

fn need(buf: &&[u8], n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(SpaError::Corrupt(format!("wire payload truncated reading {what}")));
    }
    Ok(())
}

fn put_users(users: &[UserId], out: &mut BytesMut) {
    out.put_u32_le(users.len() as u32);
    for user in users {
        out.put_u32_le(user.raw());
    }
}

fn get_users(buf: &mut &[u8]) -> Result<Vec<UserId>> {
    need(buf, 4, "audience count")?;
    let count = buf.get_u32_le();
    if count > MAX_AUDIENCE {
        return Err(SpaError::Corrupt(format!(
            "audience of {count} users exceeds cap {MAX_AUDIENCE}"
        )));
    }
    need(buf, count as usize * 4, "audience")?;
    Ok((0..count).map(|_| UserId::new(buf.get_u32_le())).collect())
}

/// Serializes one request into `out` (payload only — frame it with
/// [`send_frame`]).
pub fn encode_request(request: &ApiRequest, out: &mut BytesMut) {
    match request {
        ApiRequest::Score { users } => {
            out.put_u8(OP_SCORE);
            put_users(users, out);
        }
        ApiRequest::RankTopK { users, k } => {
            out.put_u8(OP_RANK_TOP_K);
            out.put_u32_le(*k);
            put_users(users, out);
        }
        ApiRequest::Ingest { event } => {
            out.put_u8(OP_INGEST);
            encode_event(event, out);
        }
        ApiRequest::IngestBatch { events } => {
            out.put_u8(OP_INGEST_BATCH);
            out.put_u32_le(events.len() as u32);
            let mut scratch = BytesMut::new();
            for event in events {
                scratch.clear();
                encode_event(event, &mut scratch);
                out.put_u32_le(scratch.len() as u32);
                out.put_slice(&scratch);
            }
        }
        ApiRequest::ObserveOutcome { user, responded } => {
            out.put_u8(OP_OBSERVE_OUTCOME);
            out.put_u32_le(user.raw());
            out.put_u8(u8::from(*responded));
        }
        ApiRequest::Stats => out.put_u8(OP_STATS),
        ApiRequest::Checkpoint => out.put_u8(OP_CHECKPOINT),
        ApiRequest::Compact => out.put_u8(OP_COMPACT),
        ApiRequest::RecoverStatus => out.put_u8(OP_RECOVER_STATUS),
    }
}

/// Deserializes one request payload. Every malformation is a loud
/// [`SpaError::Corrupt`]; trailing bytes are rejected (a frame carries
/// exactly one message).
pub fn decode_request(payload: &[u8]) -> Result<ApiRequest> {
    let mut buf = payload;
    need(&buf, 1, "opcode")?;
    let op = buf.get_u8();
    let request = match op {
        OP_SCORE => ApiRequest::Score { users: get_users(&mut buf)? },
        OP_RANK_TOP_K => {
            need(&buf, 4, "k")?;
            let k = buf.get_u32_le();
            ApiRequest::RankTopK { users: get_users(&mut buf)?, k }
        }
        OP_INGEST => {
            let event = decode_event_slice(buf)?;
            buf = &[];
            ApiRequest::Ingest { event }
        }
        OP_INGEST_BATCH => {
            need(&buf, 4, "batch count")?;
            let count = buf.get_u32_le();
            if count > MAX_BATCH {
                return Err(SpaError::Corrupt(format!(
                    "batch of {count} events exceeds cap {MAX_BATCH}"
                )));
            }
            let mut events = Vec::with_capacity(count as usize);
            for _ in 0..count {
                need(&buf, 4, "event length")?;
                let len = buf.get_u32_le();
                if len > MAX_PAYLOAD {
                    return Err(SpaError::Corrupt(format!(
                        "batched event of {len} bytes exceeds WAL payload cap {MAX_PAYLOAD}"
                    )));
                }
                need(&buf, len as usize, "batched event")?;
                let (head, tail) = buf.split_at(len as usize);
                events.push(decode_event_slice(head)?);
                buf = tail;
            }
            ApiRequest::IngestBatch { events }
        }
        OP_OBSERVE_OUTCOME => {
            need(&buf, 5, "outcome fields")?;
            let user = UserId::new(buf.get_u32_le());
            let responded = match buf.get_u8() {
                0 => false,
                1 => true,
                other => return Err(SpaError::Corrupt(format!("outcome responded byte {other}"))),
            };
            ApiRequest::ObserveOutcome { user, responded }
        }
        OP_STATS => ApiRequest::Stats,
        OP_CHECKPOINT => ApiRequest::Checkpoint,
        OP_COMPACT => ApiRequest::Compact,
        OP_RECOVER_STATUS => ApiRequest::RecoverStatus,
        other => return Err(SpaError::Corrupt(format!("unknown request opcode {other}"))),
    };
    if buf.has_remaining() {
        return Err(SpaError::Corrupt(format!("{} trailing bytes after request", buf.remaining())));
    }
    Ok(request)
}

/// Serializes one response into `out` (payload only).
pub fn encode_response(response: &ApiResponse, out: &mut BytesMut) {
    match response {
        ApiResponse::Scores { entries } => {
            out.put_u8(RESP_SCORES);
            out.put_u32_le(entries.len() as u32);
            for (user, score) in entries {
                out.put_u32_le(user.raw());
                out.put_f64_le(*score);
            }
        }
        ApiResponse::Ingested { applied } => {
            out.put_u8(RESP_INGESTED);
            out.put_u64_le(*applied);
        }
        ApiResponse::OutcomeRecorded => out.put_u8(RESP_OUTCOME),
        ApiResponse::Stats { stats, publications } => {
            out.put_u8(RESP_STATS);
            out.put_u64_le(stats.actions);
            out.put_u64_le(stats.transactions);
            out.put_u64_le(stats.eit_answers);
            out.put_u64_le(stats.eit_skips);
            out.put_u64_le(stats.deliveries);
            out.put_u64_le(stats.opens);
            out.put_u64_le(stats.objective_imports);
            out.put_u64_le(stats.punishments);
            out.put_u64_le(publications.model_publishes);
            out.put_u64_le(publications.selection_publishes);
        }
        ApiResponse::Checkpointed { shards, snapshot_bytes } => {
            out.put_u8(RESP_CHECKPOINTED);
            out.put_u32_le(*shards);
            out.put_u64_le(*snapshot_bytes);
        }
        ApiResponse::Compacted {
            segments_deleted,
            bytes_reclaimed,
            snapshots_pruned,
            shards_skipped,
        } => {
            out.put_u8(RESP_COMPACTED);
            out.put_u64_le(*segments_deleted);
            out.put_u64_le(*bytes_reclaimed);
            out.put_u64_le(*snapshots_pruned);
            out.put_u64_le(*shards_skipped);
        }
        ApiResponse::RecoverStatus { status } => {
            out.put_u8(RESP_RECOVER_STATUS);
            out.put_u8(u8::from(status.recovered) | (u8::from(status.selection_restored) << 1));
            out.put_u64_le(status.events_replayed);
            out.put_u64_le(status.events_skipped);
            out.put_u32_le(status.torn_shards);
            out.put_u64_le(status.selection_events_replayed);
            out.put_u64_le(status.snapshot_fallbacks);
            out.put_u64_le(status.stale_temps_removed);
        }
        ApiResponse::Error { message } => {
            out.put_u8(RESP_ERROR);
            let bytes = message.as_bytes();
            out.put_u32_le(bytes.len() as u32);
            out.put_slice(bytes);
        }
    }
}

/// Deserializes one response payload (same loudness rules as
/// [`decode_request`]).
pub fn decode_response(payload: &[u8]) -> Result<ApiResponse> {
    let mut buf = payload;
    need(&buf, 1, "response tag")?;
    let tag = buf.get_u8();
    let response = match tag {
        RESP_SCORES => {
            need(&buf, 4, "score count")?;
            let count = buf.get_u32_le();
            if count > MAX_AUDIENCE {
                return Err(SpaError::Corrupt(format!(
                    "score list of {count} entries exceeds cap {MAX_AUDIENCE}"
                )));
            }
            need(&buf, count as usize * 12, "score entries")?;
            let entries =
                (0..count).map(|_| (UserId::new(buf.get_u32_le()), buf.get_f64_le())).collect();
            ApiResponse::Scores { entries }
        }
        RESP_INGESTED => {
            need(&buf, 8, "applied count")?;
            ApiResponse::Ingested { applied: buf.get_u64_le() }
        }
        RESP_OUTCOME => ApiResponse::OutcomeRecorded,
        RESP_STATS => {
            need(&buf, 80, "stats counters")?;
            ApiResponse::Stats {
                stats: PreprocessorStats {
                    actions: buf.get_u64_le(),
                    transactions: buf.get_u64_le(),
                    eit_answers: buf.get_u64_le(),
                    eit_skips: buf.get_u64_le(),
                    deliveries: buf.get_u64_le(),
                    opens: buf.get_u64_le(),
                    objective_imports: buf.get_u64_le(),
                    punishments: buf.get_u64_le(),
                },
                publications: PublicationStats {
                    model_publishes: buf.get_u64_le(),
                    selection_publishes: buf.get_u64_le(),
                },
            }
        }
        RESP_CHECKPOINTED => {
            need(&buf, 12, "checkpoint fields")?;
            ApiResponse::Checkpointed { shards: buf.get_u32_le(), snapshot_bytes: buf.get_u64_le() }
        }
        RESP_COMPACTED => {
            need(&buf, 32, "compaction fields")?;
            ApiResponse::Compacted {
                segments_deleted: buf.get_u64_le(),
                bytes_reclaimed: buf.get_u64_le(),
                snapshots_pruned: buf.get_u64_le(),
                shards_skipped: buf.get_u64_le(),
            }
        }
        RESP_RECOVER_STATUS => {
            need(&buf, 1 + 8 + 8 + 4 + 8 + 8 + 8, "recover status")?;
            let flags = buf.get_u8();
            if flags > 3 {
                return Err(SpaError::Corrupt(format!("recover status flags {flags:#x}")));
            }
            ApiResponse::RecoverStatus {
                status: RecoverStatus {
                    recovered: flags & 1 != 0,
                    selection_restored: flags & 2 != 0,
                    events_replayed: buf.get_u64_le(),
                    events_skipped: buf.get_u64_le(),
                    torn_shards: buf.get_u32_le(),
                    selection_events_replayed: buf.get_u64_le(),
                    snapshot_fallbacks: buf.get_u64_le(),
                    stale_temps_removed: buf.get_u64_le(),
                },
            }
        }
        RESP_ERROR => {
            need(&buf, 4, "error length")?;
            let len = buf.get_u32_le();
            if len > MAX_WIRE_PAYLOAD {
                return Err(SpaError::Corrupt(format!("error text of {len} bytes")));
            }
            need(&buf, len as usize, "error text")?;
            let (head, tail) = buf.split_at(len as usize);
            let message = std::str::from_utf8(head)
                .map_err(|_| SpaError::Corrupt("error text is not UTF-8".into()))?
                .to_owned();
            buf = tail;
            ApiResponse::Error { message }
        }
        other => return Err(SpaError::Corrupt(format!("unknown response tag {other}"))),
    };
    if buf.has_remaining() {
        return Err(SpaError::Corrupt(format!(
            "{} trailing bytes after response",
            buf.remaining()
        )));
    }
    Ok(response)
}

/// Bytes the request envelope occupies ahead of the request payload.
pub const ENVELOPE_BYTES: usize = 8 + 8 + 4;

/// Bytes the response envelope occupies ahead of the response payload.
pub const RESPONSE_ENVELOPE_BYTES: usize = 8 + 1;

/// Response-envelope flag: this response was replayed byte-identically
/// from the server's dedup window (the mutation did **not** execute a
/// second time).
pub const FLAG_REPLAYED: u8 = 1;

/// Serializes the robustness envelope followed by the request.
///
/// Layout ahead of the request payload, all little-endian:
///
/// ```text
/// | id: u64 | sent_unix_micros: u64 | deadline_micros: u32 | request… |
/// ```
pub fn encode_enveloped_request(
    envelope: &RequestEnvelope,
    request: &ApiRequest,
    out: &mut BytesMut,
) {
    out.put_u64_le(envelope.id);
    out.put_u64_le(envelope.sent_unix_micros);
    out.put_u32_le(envelope.deadline_micros);
    encode_request(request, out);
}

/// Splits the envelope off a request payload without touching the
/// request bytes — cheap enough to run even when the server is
/// shedding load, so a `ServerBusy` answer still carries the request
/// id the client is waiting on. Returns the envelope and the inner
/// request payload.
pub fn decode_request_envelope(payload: &[u8]) -> Result<(RequestEnvelope, &[u8])> {
    let mut buf = payload;
    need(&buf, ENVELOPE_BYTES, "request envelope")?;
    let envelope = RequestEnvelope {
        id: buf.get_u64_le(),
        sent_unix_micros: buf.get_u64_le(),
        deadline_micros: buf.get_u32_le(),
    };
    Ok((envelope, buf))
}

/// Deserializes one enveloped request payload (envelope + request,
/// same loudness rules as [`decode_request`]).
pub fn decode_enveloped_request(payload: &[u8]) -> Result<(RequestEnvelope, ApiRequest)> {
    let (envelope, rest) = decode_request_envelope(payload)?;
    Ok((envelope, decode_request(rest)?))
}

/// Serializes the response envelope (the request id it answers plus
/// flags) followed by the response.
pub fn encode_enveloped_response(
    id: u64,
    replayed: bool,
    response: &ApiResponse,
    out: &mut BytesMut,
) {
    out.put_u64_le(id);
    out.put_u8(if replayed { FLAG_REPLAYED } else { 0 });
    encode_response(response, out);
}

/// Deserializes one enveloped response payload into
/// `(request id, replayed, response)`. Unknown flag bits are rejected
/// loudly — they would mean the peer speaks a newer protocol.
pub fn decode_enveloped_response(payload: &[u8]) -> Result<(u64, bool, ApiResponse)> {
    let mut buf = payload;
    need(&buf, RESPONSE_ENVELOPE_BYTES, "response envelope")?;
    let id = buf.get_u64_le();
    let flags = buf.get_u8();
    if flags & !FLAG_REPLAYED != 0 {
        return Err(SpaError::Corrupt(format!("unknown response envelope flags {flags:#04x}")));
    }
    Ok((id, flags & FLAG_REPLAYED != 0, decode_response(buf)?))
}

/// Writes one frame (header + payload) and flushes. Oversized payloads
/// are refused before any byte leaves.
///
/// Header and payload go out in one vectored write, so on a socket a
/// whole frame is normally one `writev` and one TCP segment rather
/// than two: a `TCP_NODELAY` peer wakes once per frame, not once per
/// half. A short write is finished with further vectored writes (the
/// bytes on the wire are the same either way), an interrupted write is
/// retried, and a writer that accepts nothing fails with
/// `ErrorKind::WriteZero`.
pub fn send_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_WIRE_PAYLOAD as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes exceeds cap {MAX_WIRE_PAYLOAD}", payload.len()),
        ));
    }
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match writer.write_vectored(unsent) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "writer accepted no bytes of a frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    writer.flush()
}

/// What one attempt to read a frame produced, with socket-timeout
/// expirations separated by *where* they struck — the server's idle
/// reaper and slow-loris defense need the distinction.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete, CRC-verified frame payload.
    Frame(Vec<u8>),
    /// The peer closed cleanly on a frame boundary.
    CleanClose,
    /// The socket read timed out with **zero** bytes of the next frame
    /// read: the peer is idle, not torn. The stream is still
    /// frame-aligned; the caller may keep waiting or reap the
    /// connection.
    IdleBoundary,
    /// The socket read timed out **mid-frame**: the peer started a
    /// frame and stopped feeding it (slow-loris, stall, or death the
    /// TCP stack has not noticed). The stream cannot be re-aligned.
    Stalled,
}

fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
}

/// Reads one frame, verifying length and CRC, reporting socket-timeout
/// expirations as [`FrameEvent`] variants instead of errors.
///
/// * `ErrorKind::UnexpectedEof` — a torn frame: the connection died
///   mid-message. Nothing of it is delivered.
/// * `ErrorKind::InvalidData` — a flipped bit (CRC mismatch) or an
///   oversized length prefix. The stream can no longer be trusted to
///   be frame-aligned and must be closed.
///
/// A read interrupted by a signal (`ErrorKind::Interrupted`) is
/// retried where it stopped, as `Read::read_exact` does: it is neither
/// a torn frame nor a reason to drop the connection.
pub fn recv_frame_event<R: Read>(reader: &mut R) -> io::Result<FrameEvent> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        let n = match reader.read(&mut header[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(e.kind()) => {
                return Ok(if filled == 0 { FrameEvent::IdleBoundary } else { FrameEvent::Stalled })
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            if filled == 0 {
                return Ok(FrameEvent::CleanClose); // clean close on a frame boundary
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("torn frame: connection closed after {filled} header bytes"),
            ));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > MAX_WIRE_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_WIRE_PAYLOAD}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0;
    while got < payload.len() {
        let n = match reader.read(&mut payload[got..]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(e.kind()) => return Ok(FrameEvent::Stalled),
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("torn frame: connection closed inside a {len}-byte payload"),
            ));
        }
        got += n;
    }
    let actual = crc32(&payload);
    if actual != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame CRC mismatch: stored {crc:#010x}, computed {actual:#010x}"),
        ));
    }
    Ok(FrameEvent::Frame(payload))
}

/// Reads one frame's payload, verifying length and CRC.
///
/// * `Ok(None)` — the peer closed cleanly between frames.
/// * `ErrorKind::TimedOut` — a socket read timeout expired (only on
///   streams with a read timeout configured).
/// * `ErrorKind::UnexpectedEof` — a torn frame: the connection died
///   mid-message. Nothing of it is delivered.
/// * `ErrorKind::InvalidData` — a flipped bit (CRC mismatch) or an
///   oversized length prefix. The stream can no longer be trusted to
///   be frame-aligned and must be closed.
pub fn recv_frame<R: Read>(reader: &mut R) -> io::Result<Option<Vec<u8>>> {
    match recv_frame_event(reader)? {
        FrameEvent::Frame(payload) => Ok(Some(payload)),
        FrameEvent::CleanClose => Ok(None),
        FrameEvent::IdleBoundary => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "read timed out waiting for a response frame",
        )),
        FrameEvent::Stalled => {
            Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out mid-frame"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    /// A writer that takes at most `limit` bytes per call and counts
    /// its calls; `script` fails the first calls with the given kinds.
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
        limit: usize,
        script: VecDeque<io::ErrorKind>,
    }

    impl CountingWriter {
        fn new(limit: usize) -> Self {
            Self { bytes: Vec::new(), writes: 0, limit, script: VecDeque::new() }
        }
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.writes += 1;
            if let Some(kind) = self.script.pop_front() {
                return Err(io::Error::new(kind, "scripted"));
            }
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.limit - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let payload = b"one frame, one write".as_slice();
        let mut writer = CountingWriter::new(usize::MAX);
        send_frame(&mut writer, payload).unwrap();
        assert_eq!(writer.writes, 1, "header and payload must leave in one call");
        assert_eq!(writer.bytes, framed(payload));
    }

    #[test]
    fn short_and_interrupted_writes_still_deliver_the_whole_frame() {
        let payload = b"split across many short writes".as_slice();
        let mut writer = CountingWriter::new(3);
        writer.script.push_back(io::ErrorKind::Interrupted);
        send_frame(&mut writer, payload).unwrap();
        assert_eq!(writer.bytes, framed(payload), "bytes must equal header ++ payload");
        assert_eq!(writer.writes, 1 + (8 + payload.len()).div_ceil(3));

        let mut empty = CountingWriter::new(3);
        send_frame(&mut empty, &[]).unwrap();
        assert_eq!(empty.bytes, framed(&[]));
    }

    #[test]
    fn a_writer_that_takes_nothing_is_write_zero() {
        let mut writer = CountingWriter::new(0);
        let error = send_frame(&mut writer, b"nowhere to go").unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::WriteZero);
        assert_eq!(writer.writes, 1, "a zero-byte write is not retried");
    }

    /// A reader that plays back a script of chunks and errors.
    struct ScriptedReader(VecDeque<io::Result<Vec<u8>>>);

    impl Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(error)) => Err(error),
                Some(Ok(chunk)) => {
                    assert!(chunk.len() <= buf.len(), "script chunk overruns the read");
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
            }
        }
    }

    #[test]
    fn interrupted_reads_resume_mid_header_and_mid_payload() {
        let payload = b"a signal is not a torn frame".to_vec();
        let frame = framed(&payload);
        let interrupted = || Err(io::Error::from(io::ErrorKind::Interrupted));
        let mut reader = ScriptedReader(VecDeque::from([
            Ok(frame[..3].to_vec()),
            interrupted(),
            Ok(frame[3..8].to_vec()),
            Ok(frame[8..12].to_vec()),
            interrupted(),
            Ok(frame[12..].to_vec()),
        ]));
        match recv_frame_event(&mut reader).unwrap() {
            FrameEvent::Frame(got) => assert_eq!(got, payload),
            other => panic!("expected the frame, got {other:?}"),
        }
        assert!(matches!(recv_frame_event(&mut reader).unwrap(), FrameEvent::CleanClose));
    }
}
