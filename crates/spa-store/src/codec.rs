//! Binary framing for LifeLog records.
//!
//! Frame layout (little-endian):
//!
//! ```text
//! +----------+----------+---------------------+
//! | len: u32 | crc: u32 | payload (len bytes) |
//! +----------+----------+---------------------+
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. The payload itself is a
//! tagged encoding of [`LifeLogEvent`]: a one-byte event tag followed by
//! fixed-width fields. A hand-rolled codec keeps the store dependency-
//! free and the format stable and inspectable.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use spa_types::{
    ActionId, CampaignId, CourseId, EventKind, LifeLogEvent, QuestionId, Result, SpaError,
    Timestamp, UserId, Valence,
};

/// CRC-32 (IEEE 802.3) over a byte slice — slicing-by-8: eight lookup
/// tables let the loop fold one 8-byte word per step instead of one
/// byte, producing exactly the byte-at-a-time result (the polynomial is
/// reflected 0xEDB88320 as in zlib). The WAL frames every ingested
/// event, so this runs once per write and once per replayed frame.
pub fn crc32(data: &[u8]) -> u32 {
    fn tables() -> &'static [[u32; 256]; 8] {
        use std::sync::OnceLock;
        static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut t = [[0u32; 256]; 8];
            for (i, entry) in t[0].iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
                *entry = c;
            }
            for i in 0..256usize {
                let mut c = t[0][i];
                for k in 1..8 {
                    c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                    t[k][i] = c;
                }
            }
            t
        })
    }
    let t = tables();
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().expect("4 bytes"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// Event tags. New variants must append, never renumber.
const TAG_ACTION: u8 = 1;
const TAG_TRANSACTION: u8 = 2;
const TAG_RATING: u8 = 3;
const TAG_EIT_ANSWER: u8 = 4;
const TAG_EIT_SKIPPED: u8 = 5;
const TAG_DELIVERED: u8 = 6;
const TAG_OPENED: u8 = 7;
const TAG_OBJECTIVE: u8 = 8;
const TAG_IGNORED: u8 = 9;
const TAG_OUTCOME: u8 = 10;

/// Caps on the variable-length administrative payloads. The objective
/// bound mirrors the SUM's 40 objective attributes; the outcome bound
/// is the advice-row dimension ceiling (well under [`MAX_PAYLOAD`]).
/// The decoder enforces both, so a corrupted count can never drive an
/// absurd allocation.
const MAX_OBJECTIVE_VALUES: usize = 64;
const MAX_OUTCOME_NNZ: usize = 256;

/// Sentinel encoding "no value" for optional u32 ids.
const NONE_SENTINEL: u32 = u32::MAX;

/// Upper bound on one *fixed-width* frame's size (8-byte header + the
/// largest fixed-width payload, an `EitAnswer` at 25 bytes) with
/// headroom. [`FrameScratch`] is sized by it; variable-width variants
/// ([`EventKind::ObjectiveImported`], [`EventKind::OutcomeObserved`])
/// bypass the scratch and frame straight into the heap buffer. A
/// fixed-width kind that outgrew it would panic loudly in tests, not
/// corrupt.
const MAX_FRAME: usize = 64;

/// Fixed-size stack cursor for frame encoding: [`BufMut`] writes
/// compile to plain bounds-checked stores — no capacity branch, no
/// heap — so a frame is assembled in registers/L1 and appended to the
/// segment buffer with a single `extend_from_slice`.
struct FrameScratch {
    buf: [u8; MAX_FRAME],
    len: usize,
}

impl FrameScratch {
    fn new() -> Self {
        Self { buf: [0; MAX_FRAME], len: 0 }
    }

    fn as_slice(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

impl BufMut for FrameScratch {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf[self.len..self.len + src.len()].copy_from_slice(src);
        self.len += src.len();
    }
}

/// Serializes one event into a payload (without framing).
pub fn encode_event<B: BufMut>(event: &LifeLogEvent, out: &mut B) {
    out.put_u32_le(event.user.raw());
    out.put_u64_le(event.at.millis());
    match &event.kind {
        EventKind::Action { action, course } => {
            out.put_u8(TAG_ACTION);
            out.put_u32_le(action.raw());
            out.put_u32_le(course.map_or(NONE_SENTINEL, |c| c.raw()));
        }
        EventKind::Transaction { course, campaign } => {
            out.put_u8(TAG_TRANSACTION);
            out.put_u32_le(course.raw());
            out.put_u32_le(campaign.map_or(NONE_SENTINEL, |c| c.raw()));
        }
        EventKind::Rating { course, stars } => {
            out.put_u8(TAG_RATING);
            out.put_u32_le(course.raw());
            out.put_u8(*stars);
        }
        EventKind::EitAnswer { question, answer } => {
            out.put_u8(TAG_EIT_ANSWER);
            out.put_u32_le(question.raw());
            out.put_f64_le(answer.value());
        }
        EventKind::EitSkipped { question } => {
            out.put_u8(TAG_EIT_SKIPPED);
            out.put_u32_le(question.raw());
        }
        EventKind::MessageDelivered { campaign } => {
            out.put_u8(TAG_DELIVERED);
            out.put_u32_le(campaign.raw());
        }
        EventKind::MessageOpened { campaign } => {
            out.put_u8(TAG_OPENED);
            out.put_u32_le(campaign.raw());
        }
        EventKind::ObjectiveImported { values } => {
            debug_assert!(values.len() <= MAX_OBJECTIVE_VALUES, "objective import too wide");
            out.put_u8(TAG_OBJECTIVE);
            out.put_u32_le(values.len() as u32);
            for &v in values {
                out.put_f64_le(v);
            }
        }
        EventKind::CampaignIgnored { campaign } => {
            out.put_u8(TAG_IGNORED);
            out.put_u32_le(campaign.raw());
        }
        EventKind::OutcomeObserved { responded, dim, indices, values } => {
            debug_assert_eq!(indices.len(), values.len(), "outcome row slices diverge");
            debug_assert!(indices.len() <= MAX_OUTCOME_NNZ, "outcome row too wide");
            out.put_u8(TAG_OUTCOME);
            out.put_u8(u8::from(*responded));
            out.put_u32_le(*dim);
            out.put_u32_le(indices.len() as u32);
            for &i in indices {
                out.put_u32_le(i);
            }
            for &v in values {
                out.put_f64_le(v);
            }
        }
    }
}

/// True when the kind's payload is fixed-width and fits the stack
/// scratch; the administrative variants carry vectors and take the
/// heap-buffer framing path instead.
fn fits_stack_frame(kind: &EventKind) -> bool {
    !matches!(kind, EventKind::ObjectiveImported { .. } | EventKind::OutcomeObserved { .. })
}

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(SpaError::Corrupt(format!("payload truncated reading {what}")));
    }
    Ok(())
}

/// Deserializes one event from an owned payload buffer. Thin wrapper
/// over [`decode_event_slice`] for callers that already hold a
/// [`Bytes`]; the hot replay path decodes borrowed slices instead.
pub fn decode_event(buf: Bytes) -> Result<LifeLogEvent> {
    decode_event_slice(&buf)
}

/// Deserializes one event from a borrowed payload produced by
/// [`encode_event`] — no copy, no allocation: the frame decoder and
/// replay hand segment-buffer slices straight in.
pub fn decode_event_slice(mut buf: &[u8]) -> Result<LifeLogEvent> {
    need(&buf, 4 + 8 + 1, "header")?;
    let user = UserId::new(buf.get_u32_le());
    let at = Timestamp::from_millis(buf.get_u64_le());
    let tag = buf.get_u8();
    let opt = |raw: u32| if raw == NONE_SENTINEL { None } else { Some(raw) };
    let kind = match tag {
        TAG_ACTION => {
            need(&buf, 8, "action fields")?;
            EventKind::Action {
                action: ActionId::new(buf.get_u32_le()),
                course: opt(buf.get_u32_le()).map(CourseId::new),
            }
        }
        TAG_TRANSACTION => {
            need(&buf, 8, "transaction fields")?;
            EventKind::Transaction {
                course: CourseId::new(buf.get_u32_le()),
                campaign: opt(buf.get_u32_le()).map(CampaignId::new),
            }
        }
        TAG_RATING => {
            need(&buf, 5, "rating fields")?;
            EventKind::Rating { course: CourseId::new(buf.get_u32_le()), stars: buf.get_u8() }
        }
        TAG_EIT_ANSWER => {
            need(&buf, 12, "eit answer fields")?;
            EventKind::EitAnswer {
                question: QuestionId::new(buf.get_u32_le()),
                answer: Valence::new(buf.get_f64_le()),
            }
        }
        TAG_EIT_SKIPPED => {
            need(&buf, 4, "eit skipped fields")?;
            EventKind::EitSkipped { question: QuestionId::new(buf.get_u32_le()) }
        }
        TAG_DELIVERED => {
            need(&buf, 4, "delivered fields")?;
            EventKind::MessageDelivered { campaign: CampaignId::new(buf.get_u32_le()) }
        }
        TAG_OPENED => {
            need(&buf, 4, "opened fields")?;
            EventKind::MessageOpened { campaign: CampaignId::new(buf.get_u32_le()) }
        }
        TAG_OBJECTIVE => {
            need(&buf, 4, "objective count")?;
            let count = buf.get_u32_le() as usize;
            if count > MAX_OBJECTIVE_VALUES {
                return Err(SpaError::Corrupt(format!(
                    "objective import of {count} values exceeds cap {MAX_OBJECTIVE_VALUES}"
                )));
            }
            need(&buf, count * 8, "objective values")?;
            let values = (0..count).map(|_| buf.get_f64_le()).collect();
            EventKind::ObjectiveImported { values }
        }
        TAG_IGNORED => {
            need(&buf, 4, "ignored fields")?;
            EventKind::CampaignIgnored { campaign: CampaignId::new(buf.get_u32_le()) }
        }
        TAG_OUTCOME => {
            need(&buf, 1 + 4 + 4, "outcome header")?;
            let responded = match buf.get_u8() {
                0 => false,
                1 => true,
                other => return Err(SpaError::Corrupt(format!("outcome responded byte {other}"))),
            };
            let dim = buf.get_u32_le();
            let count = buf.get_u32_le() as usize;
            if count > MAX_OUTCOME_NNZ {
                return Err(SpaError::Corrupt(format!(
                    "outcome row of {count} entries exceeds cap {MAX_OUTCOME_NNZ}"
                )));
            }
            need(&buf, count * 12, "outcome row")?;
            let indices: Vec<u32> = (0..count).map(|_| buf.get_u32_le()).collect();
            let values: Vec<f64> = (0..count).map(|_| buf.get_f64_le()).collect();
            if indices.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SpaError::Corrupt("outcome row indices not sorted".into()));
            }
            if indices.last().is_some_and(|&i| i >= dim) {
                return Err(SpaError::Corrupt("outcome row index out of dimension".into()));
            }
            EventKind::OutcomeObserved { responded, dim, indices, values }
        }
        other => return Err(SpaError::Corrupt(format!("unknown event tag {other}"))),
    };
    if buf.has_remaining() {
        return Err(SpaError::Corrupt(format!("{} trailing bytes after event", buf.remaining())));
    }
    Ok(LifeLogEvent::new(user, at, kind))
}

/// Writes a full frame (length, crc, payload) for one event. The frame
/// is assembled in a fixed stack buffer (`FrameScratch`) — an 8-byte
/// header placeholder, the payload, then the backfilled length and CRC
/// — and lands in `out` as one append. Zero heap traffic per frame,
/// and the byte stream is identical to the payload-then-prefix
/// formulation.
pub fn encode_frame(event: &LifeLogEvent, out: &mut BytesMut) {
    if fits_stack_frame(&event.kind) {
        let mut frame = FrameScratch::new();
        frame.put_u32_le(0); // length, backfilled below
        frame.put_u32_le(0); // crc, backfilled below
        encode_event(event, &mut frame);
        let payload_len = (frame.len - 8) as u32;
        let crc = crc32(&frame.buf[8..frame.len]);
        frame.buf[0..4].copy_from_slice(&payload_len.to_le_bytes());
        frame.buf[4..8].copy_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(frame.as_slice());
    } else {
        // Variable-width payload: assemble directly in the output
        // buffer and backfill the header in place. Same byte stream as
        // the stack path, just without the 64-byte ceiling.
        let start = out.len();
        out.put_u32_le(0); // length, backfilled below
        out.put_u32_le(0); // crc, backfilled below
        encode_event(event, out);
        let payload_len = (out.len() - start - 8) as u32;
        debug_assert!(payload_len <= MAX_PAYLOAD, "event payload exceeds frame cap");
        let crc = crc32(&out[start + 8..]);
        out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Outcome of attempting to read one frame from a buffer.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete, checksum-valid event, plus bytes consumed.
    Event(LifeLogEvent, usize),
    /// The buffer ends mid-frame (normal at the tail of a segment that
    /// was being written during a crash).
    Incomplete,
}

/// Maximum payload size accepted by the decoder; anything larger is
/// treated as corruption (the widest legal event — a full outcome row
/// at `MAX_OUTCOME_NNZ` entries — stays comfortably under this).
pub const MAX_PAYLOAD: u32 = 4096;

/// Tries to decode one frame from the front of `buf`.
pub fn decode_frame(buf: &[u8]) -> Result<FrameRead> {
    if buf.len() < 8 {
        return Ok(FrameRead::Incomplete);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > MAX_PAYLOAD {
        return Err(SpaError::Corrupt(format!("frame length {len} exceeds cap {MAX_PAYLOAD}")));
    }
    let crc_expect = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let total = 8 + len as usize;
    if buf.len() < total {
        return Ok(FrameRead::Incomplete);
    }
    let payload = &buf[8..total];
    let crc_actual = crc32(payload);
    if crc_actual != crc_expect {
        return Err(SpaError::Corrupt(format!(
            "checksum mismatch: stored {crc_expect:#010x}, computed {crc_actual:#010x}"
        )));
    }
    let event = decode_event_slice(payload)?;
    Ok(FrameRead::Event(event, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<LifeLogEvent> {
        vec![
            LifeLogEvent::new(
                UserId::new(1),
                Timestamp::from_millis(100),
                EventKind::Action { action: ActionId::new(7), course: Some(CourseId::new(3)) },
            ),
            LifeLogEvent::new(
                UserId::new(2),
                Timestamp::from_millis(200),
                EventKind::Action { action: ActionId::new(8), course: None },
            ),
            LifeLogEvent::new(
                UserId::new(3),
                Timestamp::from_millis(300),
                EventKind::Transaction {
                    course: CourseId::new(4),
                    campaign: Some(CampaignId::new(1)),
                },
            ),
            LifeLogEvent::new(
                UserId::new(4),
                Timestamp::from_millis(400),
                EventKind::Rating { course: CourseId::new(5), stars: 4 },
            ),
            LifeLogEvent::new(
                UserId::new(5),
                Timestamp::from_millis(500),
                EventKind::EitAnswer { question: QuestionId::new(9), answer: Valence::new(-0.5) },
            ),
            LifeLogEvent::new(
                UserId::new(6),
                Timestamp::from_millis(600),
                EventKind::EitSkipped { question: QuestionId::new(10) },
            ),
            LifeLogEvent::new(
                UserId::new(7),
                Timestamp::from_millis(700),
                EventKind::MessageDelivered { campaign: CampaignId::new(2) },
            ),
            LifeLogEvent::new(
                UserId::new(8),
                Timestamp::from_millis(800),
                EventKind::MessageOpened { campaign: CampaignId::new(2) },
            ),
            LifeLogEvent::new(
                UserId::new(9),
                Timestamp::from_millis(900),
                EventKind::ObjectiveImported { values: vec![0.25, -0.5, 1.0] },
            ),
            LifeLogEvent::new(
                UserId::new(10),
                Timestamp::from_millis(1000),
                EventKind::ObjectiveImported { values: vec![] },
            ),
            LifeLogEvent::new(
                UserId::new(11),
                Timestamp::from_millis(1100),
                EventKind::CampaignIgnored { campaign: CampaignId::new(3) },
            ),
            LifeLogEvent::new(
                UserId::new(12),
                Timestamp::from_millis(1200),
                EventKind::OutcomeObserved {
                    responded: true,
                    dim: 115,
                    indices: vec![0, 7, 114],
                    values: vec![0.1, -0.9, 0.5],
                },
            ),
            LifeLogEvent::new(
                UserId::new(13),
                Timestamp::from_millis(1300),
                EventKind::OutcomeObserved {
                    responded: false,
                    dim: 115,
                    indices: vec![],
                    values: vec![],
                },
            ),
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "standard check value");
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn every_event_kind_round_trips() {
        for event in sample_events() {
            let mut payload = BytesMut::new();
            encode_event(&event, &mut payload);
            let decoded = decode_event(payload.freeze()).unwrap();
            assert_eq!(decoded, event);
        }
    }

    #[test]
    fn frames_round_trip() {
        for event in sample_events() {
            let mut buf = BytesMut::new();
            encode_frame(&event, &mut buf);
            match decode_frame(&buf).unwrap() {
                FrameRead::Event(decoded, consumed) => {
                    assert_eq!(decoded, event);
                    assert_eq!(consumed, buf.len());
                }
                FrameRead::Incomplete => panic!("complete frame reported incomplete"),
            }
        }
    }

    #[test]
    fn truncated_frames_are_incomplete_not_errors() {
        let mut buf = BytesMut::new();
        encode_frame(&sample_events()[0], &mut buf);
        for cut in 0..buf.len() {
            match decode_frame(&buf[..cut]) {
                Ok(FrameRead::Incomplete) => {}
                other => panic!("cut at {cut}: expected Incomplete, got {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_bit_is_detected() {
        let mut buf = BytesMut::new();
        encode_frame(&sample_events()[2], &mut buf);
        let mut bytes = buf.to_vec();
        // flip one payload bit
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(decode_frame(&bytes), Err(SpaError::Corrupt(_))));
    }

    /// The CRC safety property, exhaustively: flip every single bit of
    /// every byte of every event kind's frame — the decoder must never
    /// silently hand back an event. (A flip in the length field may
    /// legitimately read as an incomplete frame; a flip anywhere else
    /// must be a loud checksum/decode error. "Decoded fine" is the one
    /// outcome that is never acceptable.)
    #[test]
    fn every_flipped_bit_is_never_silently_decoded() {
        for event in sample_events() {
            let mut buf = BytesMut::new();
            encode_frame(&event, &mut buf);
            let clean = buf.to_vec();
            for position in 0..clean.len() {
                for bit in 0..8u8 {
                    let mut corrupted = clean.clone();
                    corrupted[position] ^= 1 << bit;
                    match decode_frame(&corrupted) {
                        Ok(FrameRead::Event(decoded, _)) => panic!(
                            "flipping bit {bit} of byte {position} in a {} frame silently \
                             decoded as {decoded:?}",
                            event.kind.tag()
                        ),
                        Ok(FrameRead::Incomplete) => assert!(
                            position < 4,
                            "only a length-field flip may read as incomplete \
                             (byte {position}, bit {bit})"
                        ),
                        Err(SpaError::Corrupt(_)) => {}
                        Err(e) => panic!("unexpected error kind: {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn absurd_length_is_corruption() {
        let mut bytes = vec![0u8; 16];
        bytes[..4].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(SpaError::Corrupt(_))));
    }

    #[test]
    fn unknown_tag_is_corruption() {
        let mut payload = BytesMut::new();
        payload.put_u32_le(1);
        payload.put_u64_le(2);
        payload.put_u8(99);
        assert!(matches!(decode_event(payload.freeze()), Err(SpaError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut payload = BytesMut::new();
        encode_event(&sample_events()[5], &mut payload);
        payload.put_u8(0);
        assert!(matches!(decode_event(payload.freeze()), Err(SpaError::Corrupt(_))));
    }

    #[test]
    fn outcome_row_structural_corruption_is_loud() {
        // Hand-craft payloads whose CRC would pass (we feed the payload
        // decoder directly): the structural guards must still reject.
        let craft = |count: u32, indices: &[u32], dim: u32| {
            let mut payload = BytesMut::new();
            payload.put_u32_le(1); // user
            payload.put_u64_le(2); // at
            payload.put_u8(10); // TAG_OUTCOME
            payload.put_u8(1); // responded
            payload.put_u32_le(dim);
            payload.put_u32_le(count);
            for &i in indices {
                payload.put_u32_le(i);
            }
            for _ in indices {
                payload.put_f64_le(0.5);
            }
            payload
        };
        // unsorted indices
        let bad = craft(2, &[5, 3], 10);
        assert!(matches!(decode_event(bad.freeze()), Err(SpaError::Corrupt(_))));
        // index out of dimension
        let bad = craft(2, &[3, 10], 10);
        assert!(matches!(decode_event(bad.freeze()), Err(SpaError::Corrupt(_))));
        // count over cap never allocates
        let bad = craft(1_000_000, &[], 10);
        assert!(matches!(decode_event(bad.freeze()), Err(SpaError::Corrupt(_))));
        // responded byte outside {0, 1}
        let mut bad = craft(1, &[3], 10);
        bad[13] = 7;
        assert!(matches!(decode_event(bad.freeze()), Err(SpaError::Corrupt(_))));
        // the well-formed control decodes
        let good = craft(2, &[3, 5], 10);
        assert!(decode_event(good.freeze()).is_ok());
    }

    #[test]
    fn objective_count_over_cap_is_corruption() {
        let mut payload = BytesMut::new();
        payload.put_u32_le(1);
        payload.put_u64_le(2);
        payload.put_u8(8); // TAG_OBJECTIVE
        payload.put_u32_le(1_000_000);
        assert!(matches!(decode_event(payload.freeze()), Err(SpaError::Corrupt(_))));
    }

    #[test]
    fn truncated_payload_is_corruption() {
        let mut payload = BytesMut::new();
        encode_event(&sample_events()[0], &mut payload);
        let short = payload.freeze().slice(0..14);
        assert!(matches!(decode_event(short), Err(SpaError::Corrupt(_))));
    }
}
