//! What a platform checkpoint stores.
//!
//! [`spa_store::snapshot`] provides the container — a versioned,
//! CRC-checked, atomically written file covering one
//! [`spa_store::LogPosition`]. This module defines the **contents**: the
//! section tags a platform checkpoint is made of, and the codecs for
//! the sections that don't belong to a more specific home
//! ([`crate::sum::SumRegistry::write_state`] and
//! [`crate::selection::SelectionFunction::write_state`] own theirs).
//!
//! A checkpoint is one snapshot file per shard plus one for the
//! platform, and together they carry everything recovery would
//! otherwise reconstruct by replaying the full event history:
//!
//! * **SUM models** ([`SECTION_MODELS`], per shard) — every user's
//!   attribute estimates, relevance weights, EIT answer counters and
//!   update counter. The EIT *schedule* needs no section of its own:
//!   the scheduler is a pure function of the per-model answer counters
//!   ([`crate::eit::EitEngine::next_question`]), so restoring the
//!   models restores the schedule.
//! * **Pre-processor counters** ([`SECTION_STATS`], per shard) — the
//!   engine's monotone event statistics.
//! * **Selection weights** ([`SECTION_SELECTION`], in the root-level
//!   `selection.snap` only) — the trained SVM state, so recovery
//!   neither loses nor silently retrains the propensity ranker. Shard
//!   snapshots written before engines lost their dormant selection
//!   function also carry this section; shard restore reads sections by
//!   tag and ignores it (`tests/snapshot_recovery.rs` pins that both
//!   layouts recover bit-identically).
//!
//! What is deliberately **not** in a snapshot: campaign → appeal
//! registrations. They are configuration, not state derived from the
//! event stream — see the contract on [`crate::shard::ShardedSpa::recover`],
//! the one place that rule is documented.

use crate::preprocessor::PreprocessorStats;
use spa_types::{Result, SpaError};

/// Section tag: SUM registry state
/// ([`crate::sum::SumRegistry::write_state`]).
pub const SECTION_MODELS: u32 = 1;

/// Section tag: pre-processor counters (`encode_stats`).
pub const SECTION_STATS: u32 = 2;

/// Section tag: selection-function SVM state
/// ([`crate::selection::SelectionFunction::write_state`]).
pub const SECTION_SELECTION: u32 = 3;

/// Serializes the pre-processor counters (eight `u64`s, little-endian).
pub(crate) fn encode_stats(stats: &PreprocessorStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    for v in [
        stats.actions,
        stats.transactions,
        stats.eit_answers,
        stats.eit_skips,
        stats.deliveries,
        stats.opens,
        stats.objective_imports,
        stats.punishments,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes counters written by [`encode_stats`].
pub(crate) fn decode_stats(bytes: &[u8]) -> Result<PreprocessorStats> {
    if bytes.len() != 64 {
        return Err(SpaError::Corrupt(format!(
            "stats section is {} bytes, expected 64",
            bytes.len()
        )));
    }
    let at = |i: usize| u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
    Ok(PreprocessorStats {
        actions: at(0),
        transactions: at(1),
        eit_answers: at(2),
        eit_skips: at(3),
        deliveries: at(4),
        opens: at(5),
        objective_imports: at(6),
        punishments: at(7),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_round_trip() {
        let stats = PreprocessorStats {
            actions: 1,
            transactions: 2,
            eit_answers: u64::MAX,
            eit_skips: 0,
            deliveries: 5,
            opens: 6,
            objective_imports: 7,
            punishments: 8,
        };
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);
        assert!(decode_stats(&[0u8; 63]).is_err());
        assert!(decode_stats(&[0u8; 65]).is_err());
        assert!(decode_stats(&[0u8; 48]).is_err(), "pre-admin-event snapshots are rejected loudly");
    }
}
