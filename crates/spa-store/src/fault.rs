//! Deterministic storage fault injection.
//!
//! Production storage fails in ways unit tests never exercise: writes
//! land partially (torn frames), `fsync` reports failure after the page
//! cache already lost the data, transient `EIO`s succeed on retry, and
//! cold media flips bits that only surface at read time. This module
//! gives the store a seam to rehearse all of it deterministically:
//!
//! * [`StorageIo`] — the injection seam. Every physical write, fsync
//!   and bulk read in the log/snapshot layer consults it *before*
//!   touching the file, so an injected fault can either leave the file
//!   untouched (transient — safely retryable) or deliberately damage it
//!   (torn write — the partial frame really lands on disk).
//! * [`RealIo`] — the production no-op implementation; the default
//!   everywhere, with zero branches beyond a devirtualized call.
//! * [`FaultPlan`] — a seeded, probability-driven plan implementing
//!   [`StorageIo`]. Deterministic for a fixed seed and call sequence,
//!   armable/disarmable at runtime, with an exact [`FaultLedger`] so a
//!   chaos harness can prove **every** injected fault was either
//!   recovered or loudly surfaced — never silently absorbed.
//!
//! Injected faults carry one of the `INJECTED_*` marker strings in
//! their error text, so harnesses can attribute observed errors to the
//! ledger without guessing.
//!
//! ## What is deliberately *not* injected
//!
//! Read rot is never injected into the **final** segment of a log
//! (`tail = true` in [`StorageIo::read_fault`]): a flipped byte in the
//! last frames is indistinguishable from a torn tail, and recovery
//! would heal it by truncation — silently discarding acknowledged
//! durable events. That is a misdiagnosis by design of the format
//! (single-writer logs cannot tell rot from a crash mid-append at the
//! tail), so the injector stays out of the ambiguous window and rots
//! only data whose corruption must be surfaced loudly.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Marker substring carried by every injected torn-write error.
pub const INJECTED_TORN_WRITE: &str = "injected torn write";
/// Marker substring carried by every injected transient-`EIO` error
/// that is surfaced (snapshot path, or a retry budget exhausted).
pub const INJECTED_TRANSIENT_EIO: &str = "injected transient EIO";
/// Marker substring carried by every injected fsync-failure error.
pub const INJECTED_FSYNC_FAILURE: &str = "injected fsync failure";

/// The decision returned by [`StorageIo::write_fault`] for one
/// physical write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Fail the write without touching the file. The caller may retry:
    /// state on disk is exactly as before the attempt.
    Transient,
    /// Land only the first `keep` bytes of the write, then fail. The
    /// partial frame is really on disk — exactly what a crash mid-
    /// `write(2)` leaves behind — so the caller must poison itself and
    /// let recovery heal the tear.
    Torn {
        /// Bytes of the attempted write that physically land.
        keep: usize,
    },
}

/// Injection seam consulted by the storage layer around physical I/O.
///
/// All hooks default to "no fault", so production types implement this
/// for free and the hot path costs one predictable branch. Hooks are
/// consulted **before** the real syscall; an implementation that
/// returns a fault decides whether the file was touched (see
/// [`WriteFault`]).
pub trait StorageIo: Send + Sync + std::fmt::Debug {
    /// Consulted before a physical write of `len` bytes.
    fn write_fault(&self, len: usize) -> Option<WriteFault> {
        let _ = len;
        None
    }

    /// Consulted before an fsync. `true` fails the fsync; per
    /// fsyncgate semantics the caller must treat durability of
    /// previously written bytes as unknown.
    fn fsync_fault(&self) -> bool {
        false
    }

    /// May corrupt `buf`, a buffer just read from disk, in place.
    /// Returns `true` if it did. `tail` is `true` when the buffer is
    /// the final segment of a log, where corruption is indistinguishable
    /// from a torn tail — implementations must not inject there (see
    /// the module docs).
    fn read_fault(&self, buf: &mut [u8], tail: bool) -> bool {
        let _ = (buf, tail);
        false
    }
}

/// Production storage: no faults, ever.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

impl StorageIo for RealIo {}

/// The shared production [`StorageIo`] handle used by all constructors
/// that do not thread an explicit one.
pub fn real_io() -> Arc<dyn StorageIo> {
    Arc::new(RealIo)
}

/// Probabilities (per 10 000 consultations) and shape of a
/// [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlanConfig {
    /// Seed for the plan's deterministic RNG.
    pub seed: u64,
    /// Torn-write probability per write consultation.
    pub torn_write_per_10k: u32,
    /// Transient-`EIO` probability per write consultation.
    pub transient_eio_per_10k: u32,
    /// When a transient fires, the burst length is drawn uniformly from
    /// `1..=transient_burst_max`: the next `burst` consultations all
    /// fail transiently. Bursts longer than the writer's retry budget
    /// exhaust it and poison the log.
    pub transient_burst_max: u32,
    /// Fsync-failure probability per fsync consultation.
    pub fsync_failure_per_10k: u32,
    /// Read-rot probability per eligible read consultation (see
    /// [`FaultPlan::allow_read_faults`] for the gating allowance).
    pub read_rot_per_10k: u32,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            torn_write_per_10k: 0,
            transient_eio_per_10k: 0,
            transient_burst_max: 1,
            fsync_failure_per_10k: 0,
            read_rot_per_10k: 0,
        }
    }
}

/// Exact per-kind injection counters, updated atomically as faults are
/// injected. The soak harness closes the loop against these: every
/// count here must be matched by a recovery, a retry, or a loud error
/// on the consumer side.
#[derive(Debug, Default)]
pub struct FaultLedger {
    torn_writes: AtomicU64,
    transient_eios: AtomicU64,
    fsync_failures: AtomicU64,
    read_corruptions: AtomicU64,
}

/// A point-in-time copy of a [`FaultLedger`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Torn writes injected.
    pub torn_writes: u64,
    /// Transient `EIO`s injected (each burst element counts once).
    pub transient_eios: u64,
    /// Fsync failures injected.
    pub fsync_failures: u64,
    /// Read buffers corrupted.
    pub read_corruptions: u64,
}

impl FaultLedger {
    /// Snapshot the counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            transient_eios: self.transient_eios.load(Ordering::Relaxed),
            fsync_failures: self.fsync_failures.load(Ordering::Relaxed),
            read_corruptions: self.read_corruptions.load(Ordering::Relaxed),
        }
    }
}

/// Minimal deterministic RNG (splitmix64) so the store needs no RNG
/// dependency. Sequence is fixed by the seed; used both by
/// [`FaultPlan`] and by chaos harnesses that need reproducible pacing.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose whole sequence is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..bound` (`bound` must be non-zero).
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Modulo bias is irrelevant at fault-plan probabilities.
        self.next_u64() % bound
    }

    /// `true` with probability `per_10k / 10_000`.
    pub fn chance(&mut self, per_10k: u32) -> bool {
        per_10k > 0 && self.gen_range(10_000) < per_10k as u64
    }
}

/// A deterministic, seed-driven fault plan.
///
/// Disarmed on construction: while disarmed every hook is a no-op, so
/// a platform can be brought up, warmed and checkpointed cleanly
/// before the weather starts. Read rot is additionally gated by an
/// explicit allowance ([`Self::allow_read_faults`]) so harnesses can
/// bound corruption per recovery attempt and keep the accounting
/// exact.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultPlanConfig,
    armed: AtomicBool,
    /// Remaining reads that may be corrupted (decremented per
    /// injection, not per consultation).
    read_allowance: AtomicU64,
    /// Remaining transient failures in the burst currently in flight.
    pending_transients: AtomicU32,
    rng: Mutex<SplitMix64>,
    ledger: FaultLedger,
}

impl FaultPlan {
    /// A disarmed plan with the given probabilities and seed.
    pub fn seeded(config: FaultPlanConfig) -> Self {
        Self {
            armed: AtomicBool::new(false),
            read_allowance: AtomicU64::new(0),
            pending_transients: AtomicU32::new(0),
            rng: Mutex::new(SplitMix64::new(config.seed)),
            ledger: FaultLedger::default(),
            config,
        }
    }

    /// Arm or disarm the plan. Disarmed, every hook is a no-op (a
    /// transient burst in flight is also cancelled).
    pub fn set_armed(&self, armed: bool) {
        if !armed {
            self.pending_transients.store(0, Ordering::Relaxed);
        }
        self.armed.store(armed, Ordering::Relaxed);
    }

    /// Whether the plan is currently armed.
    pub(crate) fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Permit up to `n` read corruptions from now on (replaces any
    /// previous allowance). Zero forbids read rot entirely.
    pub fn allow_read_faults(&self, n: u64) {
        self.read_allowance.store(n, Ordering::Relaxed);
    }

    /// The exact injection ledger.
    pub fn ledger(&self) -> &FaultLedger {
        &self.ledger
    }
}

impl StorageIo for FaultPlan {
    fn write_fault(&self, len: usize) -> Option<WriteFault> {
        if !self.is_armed() {
            return None;
        }
        // Drain a burst in flight first: each element is one more
        // injected transient.
        loop {
            let pending = self.pending_transients.load(Ordering::Relaxed);
            if pending == 0 {
                break;
            }
            if self
                .pending_transients
                .compare_exchange(pending, pending - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.ledger.transient_eios.fetch_add(1, Ordering::Relaxed);
                return Some(WriteFault::Transient);
            }
        }
        let mut rng = self.rng.lock();
        if rng.chance(self.config.torn_write_per_10k) {
            let keep = if len >= 2 { rng.gen_range(len as u64 - 1) as usize + 1 } else { 0 };
            drop(rng);
            self.ledger.torn_writes.fetch_add(1, Ordering::Relaxed);
            return Some(WriteFault::Torn { keep });
        }
        if rng.chance(self.config.transient_eio_per_10k) {
            let burst = 1 + rng.gen_range(self.config.transient_burst_max.max(1) as u64) as u32;
            drop(rng);
            self.pending_transients.store(burst - 1, Ordering::Relaxed);
            self.ledger.transient_eios.fetch_add(1, Ordering::Relaxed);
            return Some(WriteFault::Transient);
        }
        None
    }

    fn fsync_fault(&self) -> bool {
        if !self.is_armed() {
            return false;
        }
        if self.rng.lock().chance(self.config.fsync_failure_per_10k) {
            self.ledger.fsync_failures.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    fn read_fault(&self, buf: &mut [u8], tail: bool) -> bool {
        if !self.is_armed() || tail || buf.is_empty() {
            return false;
        }
        let (hit, pos, bit) = {
            let mut rng = self.rng.lock();
            if !rng.chance(self.config.read_rot_per_10k) {
                return false;
            }
            let pos = rng.gen_range(buf.len() as u64) as usize;
            let bit = rng.gen_range(8) as u8;
            (true, pos, bit)
        };
        debug_assert!(hit);
        // Consume one unit of allowance; without allowance the dice
        // roll above already advanced the RNG but nothing is injected.
        loop {
            let allowance = self.read_allowance.load(Ordering::Relaxed);
            if allowance == 0 {
                return false;
            }
            if self
                .read_allowance
                .compare_exchange(allowance, allowance - 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        buf[pos] ^= 1 << bit;
        self.ledger.read_corruptions.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// An injected-fault I/O error with the standard marker text.
pub(crate) fn injected_error(marker: &str, detail: String) -> std::io::Error {
    std::io::Error::other(format!("{marker}: {detail}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(seed: u64) -> FaultPlan {
        FaultPlan::seeded(FaultPlanConfig {
            seed,
            torn_write_per_10k: 1_500,
            transient_eio_per_10k: 2_000,
            transient_burst_max: 3,
            fsync_failure_per_10k: 2_500,
            read_rot_per_10k: 8_000,
        })
    }

    #[test]
    fn disarmed_plan_injects_nothing() {
        let plan = noisy(7);
        let mut buf = vec![0xAAu8; 64];
        for _ in 0..200 {
            assert_eq!(plan.write_fault(128), None);
            assert!(!plan.fsync_fault());
            assert!(!plan.read_fault(&mut buf, false));
        }
        assert_eq!(plan.ledger().counts(), FaultCounts::default());
        assert_eq!(buf, vec![0xAAu8; 64]);
    }

    #[test]
    fn identical_plans_make_identical_decisions() {
        let a = noisy(42);
        let b = noisy(42);
        a.set_armed(true);
        b.set_armed(true);
        a.allow_read_faults(u64::MAX);
        b.allow_read_faults(u64::MAX);
        for i in 0..500usize {
            assert_eq!(a.write_fault(i + 2), b.write_fault(i + 2), "write {i}");
            assert_eq!(a.fsync_fault(), b.fsync_fault(), "fsync {i}");
            let mut ba = vec![0u8; 32];
            let mut bb = vec![0u8; 32];
            assert_eq!(a.read_fault(&mut ba, false), b.read_fault(&mut bb, false), "read {i}");
            assert_eq!(ba, bb, "corruption pattern {i}");
        }
        assert_eq!(a.ledger().counts(), b.ledger().counts());
        assert_ne!(a.ledger().counts(), FaultCounts::default(), "a noisy plan must fire");
    }

    #[test]
    fn ledger_counts_every_injection() {
        let plan = noisy(3);
        plan.set_armed(true);
        plan.allow_read_faults(u64::MAX);
        let mut observed = FaultCounts::default();
        for _ in 0..400 {
            match plan.write_fault(64) {
                Some(WriteFault::Torn { keep }) => {
                    assert!((1..64).contains(&keep), "tear keeps a strict prefix: {keep}");
                    observed.torn_writes += 1;
                }
                Some(WriteFault::Transient) => observed.transient_eios += 1,
                None => {}
            }
            if plan.fsync_fault() {
                observed.fsync_failures += 1;
            }
            let mut buf = vec![0x55u8; 16];
            if plan.read_fault(&mut buf, false) {
                assert_ne!(buf, vec![0x55u8; 16], "a reported corruption must change bytes");
                observed.read_corruptions += 1;
            }
        }
        assert_eq!(plan.ledger().counts(), observed);
        assert!(observed.torn_writes > 0);
        assert!(observed.transient_eios > 0);
        assert!(observed.fsync_failures > 0);
        assert!(observed.read_corruptions > 0);
    }

    #[test]
    fn tail_reads_are_never_corrupted() {
        let plan = noisy(9);
        plan.set_armed(true);
        plan.allow_read_faults(u64::MAX);
        let mut buf = vec![0x11u8; 128];
        for _ in 0..300 {
            assert!(!plan.read_fault(&mut buf, true));
        }
        assert_eq!(buf, vec![0x11u8; 128]);
        assert_eq!(plan.ledger().counts().read_corruptions, 0);
    }

    #[test]
    fn read_allowance_bounds_corruptions() {
        let plan = noisy(5);
        plan.set_armed(true);
        plan.allow_read_faults(2);
        let mut injected = 0;
        for _ in 0..500 {
            let mut buf = vec![0u8; 8];
            if plan.read_fault(&mut buf, false) {
                injected += 1;
            }
        }
        assert_eq!(injected, 2, "allowance caps injections");
        assert_eq!(plan.ledger().counts().read_corruptions, 2);
    }

    #[test]
    fn transient_bursts_drain_across_consultations() {
        let plan = FaultPlan::seeded(FaultPlanConfig {
            seed: 1,
            transient_eio_per_10k: 10_000,
            transient_burst_max: 4,
            ..Default::default()
        });
        plan.set_armed(true);
        // With p = 1.0 every consultation is a transient regardless of
        // burst state.
        for _ in 0..50 {
            assert_eq!(plan.write_fault(32), Some(WriteFault::Transient));
        }
        assert_eq!(plan.ledger().counts().transient_eios, 50);
        // Disarming cancels the burst in flight.
        plan.set_armed(false);
        assert_eq!(plan.write_fault(32), None);
    }
}
