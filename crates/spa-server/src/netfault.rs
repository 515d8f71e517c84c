//! Deterministic network fault injection for the serving stack.
//!
//! The storage layer rehearses torn writes and bit rot through
//! [`spa_store::fault::FaultPlan`]; this is the same discipline lifted
//! to the wire. A [`NetFaultPlan`] is seeded, armable, and keeps an
//! exact [`NetFaultLedger`], so a chaos harness can prove **every**
//! injected connection drop, stall and partial write was observed as a
//! marked client error (or absorbed by design) — never silently lost.
//!
//! Faults are drawn once per client call (at most one per call), in a
//! fixed consultation order, from one [`SplitMix64`] stream — a fixed
//! seed and call sequence replays the identical fault schedule. The
//! injected errors carry the `INJECTED_NET_*` marker strings in their
//! text so harnesses can attribute observed errors to the ledger
//! without guessing.
//!
//! What each fault models, and what the protocol guarantees under it:
//!
//! * [`CallFault::DropTx`] — the connection dies **mid-request**: only
//!   a strict prefix of the frame is delivered, then the socket is
//!   severed. The server sees a torn frame and, by the wire contract,
//!   dispatches *nothing* — the request deterministically did **not**
//!   execute.
//! * [`CallFault::DropRx`] — the connection dies **after** the request
//!   was fully delivered but before the caller sees the response. The
//!   server dispatches the request; the caller deterministically does
//!   not learn the outcome. (The client consumes and discards the
//!   response bytes before severing, so a racing TCP RST can never
//!   destroy the still-unread request frame and break the "request
//!   executed" guarantee.) This is the ambiguity idempotent retry
//!   exists for: the retried id replays from the dedup window instead
//!   of re-executing.
//! * [`CallFault::Stall`] — the response never arrives within the
//!   client's read timeout. Injected as an immediate marked
//!   `TimedOut` (no real sleep — the schedule stays deterministic and
//!   the soak fast); the genuine socket-timeout path is exercised
//!   separately with real slow peers. Same ambiguity as `DropRx`: the
//!   request executed.
//! * [`CallFault::PartialWrite`] — the request frame lands in two
//!   separate writes. TCP is a byte stream, so this MUST be absorbed:
//!   the call proceeds normally and the ledger merely records that the
//!   framing survived a split.

use spa_store::fault::SplitMix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Marker substring carried by every injected connection-drop error.
pub const INJECTED_NET_DROP: &str = "injected net drop";
/// Marker substring carried by every injected stall (timeout) error.
pub const INJECTED_NET_STALL: &str = "injected net stall";
/// Marker substring appended to an injected rx-drop/stall error whose
/// consumed-and-discarded response read itself failed: the peer (or a
/// server-side fault plan) dropped the response first, and the client
/// fault would otherwise *mask* that loss from an exact-accounting
/// harness balancing both ledgers.
pub const MASKED_RESPONSE_LOSS: &str = "masked response loss";

/// The fault drawn for one client call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CallFault {
    /// Tear the outgoing request frame at a drawn point, then sever
    /// the connection. The request never executes.
    DropTx,
    /// Deliver the request whole, then sever before reading the
    /// response. The request executes; its outcome is lost.
    DropRx,
    /// The response is never read within the timeout (simulated
    /// immediately, no real sleep). The request executes; its outcome
    /// is lost.
    Stall,
    /// Split the outgoing frame into two writes. Absorbed by the
    /// byte-stream framing — the call must succeed normally.
    PartialWrite,
}

/// Probabilities (per 10 000 calls) and seed of a [`NetFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetFaultConfig {
    /// Seed for the plan's deterministic RNG.
    pub seed: u64,
    /// Mid-request connection-drop probability per call.
    pub drop_tx_per_10k: u32,
    /// Pre-response connection-drop probability per call.
    pub drop_rx_per_10k: u32,
    /// Response-stall probability per call.
    pub stall_per_10k: u32,
    /// Partial-write probability per call.
    pub partial_write_per_10k: u32,
}

/// Exact counts of every fault the plan injected.
#[derive(Debug, Default)]
pub struct NetFaultLedger {
    drops_tx: AtomicU64,
    drops_rx: AtomicU64,
    stalls: AtomicU64,
    partial_writes: AtomicU64,
}

/// A point-in-time snapshot of a [`NetFaultLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetFaultCounts {
    /// Mid-request drops injected (request never executed).
    pub drops_tx: u64,
    /// Pre-response drops injected (request executed, outcome lost).
    pub drops_rx: u64,
    /// Stalls injected (request executed, outcome lost).
    pub stalls: u64,
    /// Partial writes injected (absorbed by framing).
    pub partial_writes: u64,
}

impl NetFaultCounts {
    /// Injections that MUST surface as exactly one marked client
    /// error each (everything except partial writes, which are
    /// absorbed by design).
    pub fn must_surface(&self) -> u64 {
        self.drops_tx + self.drops_rx + self.stalls
    }
}

impl NetFaultLedger {
    /// Snapshot of the counters.
    pub fn counts(&self) -> NetFaultCounts {
        NetFaultCounts {
            drops_tx: self.drops_tx.load(Ordering::Relaxed),
            drops_rx: self.drops_rx.load(Ordering::Relaxed),
            stalls: self.stalls.load(Ordering::Relaxed),
            partial_writes: self.partial_writes.load(Ordering::Relaxed),
        }
    }
}

/// A seeded, armable network fault plan (see the module docs).
#[derive(Debug)]
pub struct NetFaultPlan {
    config: NetFaultConfig,
    armed: AtomicBool,
    rng: Mutex<SplitMix64>,
    ledger: NetFaultLedger,
}

impl NetFaultPlan {
    /// Builds a plan from its config. Starts **disarmed**.
    pub fn seeded(config: NetFaultConfig) -> Self {
        Self {
            config,
            armed: AtomicBool::new(false),
            rng: Mutex::new(SplitMix64::new(config.seed)),
            ledger: NetFaultLedger::default(),
        }
    }

    /// Arms or disarms injection. Disarmed plans draw nothing (and
    /// consume no randomness, preserving the armed schedule).
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Whether the plan is currently armed.
    pub(crate) fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }

    /// The exact injection ledger.
    pub fn ledger(&self) -> &NetFaultLedger {
        &self.ledger
    }

    /// Draws at most one fault for the next call, counting it in the
    /// ledger at draw time (an injected fault is *committed* — the
    /// caller must act on it).
    pub(crate) fn draw_call_fault(&self) -> Option<CallFault> {
        if !self.is_armed() {
            return None;
        }
        let mut rng = self.rng.lock().expect("net fault rng");
        if rng.chance(self.config.drop_tx_per_10k) {
            self.ledger.drops_tx.fetch_add(1, Ordering::Relaxed);
            return Some(CallFault::DropTx);
        }
        if rng.chance(self.config.drop_rx_per_10k) {
            self.ledger.drops_rx.fetch_add(1, Ordering::Relaxed);
            return Some(CallFault::DropRx);
        }
        if rng.chance(self.config.stall_per_10k) {
            self.ledger.stalls.fetch_add(1, Ordering::Relaxed);
            return Some(CallFault::Stall);
        }
        if rng.chance(self.config.partial_write_per_10k) {
            self.ledger.partial_writes.fetch_add(1, Ordering::Relaxed);
            return Some(CallFault::PartialWrite);
        }
        None
    }

    /// Where to tear a `frame_len`-byte frame: a strict prefix length
    /// in `[0, frame_len)`, so a torn request can never be mistaken
    /// for a delivered one.
    pub(crate) fn draw_tear_point(&self, frame_len: usize) -> usize {
        debug_assert!(frame_len > 0);
        let mut rng = self.rng.lock().expect("net fault rng");
        rng.gen_range(frame_len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(plan: &NetFaultPlan, calls: usize) -> Vec<Option<CallFault>> {
        (0..calls).map(|_| plan.draw_call_fault()).collect()
    }

    #[test]
    fn same_seed_replays_the_identical_fault_schedule() {
        let config = NetFaultConfig {
            seed: 42,
            drop_tx_per_10k: 400,
            drop_rx_per_10k: 400,
            stall_per_10k: 400,
            partial_write_per_10k: 400,
        };
        let a = NetFaultPlan::seeded(config);
        let b = NetFaultPlan::seeded(config);
        a.set_armed(true);
        b.set_armed(true);
        assert_eq!(drain(&a, 2000), drain(&b, 2000));
        assert_eq!(a.ledger().counts(), b.ledger().counts());
        assert_ne!(a.ledger().counts(), NetFaultCounts::default(), "rates chosen to actually fire");
    }

    #[test]
    fn disarmed_plans_inject_nothing_and_burn_no_randomness() {
        let config = NetFaultConfig {
            seed: 7,
            drop_tx_per_10k: 10_000,
            drop_rx_per_10k: 0,
            stall_per_10k: 0,
            partial_write_per_10k: 0,
        };
        let plan = NetFaultPlan::seeded(config);
        assert!(drain(&plan, 100).iter().all(Option::is_none));
        assert_eq!(plan.ledger().counts(), NetFaultCounts::default());
        plan.set_armed(true);
        // the armed schedule starts exactly where a never-disarmed one would
        assert_eq!(plan.draw_call_fault(), Some(CallFault::DropTx));
    }

    #[test]
    fn ledger_counts_every_draw_exactly_once() {
        let plan = NetFaultPlan::seeded(NetFaultConfig {
            seed: 3,
            drop_tx_per_10k: 1000,
            drop_rx_per_10k: 1000,
            stall_per_10k: 1000,
            partial_write_per_10k: 1000,
        });
        plan.set_armed(true);
        let draws = drain(&plan, 4000);
        let counts = plan.ledger().counts();
        let by_kind = |kind: CallFault| draws.iter().filter(|d| **d == Some(kind)).count() as u64;
        assert_eq!(counts.drops_tx, by_kind(CallFault::DropTx));
        assert_eq!(counts.drops_rx, by_kind(CallFault::DropRx));
        assert_eq!(counts.stalls, by_kind(CallFault::Stall));
        assert_eq!(counts.partial_writes, by_kind(CallFault::PartialWrite));
        assert!(counts.drops_tx > 0 && counts.drops_rx > 0);
        assert!(counts.stalls > 0 && counts.partial_writes > 0);
    }

    #[test]
    fn tear_points_are_strict_prefixes() {
        let plan = NetFaultPlan::seeded(NetFaultConfig {
            seed: 9,
            drop_tx_per_10k: 0,
            drop_rx_per_10k: 0,
            stall_per_10k: 0,
            partial_write_per_10k: 0,
        });
        for len in [1usize, 2, 9, 1000] {
            for _ in 0..50 {
                assert!(plan.draw_tear_point(len) < len);
            }
        }
    }
}
