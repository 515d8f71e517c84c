//! Hand-rolled epoch publication: lock-free reads over writer-installed
//! snapshots.
//!
//! The serving contract this module carries is the paper's: the SPA
//! keeps scoring and ranking *while* the life-log stream mutates user
//! models, so the read path must never queue behind a writer. The
//! classic answer is RCU — writers prepare a new version off to the
//! side and *publish* it with one atomic pointer move; readers follow
//! the pointer without taking any lock and are guaranteed a fully
//! constructed version. The hard part of RCU is reclamation (when may
//! the old version be freed?), and with no crates.io access the whole
//! discipline is built here from two primitives:
//!
//! * [`Published<T, W>`] — a dual-slot pin-counted cell with a
//!   publisher lock. Readers *pin* the current slot (one atomic
//!   increment, re-checked against the slot index), dereference, and
//!   unpin. A publisher takes the cell's lock ([`Published::lock`]),
//!   which also guards the writer-side value `W` the published `T`s
//!   are derived from; it overwrites the *spare* slot — never the one
//!   readers are being directed at — waits for stragglers still
//!   pinning that spare to back off, then swings the slot index.
//!   Reclamation is immediate and exact: dropping the retired value
//!   happens on the *writer* thread, once the pin count of the spare
//!   proves no reader can still see it. Readers are wait-free when no
//!   publication is in flight and lock-free always (the pin loop
//!   retries at most once per concurrent publication).
//!
//! * `AtomicIndex` — a grow-only open-addressing hash index from
//!   `u32` ids to values it owns, probed by readers with plain atomic
//!   loads (no read-modify-write at all on the lookup path). Each value
//!   is boxed once at insert, never moves and is freed when the index
//!   drops. Growth installs a rebuilt table behind an `AtomicPtr` swap
//!   and *retires* the old table into a writer-side list that is only
//!   freed when the index drops. That sidesteps table reclamation
//!   entirely at a bounded cost: geometric growth keeps all retired
//!   generations together smaller than the live table.
//!
//! How the platform uses them: each of a [`crate::sum::SumRegistry`]'s
//! shards owns one `AtomicIndex` of user cells, each a
//! `Published<row, master>` — one allocation per user, holding the two
//! reader-visible advice-row slots and, behind the publisher lock, the
//! master model every write applies to. A write section takes the
//! registry shard's mutex first, then the publisher lock of each cell
//! it touches; nothing takes them in the other order. The global
//! selection function is a `Published<Arc<SelectionFunction>,
//! SelectionFunction>` of the same shape.
//!
//! Memory-reclamation rule, in one sentence: **values are reclaimed by
//! the next-but-one publication (pin counts prove quiescence); tables
//! and the index's values are never reclaimed before the index itself
//! drops.**

use parking_lot::{Mutex, MutexGuard};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// One slot of a [`Published`] cell: a pin count and the value readers
/// pinning this slot may dereference.
struct Slot<T> {
    pinned: AtomicUsize,
    value: UnsafeCell<Option<T>>,
}

/// A dual-slot epoch-published cell: writers install whole new values,
/// readers pin-and-dereference without ever blocking on a writer. The
/// publisher lock also guards a writer-side value `W` (by default
/// none) that readers of the published `T` never see.
///
/// Invariants that make the unsafe cells sound:
///
/// * `current` always names a slot holding a fully constructed value.
/// * A publisher only ever writes the slot `current` does *not* name,
///   and only after that slot's pin count has drained to zero. A
///   reader that pinned the spare mid-swing observes the index moved,
///   unpins, and retries — it never dereferences a slot the index no
///   longer names.
/// * Only the holder of the publisher lock ([`Publisher`]) publishes,
///   so there is at most one writer mutating a slot at a time, and it
///   is never the slot readers are being directed at.
///
/// All atomics use `SeqCst`: publication is a rare, heavyweight event
/// (it clones or rebuilds a whole value) and the read-side cost of
/// `SeqCst` on x86/aarch64 is one fence on the increment it needs
/// anyway — not worth a subtler ordering argument.
///
/// `repr(C)` keeps what readers touch together and ahead of the
/// writer-side value: both slots, then the slot index right behind the
/// second one.
#[repr(C)]
pub struct Published<T, W = ()> {
    slots: [Slot<T>; 2],
    current: AtomicUsize,
    writer: Mutex<W>,
}

// SAFETY: the value cells are only written by the publisher-lock holder
// and only read through pins that provably exclude concurrent writes to
// the same slot (see the type-level invariants). A publisher drops
// values another thread installed, so `T` must be `Send` as well as
// `Sync`; `W` is only ever reached through the lock.
unsafe impl<T: Send + Sync, W: Send> Sync for Published<T, W> {}

/// A pinned read guard: dereferences to the published value. Holding a
/// `Pin` only delays *future* publications (the publisher drains pins
/// before reusing a slot), never other readers. Keep pins short — the
/// intended pattern is pin, copy out what you need (an `Arc` clone, a
/// few floats), drop.
pub struct Pin<'a, T> {
    slot: &'a Slot<T>,
    value: &'a T,
}

impl<T> Deref for Pin<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        self.value
    }
}

impl<T> Drop for Pin<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.slot.pinned.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T, W> Published<T, W> {
    /// A cell initially publishing `value`, its publisher lock guarding
    /// `writer`.
    pub fn new(value: T, writer: W) -> Self {
        Self {
            current: AtomicUsize::new(0),
            slots: [
                Slot { pinned: AtomicUsize::new(0), value: UnsafeCell::new(Some(value)) },
                Slot { pinned: AtomicUsize::new(0), value: UnsafeCell::new(None) },
            ],
            writer: Mutex::new(writer),
        }
    }

    /// Pins the currently published value for reading. Lock-free: the
    /// loop retries only when a publication swung the slot index
    /// between the load and the pin, which bounds retries by the
    /// number of concurrent publications.
    #[inline]
    pub fn pin(&self) -> Pin<'_, T> {
        loop {
            let index = self.current.load(Ordering::SeqCst);
            let slot = &self.slots[index];
            slot.pinned.fetch_add(1, Ordering::SeqCst);
            if self.current.load(Ordering::SeqCst) == index {
                // SAFETY: while our pin is registered on the slot that
                // `current` names, no publisher may write it (a
                // publisher targets the other slot, and will not reuse
                // this one until the pin count drains to zero).
                let value =
                    unsafe { (*slot.value.get()).as_ref().expect("current slot is filled") };
                return Pin { slot, value };
            }
            slot.pinned.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Applies `f` to the published value under a short-lived pin.
    #[inline]
    pub fn read_with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.pin())
    }

    /// Takes the publisher lock, waiting for another holder. Readers of
    /// the published value never take it.
    #[inline]
    pub fn lock(&self) -> Publisher<'_, T, W> {
        Publisher { cell: self, writer: self.writer.lock() }
    }
}

/// The held publisher lock of a [`Published`] cell: dereferences to the
/// writer-side value and installs new published versions.
pub struct Publisher<'a, T, W> {
    cell: &'a Published<T, W>,
    writer: MutexGuard<'a, W>,
}

impl<T, W> Deref for Publisher<'_, T, W> {
    type Target = W;

    #[inline]
    fn deref(&self) -> &W {
        &self.writer
    }
}

impl<T, W> DerefMut for Publisher<'_, T, W> {
    #[inline]
    fn deref_mut(&mut self) -> &mut W {
        &mut self.writer
    }
}

impl<T, W> Publisher<'_, T, W> {
    /// Installs `make(writer)` as the published version and reclaims
    /// the retired one. Spins briefly for readers still pinning the
    /// *spare* slot — readers of the current value are untouched.
    pub fn publish(&mut self, make: impl FnOnce(&W) -> T) {
        self.publish_with(|writer, slot| *slot = Some(make(writer)));
    }

    /// Like [`Publisher::publish`], but hands `install` the retired
    /// slot to build the new value **in place** — it must leave it
    /// `Some`. This is the allocation-reusing form: refilling the
    /// retired value's buffers keeps them, so a steady stream of
    /// publications allocates nothing once both slots are warm.
    pub fn publish_with(&mut self, install: impl FnOnce(&W, &mut Option<T>)) {
        let cell = self.cell;
        let spare = 1 - cell.current.load(Ordering::SeqCst);
        // Drain stragglers that pinned the spare while it was current
        // (≥ one publication ago) and have not yet re-checked. They
        // back off in a handful of instructions; new pins all land on
        // `current`, so this wait cannot be prolonged by fresh readers.
        let mut spins = 0u32;
        while cell.slots[spare].pinned.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: the spare's pin count is zero and stays zero (no
        // reader pins a slot `current` does not name without backing
        // off), and holding the publisher lock makes this the only
        // publisher. Overwriting drops the retired value here, on the
        // writer thread.
        let slot = unsafe { &mut *cell.slots[spare].value.get() };
        install(&self.writer, slot);
        assert!(slot.is_some(), "publish_with must install a value");
        cell.current.store(spare, Ordering::SeqCst);
    }
}

const EMPTY_KEY: u64 = u64::MAX;

struct IndexEntry {
    /// `key + 1` once claimed, [`EMPTY_KEY`] while empty — `u64` so
    /// every `u32` id is representable without colliding with the
    /// sentinel.
    key: AtomicU64,
    value: AtomicPtr<()>,
}

struct Table {
    mask: usize,
    entries: Box<[IndexEntry]>,
}

impl Table {
    fn with_capacity(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        let entries = (0..capacity)
            .map(|_| IndexEntry {
                key: AtomicU64::new(EMPTY_KEY),
                value: AtomicPtr::new(std::ptr::null_mut()),
            })
            .collect();
        Self { mask: capacity - 1, entries }
    }

    #[inline]
    fn slot_of(&self, key: u32) -> usize {
        // Fibonacci hashing spreads the sequential ids user populations
        // actually have; linear probing from there.
        ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }
}

/// Grow-only lock-free hash index from `u32` ids to the values it owns.
///
/// Readers probe with pure atomic loads; there is no read-side
/// read-modify-write, no lock, and no reclamation hazard: a value is
/// boxed once at insert, is never replaced or moved, and is freed only
/// when the index drops, as are the retired tables (see the module
/// docs). Inserts take the index's writer lock.
///
/// Memory: 16 B per table slot plus each value's box. The live table
/// doubles when an insert would take it past 7/8 load, so it holds
/// 18.3–36.6 B per key, and every retired table together stays smaller
/// than it (16 slots fewer), so the tables cost under 73.2 B per key.
/// At ≈ 1,040 keys per index (100 k users over 3 engines × 32 registry
/// shards) that is 4,080 slots: ≈ 63 B per key.
pub(crate) struct AtomicIndex<T> {
    table: AtomicPtr<Table>,
    /// Writer-side state: entry count + retired table generations.
    writer: Mutex<IndexWriter>,
    values: PhantomData<T>,
}

struct IndexWriter {
    len: usize,
    // not `Vec<Table>`: readers may still be probing a retired table,
    // so each one must keep its heap address when this list grows
    #[allow(clippy::vec_box)]
    retired: Vec<Box<Table>>,
}

// SAFETY: readers on any thread get `&T` (so `T: Sync`), and a value
// inserted from one thread is dropped with the index on another (so
// `T: Send`); the table pointer is only swapped under the writer mutex,
// toward bigger tables, and every table stays alive until drop.
unsafe impl<T: Send + Sync> Sync for AtomicIndex<T> {}

impl<T> AtomicIndex<T> {
    pub(crate) fn new() -> Self {
        let table = Box::into_raw(Box::new(Table::with_capacity(16)));
        Self {
            table: AtomicPtr::new(table),
            writer: Mutex::new(IndexWriter { len: 0, retired: Vec::new() }),
            values: PhantomData,
        }
    }

    /// The live table.
    #[inline]
    fn table(&self) -> &Table {
        // SAFETY: the table pointer is always valid — it is only
        // replaced by another valid table, and retired tables are kept
        // alive until the index drops.
        unsafe { &*self.table.load(Ordering::Acquire) }
    }

    /// Looks `key` up with atomic loads only.
    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<&T> {
        let table = self.table();
        let stored = key as u64 + 1;
        let mut slot = table.slot_of(key);
        loop {
            let entry = &table.entries[slot];
            match entry.key.load(Ordering::Acquire) {
                k if k == stored => {
                    let value = entry.value.load(Ordering::Acquire).cast::<T>();
                    // SAFETY: the key is only published after its value
                    // pointer (release/acquire pairs on both), and the
                    // boxed value lives, unmoved, until the index drops.
                    return Some(unsafe { &*value });
                }
                EMPTY_KEY => return None,
                _ => slot = (slot + 1) & table.mask,
            }
        }
    }

    /// Every key present, in table order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.table().entries.iter().filter_map(|entry| match entry.key.load(Ordering::Acquire) {
            EMPTY_KEY => None,
            stored => Some((stored - 1) as u32),
        })
    }

    /// Takes ownership of `value` under `key` and returns the index's
    /// reference to it.
    ///
    /// # Panics
    /// When `key` is already present: an entry is never replaced, which
    /// is what lets [`AtomicIndex::get`] hand out references that live
    /// as long as the index.
    pub(crate) fn insert(&self, key: u32, value: T) -> &T {
        let mut writer = self.writer.lock();
        let mut table = self.table();
        // grow at 7/8 load so probe chains stay short for readers
        if (writer.len + 1) * 8 > (table.mask + 1) * 7 {
            let grown = Box::new(Table::with_capacity((table.mask + 1) * 2));
            for entry in table.entries.iter() {
                let k = entry.key.load(Ordering::Relaxed);
                if k != EMPTY_KEY {
                    let v = entry.value.load(Ordering::Relaxed);
                    let mut slot = grown.slot_of((k - 1) as u32);
                    while grown.entries[slot].key.load(Ordering::Relaxed) != EMPTY_KEY {
                        slot = (slot + 1) & grown.mask;
                    }
                    grown.entries[slot].value.store(v, Ordering::Relaxed);
                    grown.entries[slot].key.store(k, Ordering::Relaxed);
                }
            }
            let old = self.table.swap(Box::into_raw(grown), Ordering::AcqRel);
            // SAFETY: `old` came from Box::into_raw in `new`/here and
            // is retired exactly once.
            writer.retired.push(unsafe { Box::from_raw(old) });
            table = self.table();
        }
        let stored = key as u64 + 1;
        let mut slot = table.slot_of(key);
        loop {
            let entry = &table.entries[slot];
            match entry.key.load(Ordering::Relaxed) {
                k if k == stored => panic!("key {key} is already in the index"),
                EMPTY_KEY => {
                    let value = Box::into_raw(Box::new(value));
                    // value first, then the key that makes readers
                    // probe into this entry — a reader that sees the
                    // key is guaranteed to see the pointer
                    entry.value.store(value.cast(), Ordering::Release);
                    entry.key.store(stored, Ordering::Release);
                    writer.len += 1;
                    // SAFETY: boxed just above, freed only when the
                    // index drops
                    return unsafe { &*value };
                }
                _ => slot = (slot + 1) & table.mask,
            }
        }
    }
}

impl<T> Drop for AtomicIndex<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; the live table was created by
        // Box::into_raw and never freed elsewhere, and it holds every
        // key exactly once, each value pointer from Box::into_raw in
        // `insert` (retired tables hold copies, never freed through).
        unsafe {
            let table = Box::from_raw(*self.table.get_mut());
            for entry in table.entries.iter() {
                let value = entry.value.load(Ordering::Relaxed);
                if !value.is_null() {
                    drop(Box::from_raw(value.cast::<T>()));
                }
            }
        }
        // retired generations drop with the writer state
    }
}

/// Epoch-publication counters a serving deployment can watch: how many
/// snapshot installs the write side has performed. Reads never appear
/// here — they are invisible to the write side by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PublicationStats {
    /// Per-user advice rows installed by ingest/restore.
    pub model_publishes: u64,
    /// Selection-function snapshots installed by training/outcomes.
    pub selection_publishes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn publish_and_pin_round_trip() {
        let cell = Published::new(vec![1, 2, 3], ());
        assert_eq!(*cell.pin(), vec![1, 2, 3]);
        cell.lock().publish(|_| vec![4]);
        assert_eq!(*cell.pin(), vec![4]);
        cell.lock().publish(|_| vec![5, 6]);
        cell.lock().publish(|_| vec![7]);
        assert_eq!(cell.read_with(|v| v.len()), 1);
        // the publisher lock guards the writer-side value the
        // published one derives from
        let derived = Published::new(0u64, 10u64);
        let mut publisher = derived.lock();
        *publisher += 1;
        publisher.publish(|writer| writer * 2);
        drop(publisher);
        assert_eq!((*derived.pin(), *derived.lock()), (22, 11));
    }

    #[test]
    fn holding_a_pin_does_not_block_readers_and_survives_two_publishes() {
        let cell = Published::new(10u64, ());
        let pin = cell.pin();
        cell.lock().publish(|_| 20);
        // the old pin still reads the value it pinned
        assert_eq!(*pin, 10);
        // new readers see the new value while the old pin is held
        assert_eq!(*cell.pin(), 20);
        drop(pin);
        cell.lock().publish(|_| 30);
        assert_eq!(*cell.pin(), 30);
    }

    #[test]
    fn concurrent_readers_only_ever_see_whole_values() {
        // values carry a self-checksum; a torn read would fail it
        let cell = Arc::new(Published::new((0u64, 0u64), ()));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let pin = cell.pin();
                        let (a, b) = *pin;
                        assert_eq!(b, a.wrapping_mul(0x9E37), "torn value observed");
                        seen = seen.max(a);
                    }
                    seen
                })
            })
            .collect();
        for i in 1..=10_000u64 {
            cell.lock().publish(|_| (i, i.wrapping_mul(0x9E37)));
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            let seen = reader.join().unwrap();
            assert!(seen <= 10_000);
        }
        assert_eq!(*cell.pin(), (10_000, 10_000u64.wrapping_mul(0x9E37)));
    }

    #[test]
    fn index_inserts_and_finds_across_growth() {
        let index: AtomicIndex<u64> = AtomicIndex::new();
        for i in 0..500u64 {
            assert_eq!(*index.insert(i as u32 * 3, i), i);
        }
        for i in 0..500u64 {
            assert_eq!(index.get(i as u32 * 3), Some(&i));
        }
        assert!(index.get(1).is_none());
        assert!(index.get(499 * 3 + 1).is_none());
        let mut keys: Vec<u32> = index.keys().collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..500u32).map(|i| i * 3).collect::<Vec<_>>());
    }

    /// A value that counts its drops in `tally[slot]`.
    struct Counted {
        slot: usize,
        tally: Arc<Vec<AtomicUsize>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.tally[self.slot].fetch_add(1, Ordering::SeqCst);
        }
    }

    fn tally(len: usize) -> Arc<Vec<AtomicUsize>> {
        Arc::new((0..len).map(|_| AtomicUsize::new(0)).collect())
    }

    fn drops(tally: &[AtomicUsize]) -> Vec<usize> {
        tally.iter().map(|n| n.load(Ordering::SeqCst)).collect()
    }

    #[test]
    fn the_index_owns_its_values_and_refuses_a_present_key() {
        // 500 keys cross six growths (16 → 1024 slots); slot 500 of
        // the tally is the refused duplicate
        let tally = tally(501);
        let index = AtomicIndex::new();
        for key in 0..500u32 {
            index.insert(key, Counted { slot: key as usize, tally: Arc::clone(&tally) });
        }
        assert!(drops(&tally).iter().all(|&n| n == 0), "the index keeps what it holds");
        let duplicate = Counted { slot: 500, tally: Arc::clone(&tally) };
        let refused = catch_unwind(AssertUnwindSafe(|| index.insert(7, duplicate)));
        assert!(refused.is_err(), "inserting a present key panics");
        assert_eq!(drops(&tally)[500], 1, "the refused value is dropped, not leaked");
        assert_eq!(index.get(7).map(|v| v.slot), Some(7), "the present value stays");
        drop(index);
        assert!(drops(&tally).iter().all(|&n| n == 1), "every value dropped exactly once");
    }

    #[test]
    fn index_reads_race_inserts_without_tearing() {
        let tally = tally(2000);
        let index: Arc<AtomicIndex<Counted>> = Arc::new(AtomicIndex::new());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let index = Arc::clone(&index);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut hits = 0u64;
                    loop {
                        // at least one full sweep always runs, and one
                        // runs after every insert has landed
                        let stopping = stop.load(Ordering::Relaxed);
                        for key in 0..2000u32 {
                            if let Some(v) = index.get(key) {
                                assert_eq!(v.slot, key as usize);
                                hits += 1;
                            }
                        }
                        if stopping {
                            return hits;
                        }
                    }
                })
            })
            .collect();
        // 2000 keys cross eight growths (16 → 4096 slots)
        for key in 0..2000u32 {
            index.insert(key, Counted { slot: key as usize, tally: Arc::clone(&tally) });
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().unwrap() > 0, "readers made progress");
        }
        for key in 0..2000u32 {
            assert!(index.get(key).is_some());
        }
        assert!(drops(&tally).iter().all(|&n| n == 0));
        drop(Arc::into_inner(index).expect("readers are gone"));
        assert!(drops(&tally).iter().all(|&n| n == 1), "every value dropped exactly once");
    }

    /// Slots of the live table and of every retired table together.
    fn capacities<T>(index: &AtomicIndex<T>) -> (usize, usize) {
        let retired = index.writer.lock().retired.iter().map(|t| t.entries.len()).sum();
        (index.table().entries.len(), retired)
    }

    #[test]
    fn retired_tables_stay_smaller_than_the_live_one() {
        let index = AtomicIndex::new();
        for key in 0..100_000u32 {
            index.insert(key, ());
            let (live, retired) = capacities(&index);
            assert!(retired < live, "{retired} retired slots ≥ {live} live at {key}");
            assert!((key as usize + 1) * 8 <= live * 7, "live table past 7/8 load");
        }
    }

    #[test]
    fn pinned_readers_race_publishers() {
        let cell = Arc::new(Published::new(vec![0u64; 64], ()));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let pin = cell.pin();
                        let first = pin[0];
                        assert!(pin.iter().all(|&v| v == first), "torn vector");
                    }
                })
            })
            .collect();
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for i in 0..3_000u64 {
                        cell.lock().publish(|_| vec![i * 2 + w; 64]);
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().unwrap();
        }
    }
}
