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
//! * [`Published<T>`] — a dual-slot pin-counted cell. Readers *pin* the
//!   current slot (one atomic increment, re-checked against the slot
//!   index), dereference, and unpin. A publisher overwrites the *spare*
//!   slot — never the one readers are being directed at — waits for
//!   stragglers still pinning that spare to back off, then swings the
//!   slot index. Reclamation is immediate and exact: dropping the
//!   retired value happens on the *writer* thread, once the pin count
//!   of the spare proves no reader can still see it. Readers are
//!   wait-free when no publication is in flight and lock-free always
//!   (the pin loop retries at most once per concurrent publication).
//!
//! * [`AtomicIndex`] — a grow-only open-addressing hash index from
//!   `u32` ids to cell pointers, probed by readers with plain atomic
//!   loads (no read-modify-write at all on the lookup path). Inserts
//!   are writer-side (serialized by the owning registry shard's writer
//!   lock); growth installs a rebuilt table behind an `AtomicPtr` swap
//!   and *retires* the old table into a writer-side list that is only
//!   freed when the index drops. That sidesteps table reclamation
//!   entirely at a bounded cost: geometric growth keeps all retired
//!   generations together smaller than the live table.
//!
//! Memory-reclamation rule, in one sentence: **values are reclaimed by
//! the next-but-one publication (pin counts prove quiescence), tables
//! are never reclaimed before the index itself drops.**

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// One slot of a [`Published`] cell: a pin count and the value readers
/// pinning this slot may dereference.
struct Slot<T> {
    pinned: AtomicUsize,
    value: UnsafeCell<Option<T>>,
}

/// A dual-slot epoch-published cell: writers install whole new values,
/// readers pin-and-dereference without ever blocking on a writer.
///
/// Invariants that make the unsafe cells sound:
///
/// * `current` always names a slot holding a fully constructed value.
/// * A publisher only ever writes the slot `current` does *not* name,
///   and only after that slot's pin count has drained to zero. A
///   reader that pinned the spare mid-swing observes the index moved,
///   unpins, and retries — it never dereferences a slot the index no
///   longer names.
/// * Publications are serialized by an internal mutex, so there is at
///   most one writer mutating a slot at a time, and it is never the
///   slot readers are being directed at.
///
/// All atomics use `SeqCst`: publication is a rare, heavyweight event
/// (it clones or rebuilds a whole value) and the read-side cost of
/// `SeqCst` on x86/aarch64 is one fence on the increment it needs
/// anyway — not worth a subtler ordering argument.
pub struct Published<T> {
    current: AtomicUsize,
    slots: [Slot<T>; 2],
    writer: Mutex<()>,
    publishes: AtomicU64,
}

// SAFETY: the value cells are only written by one publisher at a time
// (the internal mutex) and only read through pins that provably exclude
// concurrent writes to the same slot (see the type-level invariants).
unsafe impl<T: Send + Sync> Send for Published<T> {}
unsafe impl<T: Send + Sync> Sync for Published<T> {}

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

impl<T> Published<T> {
    /// A cell initially publishing `value`.
    pub fn new(value: T) -> Self {
        Self {
            current: AtomicUsize::new(0),
            slots: [
                Slot { pinned: AtomicUsize::new(0), value: UnsafeCell::new(Some(value)) },
                Slot { pinned: AtomicUsize::new(0), value: UnsafeCell::new(None) },
            ],
            writer: Mutex::new(()),
            publishes: AtomicU64::new(0),
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

    /// Installs `value` as the published version and reclaims the
    /// retired one. Blocks only other publishers (serialized) and spins
    /// briefly for readers still pinning the *spare* slot — readers of
    /// the current value are untouched.
    pub fn publish(&self, value: T) {
        let _writer = self.writer.lock();
        let current = self.current.load(Ordering::SeqCst);
        let spare = 1 - current;
        // Drain stragglers that pinned the spare while it was current
        // (≥ one publication ago) and have not yet re-checked. They
        // back off in a handful of instructions; new pins all land on
        // `current`, so this wait cannot be prolonged by fresh readers.
        let mut spins = 0u32;
        while self.slots[spare].pinned.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: pin count of the spare is zero and stays zero (no
        // reader pins a slot `current` does not name without backing
        // off), and we are the only publisher. Overwriting drops the
        // retired value here, on the writer thread.
        unsafe {
            *self.slots[spare].value.get() = Some(value);
        }
        self.current.store(spare, Ordering::SeqCst);
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// Like [`Published::publish`], but hands the writer the retired
    /// slot to build the new value **in place** — `install` must leave
    /// it `Some`. This is the allocation-reusing form: cloning a model
    /// into the retired slot via `clone_from` keeps its buffers, so a
    /// steady stream of publications allocates nothing once both slots
    /// are warm.
    pub fn publish_with(&self, install: impl FnOnce(&mut Option<T>)) {
        let _writer = self.writer.lock();
        let current = self.current.load(Ordering::SeqCst);
        let spare = 1 - current;
        let mut spins = 0u32;
        while self.slots[spare].pinned.load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SAFETY: as in `publish` — the spare is unpinned and stays so,
        // and publications are serialized.
        unsafe {
            let slot = &mut *self.slots[spare].value.get();
            install(slot);
            assert!(slot.is_some(), "publish_with must install a value");
        }
        self.current.store(spare, Ordering::SeqCst);
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// How many publications have been installed (monotone; the
    /// initial value does not count).
    pub fn publish_count(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
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

/// Grow-only lock-free hash index from `u32` ids to stable references.
///
/// Readers probe with pure atomic loads; there is no read-side
/// read-modify-write, no lock, and no reclamation hazard (retired
/// tables live until the index drops — see the module docs). Inserts
/// must be externally serialized per index (the registry shard's
/// writer lock does this); `insert` is `&self` but assumes one writer.
///
/// # Contract
/// The index does **not** own the pointed-to values. Every pointer
/// passed to [`AtomicIndex::insert`] must stay valid and unmoved for
/// the index's whole lifetime — [`AtomicIndex::get`] hands out `&T`
/// on that basis. The one caller ([`crate::sum::SumRegistry`]) boxes
/// each cell, never removes an entry, and drops the index together
/// with the boxes; the type stays `pub(crate)` so the contract is
/// enforceable by inspection.
pub(crate) struct AtomicIndex<T> {
    table: AtomicPtr<Table>,
    /// Writer-side state: entry count + retired table generations.
    writer: Mutex<IndexWriter>,
    _marker: std::marker::PhantomData<*const T>,
}

struct IndexWriter {
    len: usize,
    // not `Vec<Table>`: readers may still be probing a retired table,
    // so each one must keep its heap address when this list grows
    #[allow(clippy::vec_box)]
    retired: Vec<Box<Table>>,
}

// SAFETY: the raw table pointer is only mutated under the writer mutex
// and only ever swapped toward bigger tables that stay alive; values
// are `Sync` to share across reader threads.
unsafe impl<T: Send + Sync> Send for AtomicIndex<T> {}
unsafe impl<T: Send + Sync> Sync for AtomicIndex<T> {}

impl<T> AtomicIndex<T> {
    pub(crate) fn new() -> Self {
        let table = Box::into_raw(Box::new(Table::with_capacity(16)));
        Self {
            table: AtomicPtr::new(table),
            writer: Mutex::new(IndexWriter { len: 0, retired: Vec::new() }),
            _marker: std::marker::PhantomData,
        }
    }

    /// Looks `key` up with atomic loads only.
    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<&T> {
        // SAFETY: the table pointer is always valid — it is only
        // replaced by another valid table, and retired tables are kept
        // alive until the index drops.
        let table = unsafe { &*self.table.load(Ordering::Acquire) };
        let stored = key as u64 + 1;
        let mut slot = table.slot_of(key);
        loop {
            let entry = &table.entries[slot];
            match entry.key.load(Ordering::Acquire) {
                k if k == stored => {
                    let ptr = entry.value.load(Ordering::Acquire);
                    // SAFETY: the key is only published after its value
                    // pointer (release/acquire pairs on both), and the
                    // insert contract guarantees the pointee outlives
                    // the index unmoved.
                    return NonNull::new(ptr.cast::<T>()).map(|p| unsafe { &*p.as_ptr() });
                }
                EMPTY_KEY => return None,
                _ => slot = (slot + 1) & table.mask,
            }
        }
    }

    /// Inserts `key → value`. Writer-side only: callers serialize all
    /// inserts to one index (the registry shard writer lock). Keys are
    /// inserted at most once; re-inserting an existing key replaces
    /// the pointer (unused in practice — cells are stable).
    pub(crate) fn insert(&self, key: u32, value: NonNull<T>) {
        let mut writer = self.writer.lock();
        // SAFETY: table pointer validity as in `get`; mutation of the
        // writer-side view is serialized by the mutex.
        let mut table = unsafe { &*self.table.load(Ordering::Relaxed) };
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
            let fresh = Box::into_raw(grown);
            let old = self.table.swap(fresh, Ordering::AcqRel);
            // SAFETY: `old` came from Box::into_raw in `new`/here and
            // is retired exactly once.
            writer.retired.push(unsafe { Box::from_raw(old) });
            table = unsafe { &*fresh };
        }
        let stored = key as u64 + 1;
        let mut slot = table.slot_of(key);
        loop {
            let entry = &table.entries[slot];
            match entry.key.load(Ordering::Relaxed) {
                k if k == stored => {
                    entry.value.store(value.as_ptr().cast(), Ordering::Release);
                    return;
                }
                EMPTY_KEY => {
                    // value first, then the key that makes readers
                    // probe into this entry — a reader that sees the
                    // key is guaranteed to see the pointer
                    entry.value.store(value.as_ptr().cast(), Ordering::Release);
                    entry.key.store(stored, Ordering::Release);
                    writer.len += 1;
                    return;
                }
                _ => slot = (slot + 1) & table.mask,
            }
        }
    }
}

impl<T> Drop for AtomicIndex<T> {
    fn drop(&mut self) {
        // SAFETY: exclusive access; the live table was created by
        // Box::into_raw and never freed elsewhere.
        unsafe {
            drop(Box::from_raw(self.table.load(Ordering::Relaxed)));
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
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn publish_and_pin_round_trip() {
        let cell = Published::new(vec![1, 2, 3]);
        assert_eq!(*cell.pin(), vec![1, 2, 3]);
        cell.publish(vec![4]);
        assert_eq!(*cell.pin(), vec![4]);
        cell.publish(vec![5, 6]);
        cell.publish(vec![7]);
        assert_eq!(cell.read_with(|v| v.len()), 1);
        assert_eq!(cell.publish_count(), 3);
    }

    #[test]
    fn holding_a_pin_does_not_block_readers_and_survives_two_publishes() {
        let cell = Published::new(10u64);
        let pin = cell.pin();
        cell.publish(20);
        // the old pin still reads the value it pinned
        assert_eq!(*pin, 10);
        // new readers see the new value while the old pin is held
        assert_eq!(*cell.pin(), 20);
        drop(pin);
        cell.publish(30);
        assert_eq!(*cell.pin(), 30);
    }

    #[test]
    fn concurrent_readers_only_ever_see_whole_values() {
        // values carry a self-checksum; a torn read would fail it
        let cell = Arc::new(Published::new((0u64, 0u64)));
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
            cell.publish((i, i.wrapping_mul(0x9E37)));
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
        let cells: Vec<Box<u64>> = (0..500u64).map(Box::new).collect();
        let index: AtomicIndex<u64> = AtomicIndex::new();
        for (i, cell) in cells.iter().enumerate() {
            index.insert(i as u32 * 3, NonNull::from(&**cell));
        }
        for (i, cell) in cells.iter().enumerate() {
            let found = index.get(i as u32 * 3).expect("inserted key");
            assert_eq!(*found, **cell);
        }
        assert!(index.get(1).is_none());
        assert!(index.get(499 * 3 + 1).is_none());
    }

    #[test]
    fn index_reads_race_inserts_without_tearing() {
        let cells: Vec<Box<u64>> = (0..2000u64).map(|i| Box::new(i * 7)).collect();
        let index: Arc<AtomicIndex<u64>> = Arc::new(AtomicIndex::new());
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
                                assert_eq!(*v, key as u64 * 7);
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
        for (i, cell) in cells.iter().enumerate() {
            index.insert(i as u32, NonNull::from(&**cell));
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().unwrap() > 0, "readers made progress");
        }
        for key in 0..2000u32 {
            assert!(index.get(key).is_some());
        }
    }

    #[test]
    fn pinned_readers_race_publishers() {
        let cell = Arc::new(Published::new(vec![0u64; 64]));
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
                        cell.publish(vec![i * 2 + w; 64]);
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
