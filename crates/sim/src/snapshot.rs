//! Lock-free, epoch-stamped snapshot cells for live query serving.
//!
//! The tracking protocols answer count/frequency/rank queries continuously
//! while `k` sites stream updates, but a coordinator embedded in an executor
//! is single-owner mutable state: readers used to have to `quiesce()` the
//! executor (stop the world) before every query. This module removes that
//! restriction with a hand-rolled arc-swap: the publisher (the thread that
//! applies coordinator updates) clones the coordinator into an immutable
//! [`Snapshot`] and swaps it into an [`AtomicPtr`]; unboundedly many reader
//! threads load the pointer and answer queries against the frozen state with
//! no locks on either side.
//!
//! # Reclamation: hazard pointers
//!
//! The hard part of a hand-rolled arc-swap is freeing the *old* snapshot:
//! a reader may still be dereferencing it after the swap. We use classic
//! hazard pointers:
//!
//! * Each [`QueryHandle`] owns a **hazard slot** — one `AtomicPtr` in an
//!   append-only registry shared through the cell.
//! * A reader publishes the pointer it is about to dereference into its slot
//!   (`SeqCst`), then re-validates that `current` still equals it (`SeqCst`).
//!   If not, it retries with the fresh pointer.
//! * The publisher swaps in the new snapshot (`SeqCst`), pushes the old
//!   pointer onto a private retired list, then scans all hazard slots
//!   (`SeqCst` loads of the list head, links, and each hazard) and frees
//!   every retired snapshot that no slot protects.
//!
//! This is Dekker-style store→load communication in both directions, so
//! *both* sides of *both* pairs must be `SeqCst` — acquire/release alone
//! permits the classic both-loads-see-stale outcome (the reader re-validates
//! against the old snapshot while the scan misses its hazard: use-after-
//! free). With every operation above in the single total order, any
//! reader/publisher race resolves safely: either the reader's hazard store
//! precedes the publisher's hazard load (the scan sees the hazard and defers
//! the free), or the publisher's swap precedes the reader's re-validation
//! load (the reader observes the new pointer and retries). The slot-list
//! push in `attach` is a `SeqCst` CAS for the same reason: a slot published
//! before its first hazard store cannot be skipped by a scan that the
//! hazard store precedes. Either way a snapshot is never freed while a
//! reader holds a reference into it.
//!
//! The retired list is bounded by the number of hazard slots plus one, so
//! memory use is `O(readers)` snapshots regardless of publish rate. If the
//! publisher drops while readers still hold hazards, its retired snapshots
//! are pushed onto a shared orphan stack and freed when the last handle
//! drops the cell.
//!
//! # Staleness guarantee
//!
//! Snapshots are stamped with a monotonically increasing **epoch** (the
//! initial state is epoch 0, each publish increments it). A read always
//! observes the most recently *published* snapshot, so an answer reflects a
//! prefix of applied updates and lags ingest by at most one epoch: the only
//! updates a reader can miss are those applied after the latest publish,
//! and every executor publishes at each update boundary (see
//! `dtrack_sim::exec`). After `quiesce()` the executors publish once more,
//! so fresh-after-quiesce answers are bit-identical to a stop-the-world
//! query. What an executor holds is a [`LiveQuery`] (inside its
//! [`CoordCore`](crate::step::CoordCore)); it chooses only the cadence.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

/// An immutable, epoch-stamped copy of coordinator state.
#[derive(Debug)]
pub struct Snapshot<C> {
    /// Publish sequence number: 0 for the cell's initial state, incremented
    /// by one on every [`SnapshotPublisher::publish`].
    pub epoch: u64,
    /// The frozen coordinator state.
    pub state: C,
}

/// One hazard slot in the append-only registry. A slot is owned by at most
/// one live [`QueryHandle`] at a time (`in_use`), and is recycled when the
/// handle drops. Slots are only deallocated when the whole cell drops.
struct Slot<C> {
    hazard: AtomicPtr<Snapshot<C>>,
    in_use: AtomicBool,
    next: AtomicPtr<Slot<C>>,
}

/// Node in the orphan stack: snapshots retired by a publisher that dropped
/// before it could prove them unhazarded.
struct Orphan<C> {
    snap: *mut Snapshot<C>,
    next: *mut Orphan<C>,
}

struct Shared<C> {
    /// The latest published snapshot. Never null.
    current: AtomicPtr<Snapshot<C>>,
    /// Head of the append-only hazard-slot registry.
    slots: AtomicPtr<Slot<C>>,
    /// Snapshots left behind by a dropped publisher; freed in `Drop`.
    orphans: AtomicPtr<Orphan<C>>,
}

// The raw pointers inside `Shared` manage heap allocations of `Snapshot<C>`
// and bookkeeping nodes; snapshots move from the publisher thread to reader
// threads (C: Send) and are dereferenced concurrently by many readers
// (C: Sync).
unsafe impl<C: Send + Sync> Send for Shared<C> {}
unsafe impl<C: Send + Sync> Sync for Shared<C> {}

impl<C> Drop for Shared<C> {
    fn drop(&mut self) {
        // Runs only once the last publisher/handle is gone, so no thread can
        // hold a hazard or dereference any snapshot.
        unsafe {
            drop(Box::from_raw(self.current.load(Ordering::Relaxed)));
            let mut orphan = self.orphans.load(Ordering::Relaxed);
            while !orphan.is_null() {
                let node = Box::from_raw(orphan);
                drop(Box::from_raw(node.snap));
                orphan = node.next;
            }
            let mut slot = self.slots.load(Ordering::Relaxed);
            while !slot.is_null() {
                let node = Box::from_raw(slot);
                slot = node.next.load(Ordering::Relaxed);
            }
        }
    }
}

/// Creates a snapshot cell seeded with `initial` at epoch 0, returning the
/// single writer and one reader handle. Additional readers are created by
/// cloning the handle (or via [`SnapshotPublisher::handle`]).
pub fn snapshot_cell<C>(initial: C) -> (SnapshotPublisher<C>, QueryHandle<C>) {
    let first = Box::into_raw(Box::new(Snapshot {
        epoch: 0,
        state: initial,
    }));
    let shared = Arc::new(Shared {
        current: AtomicPtr::new(first),
        slots: AtomicPtr::new(ptr::null_mut()),
        orphans: AtomicPtr::new(ptr::null_mut()),
    });
    let publisher = SnapshotPublisher {
        shared: Arc::clone(&shared),
        retired: Vec::new(),
        epoch: 0,
    };
    let handle = QueryHandle::attach(shared);
    (publisher, handle)
}

/// The single writer of a snapshot cell. `publish` swaps in a new snapshot
/// and reclaims old ones that no reader still protects.
pub struct SnapshotPublisher<C> {
    shared: Arc<Shared<C>>,
    /// Replaced snapshots not yet proven unhazarded. Bounded by the number
    /// of hazard slots + 1 (each scan frees everything unprotected).
    retired: Vec<*mut Snapshot<C>>,
    epoch: u64,
}

// Held by the `LiveQuery` of whatever owns the coordinator, possibly on
// its own thread; see `Shared`. `Sync` is sound because the `&self`
// methods read a plain field (`epoch`) or go through the cell's atomics
// (`handle`) — all mutation requires `&mut self`, which the borrow
// checker keeps exclusive.
unsafe impl<C: Send + Sync> Send for SnapshotPublisher<C> {}
unsafe impl<C: Send + Sync> Sync for SnapshotPublisher<C> {}

impl<C> SnapshotPublisher<C> {
    /// Publishes `state` as the new snapshot at the next epoch. Lock-free;
    /// never blocks on readers.
    pub fn publish(&mut self, state: C) {
        self.epoch += 1;
        let fresh = Box::into_raw(Box::new(Snapshot {
            epoch: self.epoch,
            state,
        }));
        // SeqCst, not AcqRel: the swap must take part in the single total
        // order that the Dekker-style safety argument below relies on
        // (swap → hazard scan vs. hazard store → current re-load).
        let old = self.shared.current.swap(fresh, Ordering::SeqCst);
        self.retired.push(old);
        self.scan();
    }

    /// The epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Creates another reader handle for this cell.
    pub fn handle(&self) -> QueryHandle<C> {
        QueryHandle::attach(Arc::clone(&self.shared))
    }

    /// Frees every retired snapshot that no hazard slot currently protects.
    fn scan(&mut self) {
        self.retired.retain(|&snap| {
            // The head/next loads are SeqCst so a slot pushed (SeqCst CAS
            // in `attach`) before a reader's hazard store cannot be missed
            // by a scan that the hazard store precedes in the total order.
            let mut slot = self.shared.slots.load(Ordering::SeqCst);
            while !slot.is_null() {
                let node = unsafe { &*slot };
                if node.hazard.load(Ordering::SeqCst) == snap {
                    return true; // still protected — keep for a later scan
                }
                slot = node.next.load(Ordering::SeqCst);
            }
            unsafe { drop(Box::from_raw(snap)) };
            false
        });
    }
}

impl<C> Drop for SnapshotPublisher<C> {
    fn drop(&mut self) {
        self.scan();
        // Whatever is still hazarded outlives us: hand it to the cell, which
        // frees it when the last handle drops.
        for &snap in &self.retired {
            let node = Box::into_raw(Box::new(Orphan {
                snap,
                next: ptr::null_mut(),
            }));
            let mut head = self.shared.orphans.load(Ordering::Acquire);
            loop {
                unsafe { (*node).next = head };
                match self.shared.orphans.compare_exchange_weak(
                    head,
                    node,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(h) => head = h,
                }
            }
        }
    }
}

/// The live-query hook of a coordinator's owner: the snapshot cell, once a
/// reader asked for one, and how many applies the published snapshot is
/// behind. The owner reports every apply and decides *when* to publish;
/// until the first [`LiveQuery::handle`] there is no cell and publishing
/// clones nothing, so runs without readers pay nothing.
pub struct LiveQuery<C> {
    cell: Option<LiveCell<C>>,
    stale: u32,
}

/// The cell's writer and `C::clone`, captured when the first handle is
/// minted — the one place `C: Clone` is known.
struct LiveCell<C> {
    publisher: SnapshotPublisher<C>,
    clone: fn(&C) -> C,
}

impl<C> Default for LiveQuery<C> {
    fn default() -> Self {
        Self {
            cell: None,
            stale: 0,
        }
    }
}

impl<C> LiveQuery<C> {
    /// A reader handle: the first call creates the cell, seeded with
    /// `state` at epoch 0; later calls mint handles of the same cell.
    pub fn handle(&mut self, state: &C) -> QueryHandle<C>
    where
        C: Clone,
    {
        if let Some(cell) = &self.cell {
            return cell.publisher.handle();
        }
        let (publisher, handle) = snapshot_cell(state.clone());
        self.cell = Some(LiveCell {
            publisher,
            clone: C::clone,
        });
        handle
    }

    /// One more apply the published snapshot has not seen.
    pub fn mark_stale(&mut self) {
        self.stale += 1;
    }

    /// Applies since the last publish.
    pub fn stale(&self) -> u32 {
        self.stale
    }

    /// Publish `state` as a fresh epoch (nothing without a handle).
    pub fn publish(&mut self, state: &C) {
        if let Some(cell) = &mut self.cell {
            cell.publisher.publish((cell.clone)(state));
        }
        self.stale = 0;
    }

    /// [`LiveQuery::publish`] if an apply happened since the last one —
    /// epochs follow applies, and a silent protocol costs no clones.
    pub fn publish_stale(&mut self, state: &C) {
        if self.stale > 0 {
            self.publish(state);
        }
    }
}

/// A cloneable, sendable reader of a snapshot cell. Each clone owns its own
/// hazard slot, so clones on different threads read concurrently without
/// contending; a single handle is not shareable across threads (`!Sync`) —
/// clone it instead.
pub struct QueryHandle<C> {
    shared: Arc<Shared<C>>,
    slot: *mut Slot<C>,
}

// A handle migrates between threads freely (the slot is only touched through
// atomics), but is !Sync by construction: concurrent `read`s through one
// slot would corrupt the hazard protocol. Raw-pointer fields already make it
// !Sync automatically; we only opt back into Send.
unsafe impl<C: Send + Sync> Send for QueryHandle<C> {}

impl<C> QueryHandle<C> {
    fn attach(shared: Arc<Shared<C>>) -> Self {
        // Recycle a free slot if any handle released one, else append.
        let mut slot = shared.slots.load(Ordering::Acquire);
        while !slot.is_null() {
            let node = unsafe { &*slot };
            if node
                .in_use
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return QueryHandle { shared, slot };
            }
            slot = node.next.load(Ordering::Acquire);
        }
        let fresh = Box::into_raw(Box::new(Slot {
            hazard: AtomicPtr::new(ptr::null_mut()),
            in_use: AtomicBool::new(true),
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        let mut head = shared.slots.load(Ordering::Acquire);
        loop {
            unsafe { (*fresh).next.store(head, Ordering::Relaxed) };
            // SeqCst so the slot's publication is ordered before this
            // handle's first hazard store in the total order — a scan the
            // hazard store precedes must traverse through this slot.
            match shared.slots.compare_exchange_weak(
                head,
                fresh,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        QueryHandle {
            shared,
            slot: fresh,
        }
    }

    /// Runs `f` against the latest published snapshot. Lock-free: retries
    /// only if a publish races the hazard acquisition, and never blocks the
    /// publisher.
    ///
    /// Nested reads through the *same* handle (calling `read` from inside
    /// `f`) observe the outer read's snapshot again rather than acquiring a
    /// second hazard; clone the handle if you need an independent nested
    /// read.
    pub fn read<R>(&self, f: impl FnOnce(&Snapshot<C>) -> R) -> R {
        let slot = unsafe { &*self.slot };
        let already = slot.hazard.load(Ordering::Relaxed);
        if !already.is_null() {
            // Nested read: the outer `read` holds the hazard; reuse its
            // snapshot so we neither clobber the slot nor race reclamation.
            return f(unsafe { &*already });
        }
        // Clears the hazard on unwind too: a panicking `f` must not leave
        // the slot pinned (later reads would take the nested branch and
        // serve the stale snapshot forever, which could never be freed).
        struct HazardGuard<'a, C>(&'a Slot<C>);
        impl<C> Drop for HazardGuard<'_, C> {
            fn drop(&mut self) {
                self.0.hazard.store(ptr::null_mut(), Ordering::Release);
            }
        }
        let _guard = HazardGuard(slot);
        let mut snap = self.shared.current.load(Ordering::Acquire);
        loop {
            slot.hazard.store(snap, Ordering::SeqCst);
            let check = self.shared.current.load(Ordering::SeqCst);
            if check == snap {
                break;
            }
            snap = check;
        }
        f(unsafe { &*snap })
    }

    /// The epoch of the snapshot a read would currently observe.
    pub fn epoch(&self) -> u64 {
        self.read(|s| s.epoch)
    }
}

impl<C> Clone for QueryHandle<C> {
    fn clone(&self) -> Self {
        QueryHandle::attach(Arc::clone(&self.shared))
    }
}

impl<C> Drop for QueryHandle<C> {
    fn drop(&mut self) {
        let slot = unsafe { &*self.slot };
        slot.hazard.store(ptr::null_mut(), Ordering::Release);
        slot.in_use.store(false, Ordering::Release);
    }
}

impl<C> std::fmt::Debug for QueryHandle<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("epoch", &self.epoch())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread;

    #[test]
    fn initial_state_is_epoch_zero() {
        let (publisher, handle) = snapshot_cell(41u64);
        assert_eq!(handle.read(|s| (s.epoch, s.state)), (0, 41));
        assert_eq!(publisher.epoch(), 0);
    }

    #[test]
    fn publish_advances_epoch_and_state() {
        let (mut publisher, handle) = snapshot_cell(0u64);
        for i in 1..=100u64 {
            publisher.publish(i * 10);
            assert_eq!(handle.read(|s| (s.epoch, s.state)), (i, i * 10));
        }
    }

    #[test]
    fn clones_see_published_state_and_recycle_slots() {
        let (mut publisher, handle) = snapshot_cell(String::from("a"));
        publisher.publish(String::from("b"));
        let h2 = handle.clone();
        let h3 = publisher.handle();
        assert_eq!(h2.read(|s| s.state.clone()), "b");
        assert_eq!(h3.read(|s| s.state.clone()), "b");
        drop(h2);
        // A new clone should recycle the freed slot rather than leak one.
        let h4 = handle.clone();
        assert_eq!(h4.read(|s| s.epoch), 1);
    }

    #[test]
    fn nested_read_observes_outer_snapshot() {
        let (mut publisher, handle) = snapshot_cell(1u64);
        publisher.publish(2);
        let (outer, inner) = handle.read(|s| (s.state, handle.read(|t| t.state)));
        assert_eq!((outer, inner), (2, 2));
    }

    #[test]
    fn panicking_read_releases_hazard() {
        let (mut publisher, handle) = snapshot_cell(1u64);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.read(|_| panic!("reader closure panicked"))
        }));
        assert!(caught.is_err());
        // The hazard must have been cleared on unwind: a later read takes
        // the normal path and observes newly published state, and the
        // pre-panic snapshot is reclaimable (publish twice so it is both
        // retired and scanned).
        publisher.publish(2);
        publisher.publish(3);
        assert_eq!(handle.read(|s| (s.epoch, s.state)), (2, 3));
    }

    #[test]
    fn publisher_drop_then_reads_then_cell_drop() {
        let (mut publisher, handle) = snapshot_cell(vec![0u8; 64]);
        publisher.publish(vec![1u8; 64]);
        drop(publisher);
        assert_eq!(handle.read(|s| s.state[0]), 1);
        assert_eq!(handle.epoch(), 1);
    }

    /// A state whose `Clone` counts, to see what the live-query hook copies.
    struct Counted<'a>(u64, &'a AtomicU64);

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            self.1.fetch_add(1, Ordering::Relaxed);
            Counted(self.0, self.1)
        }
    }

    #[test]
    fn live_query_without_a_handle_clones_nothing() {
        let clones = AtomicU64::new(0);
        let mut live = LiveQuery::default();
        let state = Counted(7, &clones);
        live.mark_stale();
        live.publish_stale(&state);
        live.publish(&state);
        assert_eq!(clones.load(Ordering::Relaxed), 0);
        assert_eq!(live.stale(), 0);
    }

    #[test]
    fn live_query_first_handle_seeds_epoch_zero_and_later_handles_share_the_cell() {
        let clones = AtomicU64::new(0);
        let mut live = LiveQuery::default();
        live.mark_stale(); // applies before the first handle need no publish
        let first = live.handle(&Counted(7, &clones));
        assert_eq!(first.read(|s| (s.epoch, s.state.0)), (0, 7));
        assert_eq!(clones.load(Ordering::Relaxed), 1);

        // A later handle clones no state: it reads the cell the first made.
        let second = live.handle(&Counted(8, &clones));
        assert_eq!(clones.load(Ordering::Relaxed), 1);
        assert_eq!(second.read(|s| (s.epoch, s.state.0)), (0, 7));
        live.publish(&Counted(9, &clones));
        assert_eq!(first.read(|s| (s.epoch, s.state.0)), (1, 9));
        assert_eq!(second.read(|s| (s.epoch, s.state.0)), (1, 9));
    }

    #[test]
    fn live_query_publish_stale_after_no_apply_publishes_nothing() {
        let clones = AtomicU64::new(0);
        let mut live = LiveQuery::default();
        let handle = live.handle(&Counted(1, &clones));
        live.publish_stale(&Counted(2, &clones));
        assert_eq!(handle.read(|s| (s.epoch, s.state.0)), (0, 1));
        assert_eq!(clones.load(Ordering::Relaxed), 1);

        live.mark_stale();
        live.mark_stale();
        assert_eq!(live.stale(), 2);
        live.publish_stale(&Counted(3, &clones));
        assert_eq!(handle.read(|s| (s.epoch, s.state.0)), (1, 3));
        assert_eq!(live.stale(), 0);
        // Published, so current again: nothing more to do.
        live.publish_stale(&Counted(4, &clones));
        assert_eq!(handle.epoch(), 1);
    }

    /// Readers race a fast publisher; every observed (epoch, state) pair
    /// must be internally consistent and epochs monotone per reader.
    #[test]
    fn concurrent_readers_observe_consistent_monotone_snapshots() {
        const PUBLISHES: u64 = if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        };
        let (mut publisher, handle) = snapshot_cell((0u64, 0u64));
        let reads = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let h = handle.clone();
            let reads = Arc::clone(&reads);
            joins.push(thread::spawn(move || {
                let mut last = 0u64;
                let mut n = 0u64;
                while h.read(|s| {
                    // state is (epoch, epoch * 3): torn reads would break this.
                    assert_eq!(s.state, (s.epoch, s.epoch * 3));
                    assert!(s.epoch >= last, "epoch went backwards");
                    last = s.epoch;
                    n += 1;
                    s.epoch < PUBLISHES
                }) {}
                reads.fetch_add(n, Ordering::Relaxed);
            }));
        }
        for e in 1..=PUBLISHES {
            publisher.publish((e, e * 3));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert!(reads.load(Ordering::Relaxed) >= 4);
    }

    /// Handles churn (clone/drop) while the publisher runs: exercises slot
    /// recycling and orphan handoff without leaks or UB (run under the
    /// normal test harness; asan/miri would flag misuse).
    #[test]
    fn handle_churn_races_publisher() {
        const ROUNDS: u64 = if cfg!(debug_assertions) {
            2_000
        } else {
            50_000
        };
        let (mut publisher, handle) = snapshot_cell(0u64);
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for _ in 0..3 {
            let h = handle.clone();
            let stop = Arc::clone(&stop);
            joins.push(thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let fresh = h.clone();
                    let a = fresh.read(|s| (s.epoch, s.state));
                    assert_eq!(a.0, a.1);
                    drop(fresh);
                }
            }));
        }
        for e in 1..=ROUNDS {
            publisher.publish(e);
        }
        stop.store(true, Ordering::Relaxed);
        for j in joins {
            j.join().unwrap();
        }
        drop(publisher);
        assert_eq!(handle.read(|s| s.state), ROUNDS);
    }
}
