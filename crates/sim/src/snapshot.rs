//! Epoch-stamped snapshot cells for live query serving.
//!
//! The tracking protocols answer count/frequency/rank queries continuously
//! while `k` sites stream updates, but a coordinator embedded in an executor
//! is single-owner mutable state: readers used to have to `quiesce()` the
//! executor (stop the world) before every query. This module removes that
//! restriction: the publisher (the thread that applies coordinator updates)
//! clones the coordinator into an immutable [`Snapshot`] and swaps it into
//! the cell; any number of reader threads, each with its own
//! [`QueryHandle`], answer queries against the frozen state while ingest
//! continues.
//!
//! # Sharing and reclamation
//!
//! The cell is an `Arc<Snapshot>` behind a mutex, plus the current epoch in
//! an atomic word. The mutex is a **leaf lock**: the publisher holds it for
//! one pointer swap, a handle for one reference-count increment, and
//! nothing else happens under it — no wait, no coordinator clone, no reader
//! closure, no free (the replaced `Arc` is dropped after the guard). Nothing
//! under it can panic, so a poisoned guard is simply recovered.
//!
//! A handle keeps the snapshot it last read. A read loads the epoch word
//! and runs its closure against the kept snapshot; only when a publish the
//! handle has not seen intervened does it take the lock, once, to fetch the
//! new `Arc`. So a read costs one atomic load, the lock is taken once per
//! handle per publish however fast the handle reads, and clones on
//! different threads do not write to a shared word between publishes. (A
//! cell without the per-handle snapshot — lock and `Arc::clone` on every
//! read — was measured: every read becomes a read-modify-write of one
//! shared line and eight contending readers ran 4× slower.)
//!
//! What follows from that, and callers may rely on or must allow for:
//!
//! * A parked or slow reader closure never delays `publish`: the closure
//!   runs outside the lock, on the reader's own reference.
//! * Reads are not lock-free. A handle preempted inside its once-per-publish
//!   reference-count increment delays the publisher, and other refreshing
//!   handles, until it is scheduled again.
//! * An idle handle pins the snapshot it last read until its next read or
//!   its drop — at most one snapshot per handle beyond the current one, so
//!   memory is `O(readers)` snapshots regardless of publish rate.
//! * The last holder frees a snapshot; that may be a reader thread rather
//!   than the publisher's.
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

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An immutable, epoch-stamped copy of coordinator state.
#[derive(Debug)]
pub struct Snapshot<C> {
    /// Publish sequence number: 0 for the cell's initial state, incremented
    /// by one on every [`SnapshotPublisher::publish`].
    pub epoch: u64,
    /// The frozen coordinator state.
    pub state: C,
}

struct Shared<C> {
    /// The latest published snapshot, behind the leaf lock.
    current: Mutex<Arc<Snapshot<C>>>,
    /// `current`'s epoch, stored (`Release`) after each swap's guard is
    /// gone and loaded (`Acquire`) by every read: a handle that sees a new
    /// value here takes the lock after the publisher has left it, and finds
    /// a snapshot of that epoch or a later one. Written by the publisher
    /// only.
    epoch: AtomicU64,
}

impl<C> Shared<C> {
    fn lock(&self) -> MutexGuard<'_, Arc<Snapshot<C>>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A reader handle starting from the current snapshot.
    fn handle(self: &Arc<Self>) -> QueryHandle<C> {
        let seen = Arc::clone(&self.lock());
        QueryHandle {
            shared: Arc::clone(self),
            seen: RefCell::new(seen),
        }
    }
}

/// Creates a snapshot cell seeded with `initial` at epoch 0, returning the
/// single writer and one reader handle. Additional readers are created by
/// cloning the handle (or via [`SnapshotPublisher::handle`]).
pub fn snapshot_cell<C>(initial: C) -> (SnapshotPublisher<C>, QueryHandle<C>) {
    let shared = Arc::new(Shared {
        current: Mutex::new(Arc::new(Snapshot {
            epoch: 0,
            state: initial,
        })),
        epoch: AtomicU64::new(0),
    });
    let handle = shared.handle();
    (SnapshotPublisher { shared }, handle)
}

/// The single writer of a snapshot cell.
pub struct SnapshotPublisher<C> {
    shared: Arc<Shared<C>>,
}

impl<C> SnapshotPublisher<C> {
    /// Publishes `state` as the new snapshot at the next epoch. Holds the
    /// cell's lock for the pointer swap only, so it waits for no reader
    /// closure — at most for a handle's reference-count increment.
    pub fn publish(&mut self, state: C) {
        let epoch = self.epoch() + 1;
        let fresh = Arc::new(Snapshot { epoch, state });
        let replaced = std::mem::replace(&mut *self.shared.lock(), fresh);
        self.shared.epoch.store(epoch, Ordering::Release);
        // Outside the lock: this frees the old state unless a handle still
        // reads it.
        drop(replaced);
    }

    /// The epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        // `publish(&mut self)` is the only store.
        self.shared.epoch.load(Ordering::Relaxed)
    }

    /// Creates another reader handle for this cell.
    pub fn handle(&self) -> QueryHandle<C> {
        self.shared.handle()
    }
}

/// The live-query hook of a coordinator's owner: the snapshot cell, once a
/// reader asked for one, and how many applies the published snapshot is
/// behind. The owner reports every apply and decides *when* to publish;
/// until the first [`LiveQuery::handle`] there is no cell and publishing
/// clones nothing, so runs without readers pay nothing.
pub struct LiveQuery<C> {
    /// The cell's writer, once a reader asked for one.
    cell: Option<SnapshotPublisher<C>>,
    stale: u32,
}

impl<C> Default for LiveQuery<C> {
    fn default() -> Self {
        Self {
            cell: None,
            stale: 0,
        }
    }
}

impl<C: Clone> LiveQuery<C> {
    /// A reader handle: the first call creates the cell, seeded with
    /// `state` at epoch 0; later calls mint handles of the same cell.
    pub fn handle(&mut self, state: &C) -> QueryHandle<C> {
        if let Some(publisher) = &self.cell {
            return publisher.handle();
        }
        let (publisher, handle) = snapshot_cell(state.clone());
        self.cell = Some(publisher);
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
        if let Some(publisher) = &mut self.cell {
            publisher.publish(state.clone());
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

/// A cloneable, sendable reader of a snapshot cell. Each clone keeps its own
/// reference to the snapshot it last read, so clones on different threads
/// read concurrently without contending; a single handle is not shareable
/// across threads (`!Sync`) — clone it instead.
pub struct QueryHandle<C> {
    shared: Arc<Shared<C>>,
    /// The snapshot the last read ran against; replaced by the first read
    /// after each publish.
    seen: RefCell<Arc<Snapshot<C>>>,
}

impl<C> QueryHandle<C> {
    /// Runs `f` against the latest published snapshot: one atomic load,
    /// plus the cell's lock for a reference-count increment on the first
    /// read after a publish. `f` runs outside the lock and never delays the
    /// publisher; if it panics the handle stays usable.
    ///
    /// Nested reads through the *same* handle (calling `read` from inside
    /// `f`) observe the outer read's snapshot again rather than a newer
    /// one; clone the handle if you need an independent nested read.
    pub fn read<R>(&self, f: impl FnOnce(&Snapshot<C>) -> R) -> R {
        // Fails only inside an outer read's `f`, which borrows `seen`.
        if let Ok(mut seen) = self.seen.try_borrow_mut() {
            if seen.epoch < self.shared.epoch.load(Ordering::Acquire) {
                // Two statements: the guard is gone before the assignment
                // drops, and perhaps frees, the snapshot seen so far.
                let latest = Arc::clone(&self.shared.lock());
                *seen = latest;
            }
        }
        f(&self.seen.borrow())
    }

    /// The epoch of the snapshot a read would currently observe.
    pub fn epoch(&self) -> u64 {
        self.read(|s| s.epoch)
    }
}

impl<C> Clone for QueryHandle<C> {
    fn clone(&self) -> Self {
        self.shared.handle()
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
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

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

    /// (The name predates the `Arc` cell, which has no slots: what it pins
    /// is that handles minted after a publish, by either route and after
    /// another handle was dropped, all read the current snapshot.)
    #[test]
    fn clones_see_published_state_and_recycle_slots() {
        let (mut publisher, handle) = snapshot_cell(String::from("a"));
        publisher.publish(String::from("b"));
        let h2 = handle.clone();
        let h3 = publisher.handle();
        assert_eq!(h2.read(|s| s.state.clone()), "b");
        assert_eq!(h3.read(|s| s.state.clone()), "b");
        drop(h2);
        let h4 = handle.clone();
        assert_eq!(h4.read(|s| s.epoch), 1);
    }

    #[test]
    fn nested_read_observes_outer_snapshot() {
        let (mut publisher, handle) = snapshot_cell(1u64);
        publisher.publish(2);
        let (outer, inner) = handle.read(|s| (s.state, handle.read(|t| t.state)));
        assert_eq!((outer, inner), (2, 2));
        // Also when a publish lands between the outer and the inner read.
        let (outer, inner) = handle.read(|s| {
            publisher.publish(3);
            (s.state, handle.read(|t| t.state))
        });
        assert_eq!((outer, inner), (2, 2));
        assert_eq!(handle.read(|s| s.state), 3);
    }

    /// (The name predates the `Arc` cell: what unwinding releases now is
    /// the handle's borrow of the snapshot it kept.)
    #[test]
    fn panicking_read_releases_hazard() {
        let (mut publisher, handle) = snapshot_cell(1u64);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle.read(|_| panic!("reader closure panicked"))
        }));
        assert!(caught.is_err());
        // Were the borrow still held, later reads would take the nested
        // branch and serve the pre-panic snapshot forever.
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

    /// Handles churn (clone/drop) while the publisher runs: minting a
    /// handle contends for the cell's lock with the publisher and with the
    /// other churners, and every fresh handle reads a whole snapshot.
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

    /// A reader blocked *inside* its closure holds no lock: the publisher
    /// runs on, the closure keeps the snapshot it started with, and the
    /// handle's next read is current.
    #[test]
    fn reader_parked_in_its_closure_does_not_block_publish() {
        let (mut publisher, handle) = snapshot_cell(0u64);
        let (parked_tx, parked_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel::<()>();
        let reader = thread::spawn(move || {
            let parked = handle.read(|s| {
                parked_tx.send(()).unwrap();
                resume_rx.recv().unwrap();
                (s.epoch, s.state)
            });
            (parked, handle.read(|s| (s.epoch, s.state)))
        });
        parked_rx.recv().unwrap();
        // On a thread of its own, so that a blocked publish fails the test
        // instead of hanging it.
        let (done_tx, done_rx) = mpsc::channel();
        let publishing = thread::spawn(move || {
            for e in 1..=1_000u64 {
                publisher.publish(e * 7);
            }
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("publish blocked behind a reader parked in its closure");
        publishing.join().unwrap();
        resume_tx.send(()).unwrap();
        let (parked, next) = reader.join().unwrap();
        assert_eq!(parked, (0, 0));
        assert_eq!(next, (1_000, 7_000));
    }

    /// A state that counts its constructions and its drops.
    struct Tracked<'a> {
        dropped: &'a AtomicU64,
    }

    impl<'a> Tracked<'a> {
        fn new(created: &AtomicU64, dropped: &'a AtomicU64) -> Self {
            created.fetch_add(1, Ordering::Relaxed);
            Tracked { dropped }
        }
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `R` idle handles, each last read at a different epoch, keep at most
    /// `R` snapshots alive beside the current one however many publishes
    /// pass; a handle's next read lets go of its old one; and whichever
    /// side drops first, every snapshot is freed exactly once.
    #[test]
    fn idle_handles_bound_live_snapshots_and_every_snapshot_is_freed_once() {
        const R: u64 = 3;
        const P: u64 = 50;
        for publisher_first in [true, false] {
            let (created, dropped) = (AtomicU64::new(0), AtomicU64::new(0));
            let state = || Tracked::new(&created, &dropped);
            let alive = || created.load(Ordering::Relaxed) - dropped.load(Ordering::Relaxed);

            let (mut publisher, first) = snapshot_cell(state());
            let mut handles = vec![first];
            while (handles.len() as u64) < R {
                publisher.publish(state());
                handles.push(publisher.handle());
            }
            for _ in 0..P {
                publisher.publish(state());
                assert!(alive() <= R + 1, "{} snapshots alive", alive());
            }
            assert_eq!(created.load(Ordering::Relaxed), R + P);
            for h in &handles {
                assert_eq!(h.epoch(), R - 1 + P);
            }
            assert_eq!(alive(), 1, "a handle that read the current pins no other");
            // Leave the handles on an old snapshot for the drops to free.
            publisher.publish(state());

            if publisher_first {
                drop(publisher);
                assert!(alive() >= 1, "handles outlive the publisher");
                drop(handles);
            } else {
                drop(handles);
                assert_eq!(alive(), 1, "the publisher keeps the current snapshot");
                drop(publisher);
            }
            assert_eq!(
                dropped.load(Ordering::Relaxed),
                created.load(Ordering::Relaxed)
            );
        }
    }

    /// Auto traits decide what crosses threads; pin what the executors
    /// rely on (a handle moves to its reader thread, a publisher lives in
    /// a coordinator shared by reference).
    #[test]
    fn handle_is_send_and_publisher_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<QueryHandle<u64>>();
        assert_send::<SnapshotPublisher<u64>>();
        assert_sync::<SnapshotPublisher<u64>>();
    }
}
