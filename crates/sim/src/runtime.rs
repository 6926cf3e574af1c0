//! Concurrent channel-based runtime.
//!
//! One OS thread per site plus one coordinator thread. Unlike
//! [`crate::Runner`], communication here is *not* instant — messages are
//! genuinely in flight while new elements arrive — so this runtime tests
//! that the protocols degrade gracefully off the paper's idealized
//! model, and it is the executor the bench harness uses to measure raw
//! ingest throughput. [`ChannelRuntime::quiesce`] restores a consistent
//! cut for querying.
//!
//! The runtime is a composition, not an implementation of either role:
//! each site thread owns a [`SiteHalf`], the coordinator thread owns the
//! [`CoordHalf`], and they talk over [`in_process_links`] — the site
//! step, the apply loop, urgent routing, the fairness credit, snapshot
//! publication, the quiesce barrier and all word/byte accounting are
//! [`crate::transport`]'s (see its module docs for the delivery,
//! fairness and deadlock-freedom arguments). What this module adds:
//!
//! ```text
//!              data ring (bounded, backpressure)        in-process link
//!   producers ══════════════════════════════▶ site thread ◀────────▶ coordinator
//!   feed / feed_batch / feed_at               pop → SiteHalf::feed     thread
//!                                                                        ▲
//!   with_coord / query_handle / stats / quiesce / shutdown ── command lane
//! ```
//!
//! * **Data rings** (producer → site): one bounded [`crate::ring`] ring
//!   per site, built on the site link's wake cell so one park covers
//!   both inputs. Elements travel raw — no per-element enum wrapping,
//!   boxing, or `Vec` — and the batched path moves whole staging buffers
//!   in with one tail-CAS per run of free slots. A full ring blocks the
//!   producer (spin, then yield until half of it is free): real
//!   backpressure. A site that exits (even by panic) closes its ring,
//!   which releases past and future producers with an error instead of
//!   a hang.
//! * **`processed` cursors**: each site publishes how many elements it
//!   has fully processed (ups on the wire); quiesce and shutdown wake
//!   every site that has a backlog, wait for each cursor to reach the
//!   ring's pushed count, and bail out if the site thread has exited —
//!   no wait on a dead counterparty.
//! * **Command lane** (runtime handle → coordinator thread): an
//!   unbounded queue on the coordinator link's wake cell carrying
//!   closures to run against the [`CoordHalf`]. The thread takes a
//!   command, applies what was queued on the link ([`CoordHalf::pump`]),
//!   then serves it: a command observes every up sent before its issue.
//!
//! Idle threads park, and every writer of a queue a thread serves wakes
//! its cell after publishing — with one exception, made so that `feed`
//! does not pay a futex syscall per few elements for a site that sleeps
//! between them. A site whose ring and control lane are both empty
//! spins, then — if it has popped an element since it last slept —
//! *polls its ring*: up to 16 timed naps of 50 µs (plus the kernel's
//! timer slack), during which a data push does not wake it unless the
//! ring is half full (2048 elements). An element is in the ring when
//! `feed` returns and is picked up one nap later at worst; after ≈ 1–2 ms
//! without one the site parks untimed and the next push wakes it as
//! before, so an idle runtime takes no timer interrupts. Control sends,
//! credit releases, `quiesce` and `shutdown` wake a napping site at
//! once ([`crate::ring`]'s module docs have the protocol and its
//! lost-wakeup argument). The coordinator never naps: it parks while
//! its up lanes and command lane are empty, and every send wakes it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::protocol::{Protocol, Site, SiteId};
use crate::ring::{mpsc, ring, CachePadded, MpscSender, RingConsumer, RingProducer};
use crate::snapshot::QueryHandle;
use crate::stats::{CommStats, SpaceStats};
use crate::transport::{in_process_links, CoordHalf, InProcCoordLink, InProcSiteLink, SiteHalf};

/// Capacity of each site's inbound *data* ring. Once a site falls this
/// many elements behind, producers ([`ChannelRuntime::feed`] and
/// [`ChannelRuntime::feed_batch`]) block until it catches up, so
/// unbounded producer speed cannot exhaust memory. Control messages
/// bypass this ring entirely (they travel the link), which rules out
/// deadlock cycles.
///
/// A push wakes a napping site once half the ring is backed up
/// ([`crate::ring`]), so the ring must hold twice what a site is allowed
/// to sleep through: 2048 elements is several naps' arrivals even on the
/// batched path (≈ 5 M elements/s per site), and the other 2048 keep the
/// producer pushing while the site gets up instead of meeting the
/// full-ring wait right behind the wake. At 1024 the two collided and
/// the batched workloads lost 7–10 %; at 4096 they gain.
/// 64 KiB of `u64` slots per site.
const SITE_QUEUE_CAP: usize = 4096;

/// Elements per staging-buffer flush on the batched ingest path. Small
/// enough that capacity-based backpressure still engages, large enough
/// to amortize the per-run claim CAS.
const BATCH_CHUNK: usize = 256;

type SiteItem<P> = <<P as Protocol>::Site as Site>::Item;
type SiteUp<P> = <<P as Protocol>::Site as Site>::Up;
type SiteDown<P> = <<P as Protocol>::Site as Site>::Down;
/// The coordinator half as the coordinator thread runs it.
type Half<P> = CoordHalf<<P as Protocol>::Coord, InProcCoordLink<SiteUp<P>, SiteDown<P>>>;

/// What the runtime handle asks of the coordinator thread.
enum Cmd<H> {
    Run(Box<dyn FnOnce(&mut H) + Send>),
    Stop,
}

/// What a site thread shares with the runtime handle.
#[derive(Default)]
struct SiteProgress {
    /// Fully processed elements: stored *after* `SiteHalf::feed`
    /// returned, i.e. after the element's ups are on the wire.
    processed: AtomicU64,
    /// Peak `space_words`, sampled after every step.
    space_peak: AtomicU64,
}

/// Concurrent executor: `k` site threads and one coordinator thread.
pub struct ChannelRuntime<P: Protocol> {
    data_txs: Vec<RingProducer<SiteItem<P>>>,
    cmd_tx: MpscSender<Cmd<Half<P>>>,
    site_threads: Vec<JoinHandle<()>>,
    /// Yields the coordinator half's accounting; `None` once joined.
    coord_thread: Option<JoinHandle<CommStats>>,
    progress: Arc<Vec<CachePadded<SiteProgress>>>,
    /// Per-site staging buffers reused across [`ChannelRuntime::feed_batch`]
    /// calls — the batched path allocates nothing in steady state.
    staging: Vec<Vec<SiteItem<P>>>,
    /// Wall-clock duration of one schedule tick for [`ChannelRuntime::feed_at`].
    tick: Duration,
    /// Wall-clock instant of schedule tick 0, anchored lazily by the
    /// first `feed_at` call.
    pace_anchor: Option<Instant>,
}

/// One site thread: pop the data ring into [`SiteHalf::feed`]; when the
/// ring is empty, serve control until an element arrives or the
/// coordinator says stop. Returning drops `data_rx`, which closes the
/// ring: any producer waiting on it (or arriving later) gets an error,
/// not a hang.
fn run_site<S: Site>(
    mut half: SiteHalf<S, InProcSiteLink<S::Up, S::Down>>,
    mut data_rx: RingConsumer<S::Item>,
    progress: &SiteProgress,
) {
    let (mut processed, mut peak) = (0u64, 0u64);
    loop {
        let item = data_rx.try_pop();
        let served = match &item {
            Some(item) => half.feed(item),
            None => half.pump(),
        };
        if served.is_err() || half.stopped() {
            return;
        }
        let space = half.site().space_words();
        if space > peak {
            peak = space;
            progress.space_peak.store(peak, Ordering::Relaxed);
        }
        if item.is_some() {
            processed += 1;
            progress.processed.store(processed, Ordering::Release);
        } else if !half.link().park_on(&mut data_rx) {
            return; // coordinator gone
        }
    }
}

impl<P: Protocol> ChannelRuntime<P> {
    /// Build the protocol and spawn its threads.
    pub fn new(protocol: &P, master_seed: u64) -> Self {
        let (sites, coord) = protocol.build(master_seed);
        let k = sites.len();
        let (site_links, coord_link) = in_process_links::<SiteUp<P>, SiteDown<P>>(k);
        let progress: Arc<Vec<CachePadded<SiteProgress>>> =
            Arc::new((0..k).map(|_| CachePadded::default()).collect());

        let mut data_txs = Vec::with_capacity(k);
        let mut site_threads = Vec::with_capacity(k);
        for (id, (site, link)) in sites.into_iter().zip(site_links).enumerate() {
            // The ring shares the link's wake cell: a push wakes the same
            // thread a down does.
            let (data_tx, data_rx) = ring(SITE_QUEUE_CAP, link.wake_cell());
            data_txs.push(data_tx);
            let half = SiteHalf::new(site, link);
            let progress = Arc::clone(&progress);
            site_threads.push(std::thread::spawn(move || {
                run_site(half, data_rx, &progress[id].0)
            }));
        }

        let (cmd_tx, mut cmd_rx) = mpsc::<Cmd<Half<P>>>(coord_link.wake_cell());
        let coord_thread = std::thread::spawn(move || {
            let mut half = CoordHalf::new(coord, coord_link);
            loop {
                // Take the command first, then apply what is queued
                // (`pump` covers a full credit window): whatever was sent
                // before the command was issued is applied before it is
                // served — a `Stop` finishes the backlog, a query sees it.
                let cmd = cmd_rx.try_recv();
                if half.pump().is_err() {
                    break; // a site died; dropping the half releases the rest
                }
                match cmd {
                    Some(Cmd::Run(f)) => f(&mut half),
                    Some(Cmd::Stop) => {
                        let _ = half.stop();
                        break;
                    }
                    None => {
                        if !half.link().park_until(|| !cmd_rx.is_empty()) {
                            break; // every site gone
                        }
                    }
                }
            }
            half.into_parts().1
        });

        Self {
            data_txs,
            cmd_tx,
            site_threads,
            coord_thread: Some(coord_thread),
            progress,
            staging: (0..k).map(|_| Vec::new()).collect(),
            tick: Duration::from_micros(1),
            pace_anchor: None,
        }
    }

    /// Set the wall-clock duration of one schedule tick used by
    /// [`ChannelRuntime::feed_at`] (default 1 µs). Call before the first
    /// `feed_at`; changing it mid-schedule re-anchors nothing and merely
    /// rescales future gaps.
    pub fn set_tick(&mut self, tick: Duration) {
        self.tick = tick;
    }

    /// Number of sites.
    pub fn k(&self) -> usize {
        self.data_txs.len()
    }

    /// Asynchronously deliver an element to a site. Blocks only if the
    /// site's ring is full (`SITE_QUEUE_CAP` elements behind).
    pub fn feed(&self, site: SiteId, item: SiteItem<P>) {
        let _ = self.data_txs[site].push(item);
    }

    /// Wall-clock-paced ingest: sleep until schedule tick `at` is due,
    /// then deliver the element — the adapter that lets the *timed*
    /// schedules of `dtrack_workload` (`Workload::timed`, bursty /
    /// Poisson pacing) drive real threads instead of ingesting as fast
    /// as the channels allow.
    ///
    /// The first call anchors tick 0 at the current wall-clock instant;
    /// tick `at` is due `at ×` [`ChannelRuntime::set_tick`] later. Ticks
    /// already in the past (e.g. a burst of same-tick arrivals, or a
    /// schedule replayed faster than the OS can sleep) are delivered
    /// immediately, so a schedule's *order* is always preserved and only
    /// its pacing is best-effort — this is the nondeterministic executor.
    pub fn feed_at(&mut self, at: u64, site: SiteId, item: SiteItem<P>) {
        let anchor = *self.pace_anchor.get_or_insert_with(Instant::now);
        // Saturate instead of wrapping: u64::MAX ticks is "never", and a
        // saturated deadline simply means "as late as we can express".
        let nanos = self.tick.as_nanos().saturating_mul(at as u128);
        let due = anchor + Duration::from_nanos(nanos.min(u64::MAX as u128) as u64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        self.feed(site, item);
    }

    /// Batched ingest fast path: elements are appended to reusable
    /// per-site staging buffers (preserving each site's arrival order)
    /// and moved into the site rings in `BATCH_CHUNK`-sized runs — one
    /// tail-CAS per run of free slots, no per-element allocation or
    /// boxing anywhere on the path. Bounded rings apply backpressure if
    /// producers outpace the sites. (Sites still check their control
    /// lane and fairness credit between *elements*, so chunking never
    /// delays a seal or outruns the coordinator.)
    pub fn feed_batch(&mut self, batch: Vec<(SiteId, SiteItem<P>)>) {
        for (site, item) in batch {
            let buf = &mut self.staging[site];
            buf.push(item);
            if buf.len() >= BATCH_CHUNK {
                let _ = self.data_txs[site].push_many(buf);
            }
        }
        for (tx, buf) in self.data_txs.iter().zip(&mut self.staging) {
            let _ = tx.push_many(buf); // no-op on an empty buffer
        }
    }

    /// Run `f` against the coordinator half on its thread, once every
    /// up sent before this call has been applied, and return its result.
    fn on_coord<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut Half<P>) -> R + Send + 'static,
    {
        let (tx, rx) = sync_channel(1);
        self.cmd_tx.send(Cmd::Run(Box::new(move |half| {
            let _ = tx.send(f(half));
        })));
        rx.recv().expect("coordinator thread terminated")
    }

    /// Elements fed so far (the rings' pushed cursors; exact while no
    /// push is in progress).
    fn fed(&self) -> u64 {
        self.data_txs.iter().map(|tx| tx.pushed()).sum()
    }

    /// Communication statistics as the coordinator half has accounted
    /// them — ups applied, downs sent — plus the elements fed. Quiesce
    /// first for settled totals.
    pub fn stats(&self) -> CommStats {
        let mut stats = self.on_coord(|half| half.stats().clone());
        stats.elements = self.fed();
        stats
    }

    /// Snapshot of peak per-site space, as self-reported by the site
    /// threads after every step. Quiesce first for a consistent cut.
    pub fn space(&self) -> SpaceStats {
        SpaceStats::from_peaks(
            self.progress
                .iter()
                .map(|p| p.0.space_peak.load(Ordering::Relaxed))
                .collect(),
        )
    }

    /// Wait until every site has fully processed every element pushed to
    /// its ring. Sites with a backlog are all woken first — a lazily
    /// pushed backlog may sit behind a nap, and the naps should overlap,
    /// not run out one site after another — then waited for in turn.
    fn wait_drained(&self, must_drain: bool) {
        for (tx, progress) in self.data_txs.iter().zip(self.progress.iter()) {
            if progress.0.processed.load(Ordering::Acquire) < tx.pushed() {
                tx.wake_consumer();
            }
        }
        for site in 0..self.data_txs.len() {
            self.wait_site_drained(site, must_drain);
        }
    }

    /// Wait until `site`'s `processed` cursor reaches its ring's pushed
    /// cursor. If the site thread has exited (even by panic) it never
    /// will: panic when `must_drain` (the caller needs the cut to be
    /// meaningful — quiesce), else give up (shutdown drains are
    /// best-effort for dead sites).
    fn wait_site_drained(&self, site: usize, must_drain: bool) {
        let target = self.data_txs[site].pushed();
        let processed = &self.progress[site].0.processed;
        let mut spins = 0u32;
        while processed.load(Ordering::Acquire) < target {
            if self.site_threads[site].is_finished() {
                assert!(
                    !must_drain,
                    "site {site} thread died with elements still queued"
                );
                return;
            }
            spins = spins.saturating_add(1);
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Block until all queued elements and all in-flight messages have been
    /// fully processed — i.e. until the system reaches the state the
    /// lock-step model would be in. Returns the number of barrier rounds.
    ///
    /// Two steps: wait for every site's `processed` cursor (the ups of
    /// every fed element are then on the wire), then run
    /// [`CoordHalf::quiesce`]'s ping/pong barrier on the coordinator
    /// thread. No items may be fed during quiesce (caller contract).
    pub fn quiesce(&self) -> u32 {
        self.wait_drained(true);
        self.on_coord(|half| half.quiesce())
            .unwrap_or_else(|e| panic!("channel runtime failed to quiesce: {e}"))
    }

    /// Run a query closure against the coordinator state and return its
    /// result. Call [`ChannelRuntime::quiesce`] first for a consistent cut.
    pub fn with_coord<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&P::Coord) -> R + Send + 'static,
    {
        self.on_coord(move |half| f(half.coord()))
    }

    /// Create (or clone) a live-query handle over the
    /// coordinator: [`CoordHalf::query_handle`] (which states the publish
    /// cadence), run on the coordinator thread. Immediately after
    /// [`ChannelRuntime::quiesce`] a handle read is bit-identical to
    /// [`ChannelRuntime::with_coord`].
    pub fn query_handle(&mut self) -> QueryHandle<P::Coord> {
        self.on_coord(|half| half.query_handle())
    }

    /// Stop all threads and join them, returning final statistics.
    ///
    /// Queued *elements* are processed before the sites exit (so the
    /// returned statistics account for every fed element and every up
    /// it produced), but downs still in flight at that point are dropped
    /// — call [`ChannelRuntime::quiesce`] first when a fully settled cut
    /// matters.
    pub fn shutdown(mut self) -> CommStats {
        self.do_shutdown()
    }

    fn do_shutdown(&mut self) -> CommStats {
        // `Stop` reaches the sites on the control lane, which overtakes
        // queued data — sent cold, it would silently discard elements a
        // caller already fed. Wait for each site's processed cursor to
        // reach its pushed cursor instead (tolerating sites that already
        // died).
        self.wait_drained(false);
        // The coordinator applies every up the sites produced above
        // before it relays the stop.
        self.cmd_tx.send(Cmd::Stop);
        for h in self.site_threads.drain(..) {
            let _ = h.join();
        }
        let mut stats = self
            .coord_thread
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        stats.elements = self.fed();
        stats
    }
}

impl<P: Protocol> Drop for ChannelRuntime<P> {
    fn drop(&mut self) {
        if self.coord_thread.is_some() {
            self.do_shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Encode, Words};
    use crate::net::{Net, Outbox};
    use crate::protocol::Coordinator;
    use crate::ring::wait_until;
    use crate::transport::SITE_CREDIT;
    use std::sync::atomic::AtomicBool;

    /// Echo protocol: site forwards every item's value; coordinator sums.
    struct EchoSite;
    impl Site for EchoSite {
        type Item = u64;
        type Up = u64;
        type Down = u64;
        fn on_item(&mut self, item: &u64, out: &mut Outbox<u64>) {
            out.send(*item);
        }
        fn on_message(&mut self, _: &u64, _: &mut Outbox<u64>) {}
        fn space_words(&self) -> u64 {
            1
        }
    }
    #[derive(Clone)]
    struct SumCoord {
        sum: u64,
    }
    impl Coordinator for SumCoord {
        type Up = u64;
        type Down = u64;
        fn on_message(&mut self, _from: SiteId, msg: &u64, _net: &mut Net<u64>) {
            self.sum += msg;
        }
    }
    struct Echo {
        k: usize,
    }
    impl Protocol for Echo {
        type Site = EchoSite;
        type Coord = SumCoord;
        fn k(&self) -> usize {
            self.k
        }
        fn build_site(&self, _: u64, _: SiteId) -> EchoSite {
            EchoSite
        }
        fn build_coord(&self, _: u64) -> SumCoord {
            SumCoord { sum: 0 }
        }
    }

    #[test]
    fn batched_ingest_matches_per_element_accounting() {
        let mut rt = ChannelRuntime::new(&Echo { k: 4 }, 0);
        let batch: Vec<(usize, u64)> = (0..10_000u64).map(|i| ((i % 4) as usize, i)).collect();
        let expect: u64 = batch.iter().map(|&(_, v)| v).sum();
        rt.feed_batch(batch);
        rt.quiesce();
        assert_eq!(rt.with_coord(|c| c.sum), expect);
        assert_eq!(rt.space().max_peak(), 1); // EchoSite reports 1 word
        let stats = rt.shutdown();
        assert_eq!(stats.elements, 10_000);
        assert_eq!(stats.up_msgs, 10_000);
    }

    #[test]
    fn backpressured_batch_to_one_site_completes_exactly() {
        // 50k elements to a single site: the batch is ~50× the ring
        // capacity, so the producer parks on a full ring many times and
        // the site parks at the credit cap throughout — the whole
        // spin-then-park machinery under load. Exact accounting proves
        // no element was lost, duplicated, or reordered past the sum.
        let mut rt = ChannelRuntime::new(&Echo { k: 1 }, 0);
        let batch: Vec<(usize, u64)> = (0..50_000u64).map(|i| (0, i)).collect();
        rt.feed_batch(batch);
        rt.quiesce();
        assert_eq!(rt.with_coord(|c| c.sum), (0..50_000u64).sum::<u64>());
        let stats = rt.shutdown();
        assert_eq!(stats.elements, 50_000);
        assert_eq!(stats.up_msgs, 50_000);
    }

    #[test]
    #[should_panic(expected = "thread died with elements still queued")]
    fn site_dying_under_a_blocked_feeder_releases_it_and_fails_quiesce() {
        // The module docs' promise: a site that exits, even by panic,
        // closes its ring, and a producer waiting on that ring gets out
        // with an error instead of hanging. The site holds its first
        // element until the ring behind it is full — the feeder is then
        // waiting on it — and panics.
        struct DoomedSite(Arc<AtomicBool>);
        impl Site for DoomedSite {
            type Item = u64;
            type Up = u64;
            type Down = u64;
            fn on_item(&mut self, _: &u64, _: &mut Outbox<u64>) {
                while !self.0.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                panic!("site dies with its ring full");
            }
            fn on_message(&mut self, _: &u64, _: &mut Outbox<u64>) {}
            fn space_words(&self) -> u64 {
                1
            }
        }
        struct Doomed(Arc<AtomicBool>);
        impl Protocol for Doomed {
            type Site = DoomedSite;
            type Coord = SumCoord;
            fn k(&self) -> usize {
                1
            }
            fn build_site(&self, _: u64, _: SiteId) -> DoomedSite {
                DoomedSite(Arc::clone(&self.0))
            }
            fn build_coord(&self, _: u64) -> SumCoord {
                SumCoord { sum: 0 }
            }
        }
        let ring_full = Arc::new(AtomicBool::new(false));
        let mut rt = ChannelRuntime::new(&Doomed(Arc::clone(&ring_full)), 0);
        let tx = rt.data_txs[0].clone();
        let feeder = std::thread::spawn(move || {
            rt.feed_batch((0..3 * SITE_QUEUE_CAP as u64).map(|i| (0, i)).collect());
            rt
        });
        // A ring's worth pushed and at most the held element popped:
        // the feeder cannot get past the wait for half a ring.
        wait_until("ring full", || tx.pushed() >= SITE_QUEUE_CAP as u64);
        ring_full.store(true, Ordering::SeqCst);
        wait_until("feeder released by the dead site", || feeder.is_finished());
        feeder.join().unwrap().quiesce();
    }

    #[test]
    fn shutdown_without_quiesce_processes_queued_elements() {
        // Stop rides the control lane (which overtakes data), so
        // shutdown must drain the data lanes first — otherwise elements
        // fed just before shutdown would vanish from the accounting.
        let rt = ChannelRuntime::new(&Echo { k: 4 }, 0);
        for i in 0..5_000u64 {
            rt.feed((i % 4) as usize, i);
        }
        let stats = rt.shutdown(); // no quiesce on purpose
        assert_eq!(stats.elements, 5_000);
        assert_eq!(stats.up_msgs, 5_000, "queued elements were discarded");
    }

    #[test]
    fn idle_runtime_reaches_deep_park() {
        // After a burst and a barrier every site runs out of naps and
        // blocks in the untimed park: an idle runtime takes no timer
        // interrupts. Still true 100 nap lengths later, and a trailing
        // element pushed at a parked site is served.
        let rt = ChannelRuntime::new(&Echo { k: 8 }, 0);
        for i in 0..8_000u64 {
            rt.feed((i % 8) as usize, 1);
        }
        rt.quiesce();
        let all_parked = || rt.data_txs.iter().all(|tx| tx.consumer_deep_parked());
        wait_until("every site deep-parked", all_parked);
        std::thread::sleep(Duration::from_millis(5));
        assert!(all_parked(), "a site left the untimed park with no input");
        rt.feed(3, 1);
        wait_until("trailing element processed", || {
            rt.progress[3].0.processed.load(Ordering::Acquire) == 1_001
        });
        rt.quiesce();
        assert_eq!(rt.with_coord(|c| c.sum), 8_001);
    }

    #[test]
    fn control_reaches_a_napping_site_without_a_data_wake() {
        // A ping to a site that is napping — on an empty ring, or on an
        // element pushed lazily that it has not noticed yet — is answered
        // because the control send wakes the cell: the barrier is run
        // straight on the coordinator, without `quiesce`'s data wake.
        let rt = ChannelRuntime::new(&Echo { k: 1 }, 0);
        let tx = &rt.data_txs[0];
        let (mut fed, mut napping) = (0u64, 0u32);
        for round in 0..100 {
            // An element, so that the site's next idle wait naps.
            rt.feed(0, 1);
            fed += 1;
            wait_until("element processed", || {
                rt.progress[0].0.processed.load(Ordering::Acquire) == fed
            });
            wait_until("site idle", || {
                tx.consumer_napping() || tx.consumer_deep_parked()
            });
            if round % 2 == 0 {
                rt.feed(0, 1);
                fed += 1;
            }
            napping += u32::from(tx.consumer_napping());
            rt.on_coord(|half| half.quiesce()).unwrap();
        }
        assert!(napping > 0, "no ping ever met a napping site");
        rt.quiesce();
        assert_eq!(rt.with_coord(|c| c.sum), fed);
    }

    #[test]
    fn feed_at_paces_wall_clock_and_preserves_order() {
        let mut rt = ChannelRuntime::new(&Echo { k: 2 }, 0);
        rt.set_tick(Duration::from_millis(1));
        let t0 = Instant::now();
        // A same-tick burst followed by an arrival 10 ticks later.
        for (at, v) in [(0u64, 1u64), (0, 2), (0, 3), (10, 4)] {
            rt.feed_at(at, (v % 2) as usize, v);
        }
        assert!(
            t0.elapsed() >= Duration::from_millis(10),
            "feed_at returned before the 10-tick arrival was due"
        );
        rt.quiesce();
        assert_eq!(rt.with_coord(|c| c.sum), 10);
        assert_eq!(rt.stats().elements, 4);
    }

    #[test]
    fn concurrent_sum_is_exact_after_quiesce() {
        let rt = ChannelRuntime::new(&Echo { k: 8 }, 0);
        let mut expect = 0u64;
        for i in 0..10_000u64 {
            rt.feed((i % 8) as usize, i);
            expect += i;
        }
        rt.quiesce();
        let sum = rt.with_coord(|c| c.sum);
        assert_eq!(sum, expect);
        let stats = rt.shutdown();
        assert_eq!(stats.elements, 10_000);
        assert_eq!(stats.up_msgs, 10_000);
    }

    #[test]
    fn quiesce_handles_ping_pong() {
        // Coordinator replies to the first up with a broadcast; sites ack
        // exactly once. Quiesce must wait for the acks too.
        struct PSite {
            acked: bool,
        }
        impl Site for PSite {
            type Item = u64;
            type Up = u64;
            type Down = u64;
            fn on_item(&mut self, item: &u64, out: &mut Outbox<u64>) {
                out.send(*item);
            }
            fn on_message(&mut self, _: &u64, out: &mut Outbox<u64>) {
                if !self.acked {
                    self.acked = true;
                    out.send(u64::MAX);
                }
            }
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct PCoord {
            ups: u64,
            acks: u64,
            broadcasted: bool,
        }
        impl Coordinator for PCoord {
            type Up = u64;
            type Down = u64;
            fn on_message(&mut self, _f: SiteId, m: &u64, net: &mut Net<u64>) {
                if *m == u64::MAX {
                    self.acks += 1;
                } else {
                    self.ups += 1;
                    if !self.broadcasted {
                        self.broadcasted = true;
                        net.broadcast(0);
                    }
                }
            }
        }
        struct P {
            k: usize,
        }
        impl Protocol for P {
            type Site = PSite;
            type Coord = PCoord;
            fn k(&self) -> usize {
                self.k
            }
            fn build_site(&self, _: u64, _: SiteId) -> PSite {
                PSite { acked: false }
            }
            fn build_coord(&self, _: u64) -> PCoord {
                PCoord {
                    ups: 0,
                    acks: 0,
                    broadcasted: false,
                }
            }
        }
        let rt = ChannelRuntime::new(&P { k: 4 }, 0);
        rt.feed(0, 7);
        rt.quiesce();
        let (ups, acks) = rt.with_coord(|c| (c.ups, c.acks));
        assert_eq!(ups, 1);
        assert_eq!(acks, 4);
        let stats = rt.shutdown();
        assert_eq!(stats.broadcast_events, 1);
        assert_eq!(stats.down_msgs, 4);
        assert_eq!(stats.up_msgs, 5);
    }

    #[test]
    fn urgent_ups_jump_the_report_backlog() {
        // A site reports every item on the data-plane lane and sends one
        // urgent marker after report 60 (below SITE_CREDIT, so the
        // credit cap never pauses the site before the marker is out).
        // The coordinator stalls 100ms on the FIRST report, during which
        // the site queues the other 59 reports and the marker: FIFO
        // delivery would process the marker after all 60 reports,
        // priority delivery processes it as soon as the stall ends. The
        // only way to miss the margin is the site thread taking > 100ms
        // for ~60 trivial items — orders of magnitude of slack, where
        // the earlier backlog-pinning design raced against the OS
        // scheduler.
        struct USite {
            sent: u64,
        }
        #[derive(Clone)]
        enum UUp {
            Report,
            Marker,
        }
        impl Words for UUp {
            fn words(&self) -> u64 {
                1
            }
            fn urgent(&self) -> bool {
                matches!(self, UUp::Marker)
            }
        }
        impl Encode for UUp {
            fn encode(&self, w: &mut impl crate::wire::WireSink) {
                w.put_u8(u8::from(self.urgent()));
            }
        }
        impl Site for USite {
            type Item = u64;
            type Up = UUp;
            type Down = u64;
            fn on_item(&mut self, _: &u64, out: &mut Outbox<UUp>) {
                self.sent += 1;
                out.send(UUp::Report);
                if self.sent == 60 {
                    out.send(UUp::Marker);
                }
            }
            fn on_message(&mut self, _: &u64, _: &mut Outbox<UUp>) {}
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct UCoord {
            reports_before_marker: Option<u64>,
            reports: u64,
        }
        impl Coordinator for UCoord {
            type Up = UUp;
            type Down = u64;
            fn on_message(&mut self, _: SiteId, m: &UUp, _: &mut Net<u64>) {
                match m {
                    UUp::Report => {
                        self.reports += 1;
                        // One long stall on the first report: while we
                        // sleep, the site queues the remaining reports
                        // (normal lane) and the marker (urgent lane).
                        if self.reports == 1 {
                            std::thread::sleep(Duration::from_millis(100));
                        }
                    }
                    UUp::Marker => {
                        self.reports_before_marker.get_or_insert(self.reports);
                    }
                }
            }
        }
        struct U;
        impl Protocol for U {
            type Site = USite;
            type Coord = UCoord;
            fn k(&self) -> usize {
                1
            }
            fn build_site(&self, _: u64, _: SiteId) -> USite {
                USite { sent: 0 }
            }
            fn build_coord(&self, _: u64) -> UCoord {
                UCoord {
                    reports_before_marker: None,
                    reports: 0,
                }
            }
        }
        let rt = ChannelRuntime::new(&U, 0);
        for i in 0..200u64 {
            rt.feed(0, i);
        }
        rt.quiesce();
        let (seen, total) = rt.with_coord(|c| (c.reports_before_marker, c.reports));
        assert_eq!(total, 200);
        let seen = seen.expect("marker processed");
        // FIFO delivery would give exactly 60 (the marker behind every
        // report sent before it); the priority lane delivers it right
        // after the stall, having overtaken the queued backlog.
        assert!(
            seen < 30,
            "urgent marker did not overtake the report backlog ({seen})"
        );
    }

    #[test]
    fn credit_cap_bounds_site_runahead() {
        // One chatty site (an up per element) and a coordinator we can
        // observe: at no point may the site's sent-count exceed the
        // coordinator's processed-count by more than SITE_CREDIT.
        use std::sync::atomic::AtomicU64 as A;
        static SENT: A = A::new(0);
        static PROCESSED: A = A::new(0);
        static MAX_GAP: A = A::new(0);

        struct CSite;
        impl Site for CSite {
            type Item = u64;
            type Up = u64;
            type Down = u64;
            fn on_item(&mut self, item: &u64, out: &mut Outbox<u64>) {
                let sent = SENT.fetch_add(1, Ordering::SeqCst) + 1;
                let gap = sent.saturating_sub(PROCESSED.load(Ordering::SeqCst));
                MAX_GAP.fetch_max(gap, Ordering::SeqCst);
                out.send(*item);
            }
            fn on_message(&mut self, _: &u64, _: &mut Outbox<u64>) {}
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct CCoord;
        impl Coordinator for CCoord {
            type Up = u64;
            type Down = u64;
            fn on_message(&mut self, _: SiteId, _: &u64, _: &mut Net<u64>) {
                PROCESSED.fetch_add(1, Ordering::SeqCst);
                // An artificially slow coordinator: without the credit
                // cap the site would race its whole queue ahead.
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        struct C;
        impl Protocol for C {
            type Site = CSite;
            type Coord = CCoord;
            fn k(&self) -> usize {
                1
            }
            fn build_site(&self, _: u64, _: SiteId) -> CSite {
                CSite
            }
            fn build_coord(&self, _: u64) -> CCoord {
                CCoord
            }
        }
        let rt = ChannelRuntime::new(&C, 0);
        for i in 0..2_000u64 {
            rt.feed(0, i);
        }
        rt.quiesce();
        rt.shutdown();
        // +1: the element being processed when the gap was sampled.
        assert!(
            MAX_GAP.load(Ordering::SeqCst) <= SITE_CREDIT + 1,
            "site ran {} ups ahead of the coordinator (credit {})",
            MAX_GAP.load(Ordering::SeqCst),
            SITE_CREDIT
        );
    }

    #[test]
    fn credit_exhaustion_parks_and_release_resumes() {
        // Directly pin the credit pause/resume cycle: a coordinator that
        // stalls 20ms on the first up guarantees the site (one up per
        // element, SITE_CREDIT+burst elements queued) hits the cap and
        // parks with no credit left. Each release must then wake it — a
        // lost release-side wakeup would hang the run until the
        // 10k-sweep quiesce guard aborts the test.
        #[derive(Clone)]
        struct SlowCoord {
            sum: u64,
            ups: u64,
        }
        impl Coordinator for SlowCoord {
            type Up = u64;
            type Down = u64;
            fn on_message(&mut self, _: SiteId, m: &u64, _: &mut Net<u64>) {
                self.ups += 1;
                self.sum += m;
                if self.ups == 1 {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        struct Slow;
        impl Protocol for Slow {
            type Site = EchoSite;
            type Coord = SlowCoord;
            fn k(&self) -> usize {
                1
            }
            fn build_site(&self, _: u64, _: SiteId) -> EchoSite {
                EchoSite
            }
            fn build_coord(&self, _: u64) -> SlowCoord {
                SlowCoord { sum: 0, ups: 0 }
            }
        }
        let rt = ChannelRuntime::new(&Slow, 0);
        let n = SITE_CREDIT + 50;
        for i in 0..n {
            rt.feed(0, i);
        }
        rt.quiesce();
        assert_eq!(rt.with_coord(|c| c.sum), (0..n).sum::<u64>());
        let stats = rt.shutdown();
        assert_eq!(stats.elements, n);
        assert_eq!(stats.up_msgs, n);
    }
}
