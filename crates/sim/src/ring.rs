//! Lock-free transport primitives for [`crate::runtime::ChannelRuntime`]
//! and the in-process links of [`crate::transport`].
//!
//! Three building blocks, all `std`-only:
//!
//! * [`ring`] — a bounded ring buffer with atomic head/tail cursors and
//!   per-slot sequence stamps (Vyukov's bounded queue). The consumer side
//!   is strictly single-threaded; producers may be cloned, and an
//!   uncontended producer pays one CAS per claim — the SPSC fast path the
//!   data lane is built on. [`RingProducer::push_many`] claims a whole
//!   run of slots with a single CAS, which is what makes the batched
//!   ingest path allocation-free *and* synchronization-cheap.
//! * [`mpsc`] — an unbounded MPSC linked queue (Vyukov's non-intrusive
//!   design, one heap node per message). Used for the control lanes,
//!   where the sender (the coordinator) must **never** block — that is
//!   the deadlock-freedom argument in [`crate::transport`]'s module docs.
//! * [`WakeCell`] — the spin-then-park idle protocol shared by every
//!   consumer thread. Producers publish, then wake; consumers spin
//!   briefly, then publish a parked flag, re-check, and `thread::park`.
//!   `SeqCst` fences on both sides make the flag/data handshake a
//!   store-load (Dekker) pair, so a wakeup can never be lost: either the
//!   producer observes the parked flag and unparks, or the consumer's
//!   re-check observes the freshly pushed message.
//!
//! ## Spin → nap → park: lazy data wakes on the ring
//!
//! An `unpark` of a sleeping thread is a futex syscall, about 2 µs of
//! the *waker's* time here. A consumer that does a few nanoseconds of
//! work per element is asleep again before the next one arrives, so
//! with a wake per push the producer pays that syscall every few dozen
//! elements — it, not the CAS or the fences, was 2/3 of a per-element
//! push. The ring's own wait, [`RingConsumer::wait_while_empty`], takes
//! the producer out of that loop:
//!
//! 1. **spin** `SPIN_ITERS` iterations, as every wait here does;
//! 2. **nap**: up to `NAPS` timed parks of `NAP` each, with the ring's
//!    wake watermark raised to half a ring above `head` — skipped when no
//!    element was popped since the previous wait (a thread woken for
//!    control traffic alone goes straight back to 3);
//! 3. **park** untimed, watermark back at `head`, exactly as before.
//!
//! **Which wakes are lazy.** Only ring pushes, and only during 2: a
//! `push`/`push_many` compares the tail it just published with the
//! watermark and skips [`WakeCell::wake`] while less than half the ring
//! (`NAP_BACKLOG_DIV`) is backed up. The elements are in the ring when
//! `push` returns; the consumer finds them when its nap ends, so the
//! added delivery delay is at most one nap. The push that takes the
//! backlog to the watermark wakes after all, so a producer never runs
//! into a full ring behind a sleeping consumer. Everything else that
//! wakes the cell — an [`mpsc`] send on a lane sharing it, a credit
//! release, a [`RingProducer::wake_consumer`] from a thread about to
//! wait for the consumer — calls `wake()` unconditionally and ends a
//! nap at once.
//! A consumer that parks on the cell directly ([`WakeCell::park_while`],
//! e.g. the coordinator's up lane) never raises a watermark and is
//! woken by every push.
//!
//! **No lost wakeup.** The watermark is one more Dekker pair in front
//! of the parked flag's. Producer: publish the slot, `SeqCst` fence,
//! load the watermark (then, if reached, the parked flag). Consumer:
//! store the watermark, store the parked flag, `SeqCst` fence, re-check
//! the ring, block. If the producer's load misses the consumer's latest
//! watermark store, the two fences order the slot's publication before
//! the consumer's re-check, which then sees the element and does not
//! block; if it reads it, the push wakes whenever that watermark says
//! so. Entering phase 3 the watermark is `head`, which every tail has
//! passed: a deep-parked consumer is woken by the very next push, as in
//! the two-state protocol. During phase 2 a push may legitimately read
//! the raised watermark and stay silent — that is the lazy wake — and
//! the bound on what it costs is the timer: the nap ends by itself and
//! the consumer re-checks the ring. (With several producers the slot at
//! `head` can be published *after* a later slot's push crossed the
//! watermark and woke the consumer in vain; that too is caught one nap
//! later at worst.) The flag protocol itself is untouched: a nap is
//! `park_timeout` where the park phase calls `park`.
//!
//! ## A full ring is polled, not signalled
//!
//! A producer that finds the ring full spins `SPIN_ITERS` tries, then
//! yields until half the ring is free (the watermark's half-ring
//! backlog) or the ring is closed. Nobody wakes it:
//! [`RingConsumer::try_pop`] is two release stores, and there is no lock
//! in this module. The consumer is awake for the whole wait — the push
//! that took the backlog to the watermark woke it, and it sleeps only on
//! an empty ring — and a consumer that goes away closes the ring, which
//! the poll finds. Waiting for half a ring, not one slot, keeps the two
//! threads off each other's cache lines; a full ring is met once per
//! thousands of elements, so few time slices are spent on it.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// Iterations of `spin_loop` a consumer burns before arming the parked
/// flag, and tries a producer makes at a full ring before it starts to
/// yield. Long enough to bridge the gap to a running peer on another
/// core, short enough that a genuinely idle thread reaches
/// `thread::park` quickly.
const SPIN_ITERS: u32 = 128;

/// Length of one nap of a ring consumer ([`RingConsumer::wait_while_empty`]):
/// the delivery delay a lazily pushed element can see (Linux adds its
/// default 50 µs timer slack on top). Long enough that a site fed an
/// element every 0.2–1 µs sleeps through ~100 of them per timer
/// interrupt, short next to the ~100 µs a quiesce barrier costs anyway;
/// 25–200 µs all measured the same feed rate and flush latency.
const NAP: Duration = Duration::from_micros(50);

/// Naps before a still-idle consumer parks untimed: 16 × (50 µs + slack)
/// ≈ 1–2 ms, longer than any gap inside a live stream, and a runtime
/// gone quiet stops taking timer interrupts within that time. 4 and 64
/// measured the same.
const NAPS: u32 = 16;

/// Share of the ring (capacity / this) that may back up behind a napping
/// consumer before a push wakes it after all: half. This is the
/// backpressure bound, not a latency knob — the consumer is up while the
/// other half is still free — and it is deliberately far above what
/// arrives during one nap. A nap lasts 100–300 µs here once timer slack
/// and scheduling are in it, which is 300–800 elements per site on the
/// per-element path and 500–1500 on the batched one. A fixed 512 sat in
/// the middle of that: whether the timer or the producer's futex wake
/// ended a nap was a race that followed the machine's speed from run to
/// run (the producer ended 70 % of a batched run's nap phases; at half
/// the ring ≈ 20 %, behind sites that had lost the CPU, and the batched
/// workloads read 3–10 % faster and no less steady). Below one nap's
/// arrivals the producer is back to a futex wake per nap: 128 cost
/// per-element feed 25 %, 32 cost 45 %. Flush latency does not move with
/// it (a probe wakes every site whatever its backlog).
const NAP_BACKLOG_DIV: u64 = 2;

/// Pad to a cache line so hot per-thread cursors (and per-site counters
/// in the runtime) do not false-share.
#[repr(align(64))]
#[derive(Default)]
pub struct CachePadded<T>(pub T);

// ---------------------------------------------------------------------------
// WakeCell

/// Spin-then-park idle gate for a single consumer thread.
///
/// The owning thread calls [`WakeCell::register`] once, then parks
/// through [`WakeCell::park_while`] whenever all of its inputs are idle.
/// Any producer calls [`WakeCell::wake`] after publishing work. One cell
/// can guard several queues (a site's data + control lane share one), as
/// long as every producer of every guarded queue wakes it.
#[derive(Default)]
pub struct WakeCell {
    thread: OnceLock<Thread>,
    parked: AtomicBool,
}

impl WakeCell {
    /// New cell with no registered thread; `wake` is a no-op until the
    /// consumer registers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind the cell to the calling thread. Must be called by the
    /// consumer before its first `park_while`; later calls are a single
    /// load, so a consumer may simply register before every park.
    pub fn register(&self) {
        if self.thread.get().is_none() {
            let _ = self.thread.set(std::thread::current());
        }
    }

    /// Wake the consumer if it is parked (or about to park). Call after
    /// publishing work. The `SeqCst` fence pairs with the one in
    /// `park_while`: either this load sees the parked flag, or the
    /// consumer's re-check sees the published work.
    pub fn wake(&self) {
        fence(Ordering::SeqCst);
        self.wake_fenced();
    }

    /// [`WakeCell::wake`] for a caller that has already issued the
    /// `SeqCst` fence after publishing.
    fn wake_fenced(&self) {
        if self.parked.load(Ordering::Relaxed) && self.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.get() {
                t.unpark();
            }
        }
    }

    /// Spin briefly, then park the calling thread for as long as `idle`
    /// returns `true`. Returns as soon as `idle` is observed `false`.
    /// `idle` must depend only on state whose writers call [`WakeCell::wake`].
    pub fn park_while(&self, idle: impl Fn() -> bool) {
        if spin_while(&idle) {
            self.park_after_spin(&idle);
        }
    }

    /// The park phase of [`WakeCell::park_while`].
    fn park_after_spin(&self, idle: &impl Fn() -> bool) {
        while idle() {
            self.block_once(idle, None);
        }
    }

    /// The timed variant of [`WakeCell::park_while`], without the spin:
    /// sleep through at most `naps` timed parks of `nap` each while
    /// `idle` holds, and say whether it still does. A [`WakeCell::wake`]
    /// ends the current nap at once, so `idle` may *also* watch state
    /// whose writers do not wake — they are then noticed one nap late at
    /// worst. A nap cut short counts as a nap.
    fn nap_while(&self, idle: &impl Fn() -> bool, nap: Duration, naps: u32) -> bool {
        for _ in 0..naps {
            if !idle() {
                return false;
            }
            self.block_once(idle, Some(nap));
        }
        idle()
    }

    /// Whether the consumer is in, or about to enter, a park.
    #[cfg(test)]
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.load(Ordering::SeqCst)
    }

    /// Arm the parked flag, re-check `idle` (the consumer's half of the
    /// Dekker pair in [`WakeCell::wake`]), block once, disarm.
    fn block_once(&self, idle: &impl Fn() -> bool, nap: Option<Duration>) {
        self.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if idle() {
            match nap {
                Some(nap) => std::thread::park_timeout(nap),
                None => std::thread::park(),
            }
        }
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// Burn up to [`SPIN_ITERS`] iterations waiting for `idle` to turn
/// `false`; `true` if it never did.
fn spin_while(idle: &impl Fn() -> bool) -> bool {
    for _ in 0..SPIN_ITERS {
        if !idle() {
            return false;
        }
        std::hint::spin_loop();
    }
    true
}

// ---------------------------------------------------------------------------
// Bounded ring (data lane)

/// `push` failed because the ring's consumer was dropped; the value is
/// returned to the caller.
#[derive(Debug, PartialEq, Eq)]
pub struct Closed<T>(pub T);

enum PushError<T> {
    Full(T),
    Closed(T),
}

struct Slot<T> {
    /// Vyukov sequence stamp. `seq == pos` ⇒ free for the producer that
    /// claims position `pos`; `seq == pos + 1` ⇒ holds the value for
    /// position `pos`; `seq == pos + cap` ⇒ free again for the next lap.
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

struct RingShared<T> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    /// Next position to claim (producers; CAS).
    tail: CachePadded<AtomicU64>,
    /// Next position to pop (single consumer).
    head: CachePadded<AtomicU64>,
    /// Set when the consumer is dropped: producers waiting on a full
    /// ring find it on their next poll, and further pushes fail with
    /// [`Closed`].
    closed: AtomicBool,
    consumer: Arc<WakeCell>,
    /// The wake watermark: a push wakes the consumer once the tail it
    /// published reaches this position. At or below `head` — where it
    /// starts and rests — every push wakes, as a deep-parked consumer
    /// needs; the consumer raises it to `head + nap_backlog` for the
    /// length of a nap phase ([`RingConsumer::wait_while_empty`]), which
    /// makes pushes below that backlog lazy. Written by the consumer
    /// only, on its own line: producers read it on every push.
    wake_at: CachePadded<AtomicU64>,
    /// Half the ring (`NAP_BACKLOG_DIV`): a ring that fills has always
    /// crossed the watermark, and a producer that met it full waits
    /// until the backlog is back down to this.
    nap_backlog: u64,
}

// SAFETY: slots are handed between threads via the seq protocol (a slot
// is touched only by the producer that claimed it or, once stamped, by
// the single consumer); `T: Send` is required for the values to cross.
unsafe impl<T: Send> Send for RingShared<T> {}
unsafe impl<T: Send> Sync for RingShared<T> {}

impl<T> RingShared<T> {
    #[inline]
    fn cap(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Producer half of the idle protocol, after publishing every slot
    /// below `tail`: wake the consumer unless it is napping with less
    /// than the watermark's backlog. The fence pairs with the one the
    /// consumer issues between moving the watermark and re-checking the
    /// ring (see the module docs).
    #[inline]
    fn notify_consumer(&self, tail: u64) {
        fence(Ordering::SeqCst);
        let wake_at = self.wake_at.0.load(Ordering::Relaxed);
        if tail.wrapping_sub(wake_at) as i64 >= 0 {
            self.consumer.wake_fenced();
        }
    }
}

impl<T> Drop for RingShared<T> {
    fn drop(&mut self) {
        // Sole owner at this point: drop any values still in flight.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut pos = head;
        while pos != tail {
            let slot = &self.slots[(pos & self.mask) as usize];
            if slot.seq.load(Ordering::Relaxed) == pos.wrapping_add(1) {
                // SAFETY: stamp says the slot holds an initialized value.
                unsafe { (*slot.value.get()).assume_init_drop() };
            }
            pos = pos.wrapping_add(1);
        }
    }
}

/// Producer handle for a bounded ring; cloneable. An uncontended
/// producer pays one CAS per claim (the SPSC fast path).
pub struct RingProducer<T> {
    shared: Arc<RingShared<T>>,
}

impl<T> Clone for RingProducer<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Consumer handle for a bounded ring. Not cloneable — exactly one
/// thread pops. Dropping it closes the ring and releases any waiting or
/// future producers with [`Closed`].
pub struct RingConsumer<T> {
    shared: Arc<RingShared<T>>,
    /// An element was popped since the last idle wait: the stream is
    /// live, so the next wait may nap (see
    /// [`RingConsumer::wait_while_empty`]).
    popped: bool,
}

impl<T> Drop for RingConsumer<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
    }
}

/// Build a bounded ring of at least `capacity` slots (rounded up to a
/// power of two). Pushes wake `consumer_wake` — every one of them,
/// except while the consumer naps in [`RingConsumer::wait_while_empty`]
/// — so the consumer thread can share one cell across several queues.
pub fn ring<T>(
    capacity: usize,
    consumer_wake: Arc<WakeCell>,
) -> (RingProducer<T>, RingConsumer<T>) {
    let cap = capacity.next_power_of_two().max(2);
    let slots = (0..cap)
        .map(|i| Slot {
            seq: AtomicU64::new(i as u64),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        })
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(RingShared {
        slots,
        mask: (cap - 1) as u64,
        tail: CachePadded(AtomicU64::new(0)),
        head: CachePadded(AtomicU64::new(0)),
        closed: AtomicBool::new(false),
        consumer: consumer_wake,
        wake_at: CachePadded(AtomicU64::new(0)),
        nap_backlog: cap as u64 / NAP_BACKLOG_DIV,
    });
    (
        RingProducer {
            shared: Arc::clone(&shared),
        },
        RingConsumer {
            shared,
            popped: false,
        },
    )
}

impl<T> RingProducer<T> {
    /// Non-blocking push.
    fn try_push(&self, value: T) -> Result<(), PushError<T>> {
        let s = &*self.shared;
        if s.closed.load(Ordering::SeqCst) {
            return Err(PushError::Closed(value));
        }
        let mut pos = s.tail.0.load(Ordering::Relaxed);
        loop {
            let slot = &s.slots[(pos & s.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq.wrapping_sub(pos) as i64;
            if diff == 0 {
                // Slot free at `pos`: claim it.
                match s.tail.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave us exclusive ownership of
                        // this slot until the stamp below publishes it.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        s.notify_consumer(pos.wrapping_add(1));
                        return Ok(());
                    }
                    Err(cur) => pos = cur,
                }
            } else if diff < 0 {
                return Err(PushError::Full(value));
            } else {
                // Another producer claimed `pos`; reload the tail.
                pos = s.tail.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Blocking push: spin briefly on a full ring, then yield until the
    /// consumer has freed half of it. Fails only if the consumer is gone.
    // `#[inline]`: the per-element hot path. Without it, whether a
    // caller's loop gets this body depends on which codegen unit the
    // instantiation lands in — an edit to an unrelated module moved it
    // and cost per-element `feed` 10 %.
    #[inline]
    pub fn push(&self, value: T) -> Result<(), Closed<T>> {
        let mut value = value;
        loop {
            for _ in 0..SPIN_ITERS {
                match self.try_push(value) {
                    Ok(()) => return Ok(()),
                    Err(PushError::Closed(v)) => return Err(Closed(v)),
                    Err(PushError::Full(v)) => value = v,
                }
                std::hint::spin_loop();
            }
            self.wait_for_space();
        }
    }

    /// Move the entire buffer into the ring, claiming contiguous runs of
    /// slots with one CAS per run. Blocks (yielding) while the
    /// ring is full. On success the buffer is left empty with its
    /// capacity intact — the caller reuses it, so steady-state batched
    /// ingest performs no allocation. If the consumer is gone the
    /// remaining elements are dropped and [`Closed`] is returned.
    pub fn push_many(&self, buf: &mut Vec<T>) -> Result<(), Closed<()>> {
        while !buf.is_empty() {
            if self.try_push_run(buf) > 0 {
                continue;
            }
            if self.shared.closed.load(Ordering::SeqCst) {
                buf.clear();
                return Err(Closed(()));
            }
            self.wait_for_space();
        }
        Ok(())
    }

    /// Claim the longest free run of slots at the tail (up to
    /// `buf.len()`), move that prefix of `buf` into it, and return the
    /// run length (0 ⇔ ring currently full).
    fn try_push_run(&self, buf: &mut Vec<T>) -> usize {
        let s = &*self.shared;
        loop {
            let pos = s.tail.0.load(Ordering::Relaxed);
            let want = buf.len().min(s.slots.len());
            let mut n = 0usize;
            while n < want {
                let p = pos.wrapping_add(n as u64);
                let seq = s.slots[(p & s.mask) as usize].seq.load(Ordering::Acquire);
                if seq.wrapping_sub(p) as i64 != 0 {
                    break;
                }
                n += 1;
            }
            if n == 0 {
                let seq = s.slots[(pos & s.mask) as usize].seq.load(Ordering::Acquire);
                if (seq.wrapping_sub(pos) as i64) < 0 {
                    return 0; // genuinely full
                }
                continue; // lost a race to another producer; retry
            }
            // A slot observed free stays free until `tail` passes it, so
            // winning this CAS hands us all n slots exclusively.
            if s.tail
                .0
                .compare_exchange(
                    pos,
                    pos.wrapping_add(n as u64),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                for (i, value) in buf.drain(..n).enumerate() {
                    let p = pos.wrapping_add(i as u64);
                    let slot = &s.slots[(p & s.mask) as usize];
                    // SAFETY: slot `p` is ours between the CAS above and
                    // the stamp below.
                    unsafe { (*slot.value.get()).write(value) };
                    slot.seq.store(p.wrapping_add(1), Ordering::Release);
                }
                s.notify_consumer(pos.wrapping_add(n as u64));
                return n;
            }
        }
    }

    /// Yield until the backlog is down to half the ring or the ring
    /// closes; callers loop around `try_push`. Nobody signals this wait
    /// (module docs): it polls the cursors, and the slot's stamp is still
    /// what hands a freed slot to `try_push`.
    fn wait_for_space(&self) {
        let s = &*self.shared;
        // `head` first, and `Acquire`: the pops it counts each followed
        // a claim that had advanced `tail`, so the difference is >= 0.
        let backlog = || {
            let head = s.head.0.load(Ordering::Acquire);
            s.tail.0.load(Ordering::Relaxed).wrapping_sub(head)
        };
        while backlog() > s.nap_backlog && !s.closed.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }

    /// Wake the consumer now, whatever the watermark says: for a caller
    /// about to wait on the consumer's progress (a napping consumer
    /// would otherwise finish its nap first).
    pub fn wake_consumer(&self) {
        self.shared.consumer.wake();
    }

    /// Whether the consumer is blocked in the untimed park: armed, and
    /// not inside a nap phase.
    #[cfg(test)]
    pub(crate) fn consumer_deep_parked(&self) -> bool {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::SeqCst);
        let wake_at = s.wake_at.0.load(Ordering::SeqCst);
        s.consumer.parked.load(Ordering::SeqCst) && head.wrapping_sub(wake_at) as i64 >= 0
    }

    /// Whether the consumer is inside a nap phase (pushes are lazy).
    #[cfg(test)]
    pub(crate) fn consumer_napping(&self) -> bool {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::SeqCst);
        (s.wake_at.0.load(Ordering::SeqCst).wrapping_sub(head) as i64) > 0
    }

    /// Total positions claimed so far — a monotone "elements ever
    /// pushed" cursor. With no concurrent pushes in progress this is
    /// exact, which is how the runtime's quiesce/drain paths know when a
    /// site has consumed everything sent to it.
    pub fn pushed(&self) -> u64 {
        self.shared.tail.0.load(Ordering::Acquire)
    }
}

impl<T> RingConsumer<T> {
    /// Pop the next value, if any. Single consumer: `&mut self`.
    pub fn try_pop(&mut self) -> Option<T> {
        let s = &*self.shared;
        let pos = s.head.0.load(Ordering::Relaxed);
        let slot = &s.slots[(pos & s.mask) as usize];
        let seq = slot.seq.load(Ordering::Acquire);
        if (seq.wrapping_sub(pos.wrapping_add(1)) as i64) < 0 {
            return None;
        }
        // SAFETY: the stamp says slot `pos` holds an initialized value,
        // and we are the only consumer.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        slot.seq.store(pos.wrapping_add(s.cap()), Ordering::Release);
        s.head.0.store(pos.wrapping_add(1), Ordering::Release);
        self.popped = true;
        Some(value)
    }

    /// True if no value is currently ready. Usable from a
    /// [`WakeCell::park_while`] predicate.
    pub fn is_empty(&self) -> bool {
        let s = &*self.shared;
        let pos = s.head.0.load(Ordering::Relaxed);
        let seq = s.slots[(pos & s.mask) as usize].seq.load(Ordering::Acquire);
        (seq.wrapping_sub(pos.wrapping_add(1)) as i64) < 0
    }

    /// The consumer thread's idle wait: spin → nap → park for as long as
    /// the ring is empty and `idle()` holds (`idle` covers whatever else
    /// the thread serves; its writers must wake the ring's cell). During
    /// the nap phase — at most `NAPS` timed parks of `NAP`, and only if
    /// an element was popped since the last wait — pushes are lazy: they
    /// skip the wake until the backlog reaches the watermark, and the
    /// consumer finds them when its nap ends. Every other waker of the
    /// cell ends a nap at once. Only this wait naps; a consumer that
    /// parks on the cell directly is woken by every push. (Module docs:
    /// the lost-wakeup argument.)
    pub fn wait_while_empty(&mut self, idle: impl Fn() -> bool) {
        let live = std::mem::take(&mut self.popped);
        let s = &*self.shared;
        let idle = || self.is_empty() && idle();
        s.consumer.register();
        if !spin_while(&idle) {
            return;
        }
        if live {
            // Only the consumer moves `head`, so it is fixed for the wait.
            let head = s.head.0.load(Ordering::Relaxed);
            let lazy_below = head.wrapping_add(s.nap_backlog);
            s.wake_at.0.store(lazy_below, Ordering::SeqCst);
            let still_idle = s.consumer.nap_while(&idle, NAP, NAPS);
            // Back to "every push wakes" before the untimed park: the
            // fence in `block_once` orders this store before the ring's
            // re-check, so a push either reads it and wakes or is seen.
            s.wake_at.0.store(head, Ordering::SeqCst);
            if !still_idle {
                return;
            }
        }
        s.consumer.park_after_spin(&idle);
    }
}

// ---------------------------------------------------------------------------
// Unbounded MPSC queue (control lanes)

struct MpNode<T> {
    next: AtomicPtr<MpNode<T>>,
    value: Option<T>,
}

struct MpShared<T> {
    /// Most recently pushed node (producers swap here).
    tail: CachePadded<AtomicPtr<MpNode<T>>>,
    /// Current stub node (consumer-owned; its `next` is the front).
    head: CachePadded<AtomicPtr<MpNode<T>>>,
    senders: AtomicUsize,
    receiver_alive: AtomicBool,
    consumer: Arc<WakeCell>,
}

// SAFETY: `head` is touched only through the unique (non-Clone)
// receiver; producers only swap `tail` and link `next`. Nodes are freed
// either by the consumer after it has advanced past them or by this
// struct's Drop once no handles remain.
unsafe impl<T: Send> Send for MpShared<T> {}
unsafe impl<T: Send> Sync for MpShared<T> {}

impl<T> Drop for MpShared<T> {
    fn drop(&mut self) {
        let mut p = *self.head.0.get_mut();
        while !p.is_null() {
            // SAFETY: sole owner; every node in the chain is live.
            let next = unsafe { (*p).next.load(Ordering::Relaxed) };
            drop(unsafe { Box::from_raw(p) });
            p = next;
        }
    }
}

/// Sender handle for an unbounded MPSC queue; cloneable, never blocks.
pub struct MpscSender<T> {
    shared: Arc<MpShared<T>>,
}

impl<T> Clone for MpscSender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::Relaxed);
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for MpscSender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: a parked consumer must observe the
            // disconnect.
            self.shared.consumer.wake();
        }
    }
}

/// Receiver handle for an unbounded MPSC queue. Not cloneable — exactly
/// one thread pops.
pub struct MpscReceiver<T> {
    shared: Arc<MpShared<T>>,
}

impl<T> Drop for MpscReceiver<T> {
    fn drop(&mut self) {
        // Later sends become no-ops; nodes already queued are freed by
        // MpShared::drop once the senders are gone too.
        self.shared.receiver_alive.store(false, Ordering::SeqCst);
    }
}

/// Build an unbounded MPSC queue. Every send wakes `consumer_wake`.
pub fn mpsc<T>(consumer_wake: Arc<WakeCell>) -> (MpscSender<T>, MpscReceiver<T>) {
    let stub = Box::into_raw(Box::new(MpNode {
        next: AtomicPtr::new(ptr::null_mut()),
        value: None,
    }));
    let shared = Arc::new(MpShared {
        tail: CachePadded(AtomicPtr::new(stub)),
        head: CachePadded(AtomicPtr::new(stub)),
        senders: AtomicUsize::new(1),
        receiver_alive: AtomicBool::new(true),
        consumer: consumer_wake,
    });
    (
        MpscSender {
            shared: Arc::clone(&shared),
        },
        MpscReceiver { shared },
    )
}

impl<T> MpscSender<T> {
    /// Push a value; never blocks. Silently dropped if the receiver is
    /// gone (control messages to a stopped peer are meaningless).
    pub fn send(&self, value: T) {
        let s = &*self.shared;
        if !s.receiver_alive.load(Ordering::Relaxed) {
            return;
        }
        let node = Box::into_raw(Box::new(MpNode {
            next: AtomicPtr::new(ptr::null_mut()),
            value: Some(value),
        }));
        let prev = s.tail.0.swap(node, Ordering::AcqRel);
        // SAFETY: `prev` cannot be freed before this link is published —
        // the consumer stops at a null `next`, and MpShared::drop needs
        // every handle (including ours) gone first.
        unsafe { (*prev).next.store(node, Ordering::Release) };
        s.consumer.wake();
    }
}

impl<T> MpscReceiver<T> {
    /// Pop the next value, if any. Single consumer: `&mut self`.
    pub fn try_recv(&mut self) -> Option<T> {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::Relaxed);
        // SAFETY: `head` is the live stub node we own.
        let next = unsafe { (*head).next.load(Ordering::Acquire) };
        if next.is_null() {
            return None;
        }
        // SAFETY: `next` was fully initialized before being linked.
        let value = unsafe { (*next).value.take() };
        s.head.0.store(next, Ordering::Relaxed);
        // SAFETY: the old stub is unreachable to producers (tail has
        // moved past it) and we are the only consumer.
        drop(unsafe { Box::from_raw(head) });
        value
    }

    /// True if no value is currently ready. Usable from a
    /// [`WakeCell::park_while`] predicate.
    pub fn is_empty(&self) -> bool {
        let s = &*self.shared;
        let head = s.head.0.load(Ordering::Relaxed);
        // SAFETY: `head` is the live stub node; only this receiver frees it.
        unsafe { (*head).next.load(Ordering::Acquire) }.is_null()
    }

    /// True once every sender has been dropped. Combine with
    /// [`MpscReceiver::is_empty`] before treating the lane as finished.
    pub fn is_disconnected(&self) -> bool {
        self.shared.senders.load(Ordering::SeqCst) == 0
    }

    /// The cell every send wakes (the one given to [`mpsc`]): the
    /// receiving thread parks on it.
    pub(crate) fn wake_cell(&self) -> &Arc<WakeCell> {
        &self.shared.consumer
    }
}

/// Yield until `cond` holds. The idle-protocol tests (here and in
/// `runtime.rs`) hand-shake on the consumer's published idle state, not
/// on sleeps; the deadline only turns a protocol hang into a failure.
#[cfg(test)]
pub(crate) fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop_blocking<T>(rx: &mut RingConsumer<T>, wake: &WakeCell) -> T {
        wake.register();
        loop {
            if let Some(v) = rx.try_pop() {
                return v;
            }
            wake.park_while(|| rx.is_empty());
        }
    }

    #[test]
    fn spsc_wraparound_preserves_fifo() {
        let wake = Arc::new(WakeCell::new());
        let (tx, mut rx) = ring::<u64>(8, Arc::clone(&wake));
        // Interleave pushes and pops (steady occupancy ~4 on a cap-8
        // ring) so positions lap the ring >1000 times.
        let mut next_pop = 0u64;
        for i in 0..10_000u64 {
            tx.push(i).unwrap();
            if i >= 4 {
                assert_eq!(rx.try_pop(), Some(next_pop));
                next_pop += 1;
            }
        }
        while let Some(v) = rx.try_pop() {
            assert_eq!(v, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, 10_000);
        assert!(rx.is_empty());
    }

    #[test]
    fn full_and_empty_boundaries() {
        let wake = Arc::new(WakeCell::new());
        let (tx, mut rx) = ring::<u32>(4, Arc::clone(&wake));
        assert!(rx.is_empty());
        assert_eq!(rx.try_pop(), None);
        for i in 0..4u32 {
            assert!(matches!(tx.try_push(i), Ok(())));
        }
        // Exactly at capacity: the next try_push reports Full and hands
        // the value back.
        assert!(matches!(tx.try_push(99), Err(PushError::Full(99))));
        for i in 0..4u32 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
        // The freed slots are immediately reusable (a second lap).
        for i in 10..14u32 {
            assert!(matches!(tx.try_push(i), Ok(())));
        }
        assert!(matches!(tx.try_push(99), Err(PushError::Full(99))));
    }

    #[test]
    fn multi_producer_stress_keeps_per_producer_fifo() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 10_000;
        let wake = Arc::new(WakeCell::new());
        let (tx, mut rx) = ring::<u64>(64, Arc::clone(&wake));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    tx.push(p * PER + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut last = [0u64; PRODUCERS as usize];
        let mut seen = [0u64; PRODUCERS as usize];
        for _ in 0..PRODUCERS * PER {
            let v = pop_blocking(&mut rx, &wake);
            let p = (v / PER) as usize;
            let i = v % PER;
            assert!(seen[p] == 0 || i > last[p], "producer {p} reordered");
            last[p] = i;
            seen[p] += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seen, [PER; PRODUCERS as usize]);
        assert!(rx.is_empty());
    }

    #[test]
    fn push_many_through_small_ring_preserves_order() {
        let wake = Arc::new(WakeCell::new());
        let (tx, mut rx) = ring::<u64>(8, Arc::clone(&wake));
        let consumer_wake = Arc::clone(&wake);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..1_000u64 {
                got.push(pop_blocking(&mut rx, &consumer_wake));
            }
            got
        });
        // Batches far larger than the ring: push_many must claim partial
        // runs and wait on full without losing or reordering anything.
        let mut buf = Vec::new();
        let mut next = 0u64;
        for _ in 0..10 {
            buf.extend(next..next + 100);
            next += 100;
            tx.push_many(&mut buf).unwrap();
            assert!(buf.is_empty());
            assert!(buf.capacity() >= 100, "buffer capacity not retained");
        }
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..1_000u64).collect::<Vec<_>>());
    }

    /// A consumer thread on the spin → nap → park wait, handing each
    /// popped value to `got`.
    fn spawn_waiting_consumer(
        mut rx: RingConsumer<u64>,
        got: std::sync::mpsc::Sender<u64>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || loop {
            match rx.try_pop() {
                Some(u64::MAX) => return,
                Some(v) => got.send(v).unwrap(),
                None => rx.wait_while_empty(|| true),
            }
        })
    }

    #[test]
    fn trailing_element_reaches_a_napping_and_a_deep_parked_consumer() {
        // One element, then silence: nothing but the consumer's own nap
        // timer (napping) or the push's wake (deep-parked) can deliver
        // it. Each round waits for the consumer to publish the idle
        // state under test before pushing.
        let wake = Arc::new(WakeCell::new());
        let (tx, rx) = ring::<u64>(4096, Arc::clone(&wake));
        let (got_tx, got) = std::sync::mpsc::channel();
        let consumer = spawn_waiting_consumer(rx, got_tx);
        let (mut lazy, mut deep) = (0u32, 0u32);
        for round in 0..200u64 {
            if round % 2 == 0 {
                wait_until("consumer idle", || {
                    tx.consumer_napping() || tx.consumer_deep_parked()
                });
            } else {
                wait_until("consumer deep-parked", || tx.consumer_deep_parked());
            }
            // (The state may move on between the look and the push; the
            // tallies only show both paths were exercised.)
            lazy += u32::from(tx.consumer_napping());
            deep += u32::from(tx.consumer_deep_parked());
            tx.push(round).unwrap();
            assert_eq!(got.recv_timeout(Duration::from_secs(30)), Ok(round));
        }
        assert!(
            lazy > 0 && deep > 0,
            "paths not exercised: {lazy} lazy, {deep} deep"
        );
        tx.push(u64::MAX).unwrap();
        consumer.join().unwrap();
    }

    #[test]
    fn producer_outrunning_a_napping_consumer_is_never_stranded_on_a_full_ring() {
        // Bursts of 16× the ring into a consumer that is napping when
        // each burst starts: the push that crosses the watermark must
        // wake it, or the producer parks on the full ring with nobody
        // awake to free a slot. Per-element and batched pushes both.
        let wake = Arc::new(WakeCell::new());
        let (tx, rx) = ring::<u64>(64, Arc::clone(&wake));
        let (got_tx, got) = std::sync::mpsc::channel();
        let consumer = spawn_waiting_consumer(rx, got_tx);
        let mut next = 0u64;
        let mut buf = Vec::new();
        for burst in 0..100 {
            wait_until("consumer idle", || {
                tx.consumer_napping() || tx.consumer_deep_parked()
            });
            if burst % 2 == 0 {
                for v in next..next + 1024 {
                    tx.push(v).unwrap();
                }
            } else {
                buf.extend(next..next + 1024);
                tx.push_many(&mut buf).unwrap();
            }
            next += 1024;
        }
        tx.push(u64::MAX).unwrap();
        consumer.join().unwrap();
        assert!(got.try_iter().eq(0..next), "lost or reordered elements");
    }

    #[test]
    fn idle_consumer_runs_out_of_naps_and_parks_untimed() {
        // After its last element the consumer naps a bounded number of
        // times, then blocks in the untimed park and stays there: 100 nap
        // lengths later it still has not moved, and a push wakes it.
        let wake = Arc::new(WakeCell::new());
        let (tx, rx) = ring::<u64>(8, Arc::clone(&wake));
        let (got_tx, got) = std::sync::mpsc::channel();
        let consumer = spawn_waiting_consumer(rx, got_tx);
        tx.push(1).unwrap();
        assert_eq!(got.recv_timeout(Duration::from_secs(30)), Ok(1));
        wait_until("deep park", || tx.consumer_deep_parked());
        std::thread::sleep(100 * NAP);
        assert!(tx.consumer_deep_parked());
        tx.push(u64::MAX).unwrap();
        consumer.join().unwrap();
    }

    #[test]
    fn dropping_consumer_unblocks_parked_producer() {
        let wake = Arc::new(WakeCell::new());
        let (tx, rx) = ring::<u64>(2, Arc::clone(&wake));
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        // Four producers on the full ring: nobody releases them
        // together, each must find `closed` by its own poll.
        let blocked: Vec<_> = (3..7u64)
            .map(|v| {
                let tx = tx.clone();
                std::thread::spawn(move || tx.push(v))
            })
            .collect();
        // Give the producers time to spin out and yield on the full ring.
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        for (v, blocked) in (3..7u64).zip(blocked) {
            assert_eq!(blocked.join().unwrap(), Err(Closed(v)));
        }
    }

    #[test]
    fn dropping_ring_drops_pending_values() {
        let token = Arc::new(());
        let wake = Arc::new(WakeCell::new());
        let (tx, rx) = ring::<Arc<()>>(8, Arc::clone(&wake));
        for _ in 0..5 {
            tx.push(Arc::clone(&token)).unwrap();
        }
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&token), 1, "pending values leaked");
    }

    #[test]
    fn mpsc_keeps_per_producer_fifo_and_reports_disconnect() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 5_000;
        let wake = Arc::new(WakeCell::new());
        wake.register();
        let (tx, mut rx) = mpsc::<u64>(Arc::clone(&wake));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..PER {
                    tx.send(p * PER + i);
                }
            }));
        }
        drop(tx);
        let mut last = [0u64; PRODUCERS as usize];
        let mut seen = [0u64; PRODUCERS as usize];
        let mut total = 0u64;
        loop {
            match rx.try_recv() {
                Some(v) => {
                    let p = (v / PER) as usize;
                    let i = v % PER;
                    assert!(seen[p] == 0 || i > last[p], "producer {p} reordered");
                    last[p] = i;
                    seen[p] += 1;
                    total += 1;
                }
                None => {
                    if rx.is_disconnected() && rx.is_empty() {
                        break;
                    }
                    wake.park_while(|| rx.is_empty() && !rx.is_disconnected());
                }
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total, PRODUCERS * PER);
    }

    #[test]
    fn mpsc_send_wakes_parked_receiver() {
        let wake = Arc::new(WakeCell::new());
        let (tx, mut rx) = mpsc::<u32>(Arc::clone(&wake));
        let recv_wake = Arc::clone(&wake);
        let consumer = std::thread::spawn(move || {
            recv_wake.register();
            loop {
                if let Some(v) = rx.try_recv() {
                    return v;
                }
                recv_wake.park_while(|| rx.is_empty());
            }
        });
        // Let the consumer reach thread::park before sending.
        std::thread::sleep(Duration::from_millis(20));
        tx.send(42);
        assert_eq!(consumer.join().unwrap(), 42);
    }

    #[test]
    fn mpsc_dropped_values_are_freed() {
        let token = Arc::new(());
        let wake = Arc::new(WakeCell::new());
        let (tx, rx) = mpsc::<Arc<()>>(Arc::clone(&wake));
        for _ in 0..5 {
            tx.send(Arc::clone(&token));
        }
        drop(rx); // receiver first: later sends become no-ops
        tx.send(Arc::clone(&token));
        drop(tx);
        assert_eq!(Arc::strong_count(&token), 1, "queued values leaked");
    }

    #[test]
    fn wake_cell_park_while_returns_when_not_idle() {
        let wake = WakeCell::new();
        wake.register();
        wake.park_while(|| false); // must not park
        let flag = AtomicBool::new(true);
        let wake = Arc::new(WakeCell::new());
        let waker = Arc::clone(&wake);
        // park_while on `flag`; another thread clears it and wakes us.
        std::thread::scope(|s| {
            let flag = &flag;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                flag.store(false, Ordering::SeqCst);
                waker.wake();
            });
            wake.register();
            wake.park_while(|| flag.load(Ordering::SeqCst));
        });
        assert!(!flag.load(Ordering::SeqCst));
    }
}
