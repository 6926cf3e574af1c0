//! The two roles of the model, once: [`SiteHalf`] and [`CoordHalf`].
//!
//! The paper's model has a site, which turns an element or a down into
//! ups, and a coordinator, which turns an up into downs. Everything
//! that runs those two roles over a real transport — threads of one
//! process or separate OS processes — runs *this* code:
//!
//! * [`SiteHalf`] — one site's step: control drained before every
//!   element (a pending broadcast or seal overtakes queued data), the
//!   link's fairness gate honored, ups flushed in order, words *and*
//!   bytes charged on send.
//! * [`CoordHalf`] — the coordinator's apply loop: events taken in
//!   arrival order off one up lane, each up applied through the shared
//!   coordinator step ([`CoordCore::apply`]: a broadcast charges `k ×`)
//!   with its downs put on the link, live-query snapshots published on one cadence
//!   ([`CoordHalf::query_handle`]), and the ping/pong quiesce barrier
//!   ([`CoordHalf::quiesce`]).
//!
//! Both halves are generic over a pair of link traits — [`SiteLink`] /
//! [`CoordLink`] — with two implementations:
//!
//! * **In-process** ([`in_process_links`]): lock-free MPSC lanes and
//!   [`WakeCell`] parking from [`crate::ring`], plus the per-site
//!   fairness credit. [`crate::runtime::ChannelRuntime`] is `k` site
//!   halves and one coordinator half over these links, one thread each;
//!   it adds only the data rings that carry elements to the sites.
//! * **Sockets** ([`TcpSiteLink`] / [`TcpCoordLink`]): `std::net`
//!   TCP streams carrying length-prefixed frames
//!   ([`crate::wire::write_frame`]). Each site opens one stream, and
//!   the coordinator runs one reader and one writer thread per site (a
//!   slow site's TCP window can never block the coordinator's apply
//!   loop; downs queue in the writer's unbounded buffer instead). Every
//!   frame is encoded whole — header, then payload — into a reused
//!   buffer ([`crate::wire::encode_frame_into`]) and leaves in one
//!   `write_all`, so under `TCP_NODELAY` it is one segment. Every reader
//!   thread, on both ends, reads through a `BufReader` into one reused
//!   payload buffer ([`crate::wire::read_frame_into`]), so a header, its
//!   payload and a run of small frames arrive in one `recv`.
//!
//! Both implementations share their lanes: one lock-free queue on the
//! receiving thread's [`WakeCell`]. Each coordinator link receives
//! every site's ups on one such up lane, and each site link its downs
//! on its own control lane. In process the coordinator link sends into
//! the control lane; over TCP the site's reader thread does, and its
//! sender, dropped when the stream ends, wakes a parked site to report
//! the link gone. What remains of `std::sync::mpsc` is coordinator-side:
//! the writer threads' queues and the spent frame buffers they hand
//! back.
//!
//! Links are reliable — every message is delivered **exactly once**,
//! FIFO per sender and direction; the only nondeterminism is cross-site
//! interleaving. Faults (loss, duplication, stragglers, churn) live in
//! the deterministic event executor ([`crate::exec::event`]).
//!
//! ## Frame vocabulary
//!
//! ```text
//! kind  dir          payload
//! HELLO site→coord   varint site_id
//! UP    site→coord   Encode-d up message
//! DOWN  coord→site   Encode-d down message
//! PING  coord→site   varint nonce            (quiesce probe)
//! PONG  site→coord   varint nonce            (quiesce answer)
//! EOS   site→coord   —                       (local stream exhausted)
//! STOP  coord→site   —                       (shut down)
//! ```
//!
//! ## The quiesce barrier
//!
//! [`CoordHalf::quiesce`] runs rounds of a ping/pong handshake. A round
//! pings every site and waits for each site's pong. FIFO links give the
//! fencing: the ping queues behind every down already sent to that
//! site, so the site has applied them (and shipped any replies) before
//! it pongs; the pong queues behind every up the site sent, so the
//! coordinator has applied those before counting the pong. If a round
//! completes without the coordinator applying any new up or emitting
//! any new down, nothing is in flight — the system is exactly where a
//! lock-step execution that processed the same per-site sequences would
//! be. Protocols whose answers are
//! insensitive to cross-site interleaving (e.g. one-way deterministic
//! count, whose coordinator sums last-per-site reports) therefore
//! answer **bit-identically** over sockets, in-process links, and the
//! channel runtime.
//!
//! ## Fairness: out-of-band control + a per-site credit cap
//!
//! Unchecked, a site thread can absorb its whole backlog before the
//! coordinator processes one report, with downs queued *behind*
//! thousands of elements. Whole-stream protocols tolerate that lag; a
//! windowed adapter's window cut, which trails the heartbeat clock the
//! coordinator rebuilds from applied ups, needs it bounded. Two
//! transport-level mechanisms (no protocol message is added, so
//! lock-step/event runs stay bit-identical) bound it:
//!
//! * **Out-of-band control.** Downs travel their own lane, drained by
//!   [`SiteHalf::feed`] *before every element*, so a seal or a new
//!   round reaches a site's next element, not the end of its backlog.
//! * **Credit cap** (in-process links; TCP's window is the sockets'
//!   backpressure). A site has at most [`SITE_CREDIT`] ups outstanding:
//!   charged in [`SiteLink::send_up`], released when the coordinator
//!   link hands the up to its half. At the cap [`SiteLink::gate`] pauses
//!   *element* processing — control still flows — so the coordinator's
//!   view lags a site by at most `SITE_CREDIT × (elements per up)`.
//!
//! ## Deadlock freedom (in-process links)
//!
//! Every wait has a live counterpart and no wait holds a lock:
//!
//! * The **coordinator never blocks on a site**: every lane is
//!   unbounded, so it always makes progress on whatever is queued, and
//!   it parks only when its up lane is empty (any up or pong wakes
//!   it). Its wait is the plain spin-then-park of [`WakeCell`]; it
//!   never naps.
//! * A **credit-capped site** keeps serving control — pings included, so
//!   the barrier never waits on a site that waits on credit — and parks
//!   with its wake cell registered; the release, which must come because
//!   the site's outstanding ups are already queued, wakes it.
//! * A **site idle on its data ring** ([`InProcSiteLink::park_on`], the
//!   channel runtime's wait) may nap through data pushes, and through
//!   nothing else: every control send and every credit release calls
//!   [`WakeCell::wake`] unconditionally, which ends a nap as it ends a
//!   park. The lazy party is only ever the data producer, its elements
//!   are found when the nap's timer fires, and the push that fills the
//!   ring to the backlog threshold wakes eagerly — no wait on this
//!   side depends on a wake that may be skipped. The producer's own
//!   wait, at a full ring, depends on no wake at all: it polls
//!   ([`crate::ring`]).
//! * **Quiesce** waits only for pongs, which a live site always sends.
//!   A dropped site end (thread finished or panicked) sends
//!   [`CoordEvent::Closed`], failing the round instead of hanging it; a
//!   dropped coordinator end disconnects the control lanes, which ends
//!   [`SiteLink::recv`]/[`SiteLink::gate`] the same way (over TCP the
//!   site's reader thread ends with the stream and drops the lane's one
//!   sender, whose drop wakes the site).
//! * **Snapshot publication adds no waits**: it happens between two
//!   applies, touches no lane or credit, and readers never block the
//!   publisher (`crate::snapshot`).

use std::io::{self, BufReader, Read, Write};
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::message::{Decode, Encode};
use crate::net::{Dest, Outbox};
use crate::protocol::{Coordinator, Site, SiteId};
use crate::ring::{mpsc, MpscReceiver, MpscSender, RingConsumer, WakeCell};
use crate::snapshot::QueryHandle;
use crate::stats::CommStats;
use crate::step::CoordCore;
use crate::wire::{
    decode_exact, encode_frame_into, encode_to_vec, read_frame, read_frame_into, write_frame,
};

/// Frame kinds (the transport-level routing byte of
/// [`crate::wire::write_frame`]; message tags live inside payloads).
mod kind {
    pub const HELLO: u8 = 0;
    pub const UP: u8 = 1;
    pub const DOWN: u8 = 2;
    pub const PING: u8 = 3;
    pub const PONG: u8 = 4;
    pub const EOS: u8 = 5;
    pub const STOP: u8 = 6;
}

/// Upper bound on quiesce rounds before concluding the protocol cannot
/// settle.
const MAX_QUIESCE_ROUNDS: u32 = 10_000;

/// Maximum sent-but-unreceived ups a site may have outstanding on an
/// in-process link before [`SiteLink::gate`] pauses element processing:
/// the fairness credit of the module docs. For the windowed adapter
/// (one heartbeat per `tick_every` elements) it bounds how far the
/// heartbeat clock, and with it the window cut, lags a site —
/// `SITE_CREDIT · tick_every` elements — even if the OS starves the
/// coordinator thread.
pub const SITE_CREDIT: u64 = 64;

/// Under sustained load a [`CoordHalf`] with a live-query handle
/// publishes a snapshot at least every this many applies; when it
/// catches up (nothing queued) it publishes immediately. Coalescing
/// bounds the publish cost — one coordinator clone per `PUBLISH_EVERY`
/// applies worst case — which matters for heavyweight coordinators (a
/// windowed histogram clones its whole bucket set); publishing on
/// catch-up keeps the common lightly loaded case fresh to the latest
/// apply.
pub const PUBLISH_EVERY: u32 = 64;

/// What a site receives from its coordinator link.
#[derive(Debug)]
pub enum SiteEvent<D> {
    /// A protocol down message.
    Down(D),
    /// Quiesce probe; the site must answer [`SiteLink::pong`] after
    /// applying everything received before it.
    Ping(u64),
    /// Shut down.
    Stop,
}

/// What the coordinator receives from its site links.
#[derive(Debug)]
pub enum CoordEvent<U> {
    /// A protocol up message from a site.
    Up(SiteId, U),
    /// A site's answer to a quiesce probe.
    Pong(SiteId, u64),
    /// The site's local stream is exhausted.
    Eos(SiteId),
    /// The site's link died (disconnect, decode failure, site end
    /// dropped).
    Closed(SiteId),
}

/// Site-side endpoint of a site ↔ coordinator transport.
///
/// Implementations must preserve FIFO order: ups, pongs and the eos
/// reach the coordinator in the order they were sent.
pub trait SiteLink<U, D> {
    /// Ship one up message.
    fn send_up(&mut self, up: U) -> io::Result<()>;
    /// Answer a quiesce probe; the pong follows, and so fences, every
    /// previously sent up.
    fn pong(&mut self, nonce: u64) -> io::Result<()>;
    /// Announce the local stream is exhausted.
    fn eos(&mut self) -> io::Result<()>;
    /// Non-blocking poll of the control lane.
    fn try_recv(&mut self) -> Option<SiteEvent<D>>;
    /// Blocking receive; `None` when the link is gone.
    fn recv(&mut self) -> Option<SiteEvent<D>>;
    /// Fairness gate, asked by [`SiteHalf::feed`] before every element:
    /// `Ok(None)` when the site may process it. A link that caps how far
    /// a site runs ahead blocks here while the cap holds and hands back
    /// any control event that arrives meanwhile (the site serves it and
    /// asks again). The default never holds a site back.
    fn gate(&mut self) -> io::Result<Option<SiteEvent<D>>> {
        Ok(None)
    }
}

/// Coordinator-side endpoint over all `k` sites.
pub trait CoordLink<U, D> {
    /// Number of connected sites.
    fn k(&self) -> usize;
    /// Ship one down message to `to` (never blocks on the peer).
    fn send_down(&mut self, to: SiteId, down: D) -> io::Result<()>;
    /// Probe every site with a quiesce ping.
    fn ping(&mut self, nonce: u64) -> io::Result<()>;
    /// Tell every site to shut down.
    fn stop(&mut self) -> io::Result<()>;
    /// Non-blocking poll.
    fn try_recv(&mut self) -> Option<CoordEvent<U>>;
    /// Blocking receive; `None` when every link is gone.
    fn recv(&mut self) -> Option<CoordEvent<U>>;
}

/// Sender of the coordinator's up lane.
type UpTx<U> = MpscSender<CoordEvent<U>>;

/// Sender of one site's control lane.
type CtrlTx<D> = MpscSender<SiteEvent<D>>;

/// An inbound lane of either link implementation: a lock-free queue on
/// the receiving thread's [`WakeCell`]. The coordinator receives every
/// site's ups, pongs and eos on one up lane; each site receives its
/// downs, pings and stop on its own control lane. The one receive body
/// of both roles.
struct Lane<T> {
    rx: MpscReceiver<T>,
}

/// Build a lane on a fresh wake cell, and its sender.
fn lane<T>() -> (MpscSender<T>, Lane<T>) {
    let (tx, rx) = mpsc(Arc::new(WakeCell::new()));
    (tx, Lane { rx })
}

impl<T> Lane<T> {
    /// The receiving thread's cell: every send on the lane wakes it.
    fn wake(&self) -> &Arc<WakeCell> {
        self.rx.wake_cell()
    }

    fn try_recv(&mut self) -> Option<T> {
        self.rx.try_recv()
    }

    fn recv(&mut self) -> Option<T> {
        while self.park_until(|| false) {
            if let Some(ev) = self.rx.try_recv() {
                return Some(ev);
            }
        }
        None
    }

    /// Every sender is gone and nothing is left queued. Disconnection
    /// first: every send happens before its sender's drop.
    fn closed(&self) -> bool {
        self.rx.is_disconnected() && self.rx.is_empty()
    }

    /// Nothing queued, and a sender may still queue something.
    fn idle(&self) -> bool {
        self.rx.is_empty() && !self.rx.is_disconnected()
    }

    /// Spin-then-park the calling thread until an event is queued or
    /// `ready()` holds; `false` once the lane is closed. `ready` may only
    /// watch state whose writers wake the lane's cell.
    fn park_until(&self, ready: impl Fn() -> bool) -> bool {
        if self.closed() {
            return false;
        }
        let wake = self.wake();
        wake.register();
        wake.park_while(|| self.idle() && !ready());
        true
    }

    /// [`Lane::park_until`] an element arrives on `data`, a ring
    /// built on the lane's cell, through the ring's spin → nap → park
    /// wait.
    fn park_on<E>(&self, data: &mut RingConsumer<E>) -> bool {
        if self.closed() {
            return false;
        }
        data.wait_while_empty(|| self.idle());
        true
    }
}

// ---------------------------------------------------------------------
// In-process links: lock-free lanes, WakeCell parking, fairness credit.
// ---------------------------------------------------------------------

/// One site's fairness credit: ups sent but not yet handed to the
/// coordinator half, bounded by [`SITE_CREDIT`]. A bare atomic — the
/// site link charges on send, the coordinator link releases on receive
/// and then wakes the site's cell (the one that guards its control
/// lane), so a site parked at the cap resumes without any mutex or
/// condvar. Padded to a cache line so sites do not false-share.
#[repr(align(64))]
struct Credit {
    outstanding: AtomicU64,
    site_wake: Arc<WakeCell>,
}

impl Credit {
    fn exhausted(&self) -> bool {
        self.outstanding.load(Ordering::SeqCst) >= SITE_CREDIT
    }
}

/// Site end of an in-process link pair (see [`in_process_links`]).
pub struct InProcSiteLink<U, D> {
    id: SiteId,
    up_tx: UpTx<U>,
    ctrl: Lane<SiteEvent<D>>,
    credit: Arc<Credit>,
}

/// Coordinator end of the in-process links (see [`in_process_links`]).
pub struct InProcCoordLink<U, D> {
    ups: Lane<CoordEvent<U>>,
    ctrl_txs: Vec<CtrlTx<D>>,
    credits: Vec<Arc<Credit>>,
}

/// Build matched in-process link halves for `k` sites on unbounded
/// lock-free MPSC lanes with [`WakeCell`] spin-then-park idling: one
/// site→coordinator lane shared by all sites, one control lane and one
/// [`SITE_CREDIT`] counter per site.
pub fn in_process_links<U, D>(k: usize) -> (Vec<InProcSiteLink<U, D>>, InProcCoordLink<U, D>) {
    let (up_tx, ups) = lane();
    let mut sites = Vec::with_capacity(k);
    let mut ctrl_txs = Vec::with_capacity(k);
    let mut credits = Vec::with_capacity(k);
    for id in 0..k {
        let (ctrl_tx, ctrl) = lane();
        let credit = Arc::new(Credit {
            outstanding: AtomicU64::new(0),
            site_wake: Arc::clone(ctrl.wake()),
        });
        ctrl_txs.push(ctrl_tx);
        credits.push(Arc::clone(&credit));
        sites.push(InProcSiteLink {
            id,
            up_tx: up_tx.clone(),
            ctrl,
            credit,
        });
    }
    let coord = InProcCoordLink {
        ups,
        ctrl_txs,
        credits,
    };
    (sites, coord)
}

impl<U, D> InProcSiteLink<U, D> {
    /// The cell that wakes this site's thread. A caller that multiplexes
    /// another queue onto the thread (the channel runtime's data ring)
    /// builds that queue on this cell and waits through
    /// [`InProcSiteLink::park_until`].
    pub fn wake_cell(&self) -> Arc<WakeCell> {
        Arc::clone(self.ctrl.wake())
    }

    /// Spin-then-park the calling (site) thread until a control event is
    /// queued or `ready()` holds; `false` once the coordinator end is
    /// gone and nothing is left queued. `ready` may only watch state
    /// whose writers wake [`InProcSiteLink::wake_cell`].
    pub fn park_until(&self, ready: impl Fn() -> bool) -> bool {
        self.ctrl.park_until(ready)
    }

    /// [`InProcSiteLink::park_until`] an element arrives on `data` — a
    /// ring built on [`InProcSiteLink::wake_cell`] — through the ring's
    /// spin → nap → park wait ([`RingConsumer::wait_while_empty`]): data
    /// pushes may be noticed a nap late, control events and credit
    /// releases wake the cell and are served at once.
    pub fn park_on<T>(&self, data: &mut RingConsumer<T>) -> bool {
        self.ctrl.park_on(data)
    }
}

impl<U, D> SiteLink<U, D> for InProcSiteLink<U, D> {
    fn send_up(&mut self, up: U) -> io::Result<()> {
        self.credit.outstanding.fetch_add(1, Ordering::SeqCst);
        self.up_tx.send(CoordEvent::Up(self.id, up));
        Ok(())
    }

    fn pong(&mut self, nonce: u64) -> io::Result<()> {
        self.up_tx.send(CoordEvent::Pong(self.id, nonce));
        Ok(())
    }

    fn eos(&mut self) -> io::Result<()> {
        self.up_tx.send(CoordEvent::Eos(self.id));
        Ok(())
    }

    fn try_recv(&mut self) -> Option<SiteEvent<D>> {
        self.ctrl.try_recv()
    }

    fn recv(&mut self) -> Option<SiteEvent<D>> {
        self.ctrl.recv()
    }

    fn gate(&mut self) -> io::Result<Option<SiteEvent<D>>> {
        while self.credit.exhausted() {
            if let Some(ev) = self.ctrl.try_recv() {
                return Ok(Some(ev));
            }
            let credit = &self.credit;
            if !self.ctrl.park_until(|| !credit.exhausted()) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "coordinator link closed with ups outstanding",
                ));
            }
        }
        Ok(None)
    }
}

/// Dropping the site end closes the link: the coordinator sees
/// [`CoordEvent::Closed`] — as it does when a TCP stream dies — so a
/// barrier waiting on this site's pong fails instead of hanging.
impl<U, D> Drop for InProcSiteLink<U, D> {
    fn drop(&mut self) {
        self.up_tx.send(CoordEvent::Closed(self.id));
    }
}

impl<U, D> InProcCoordLink<U, D> {
    /// The cell that wakes the coordinator's thread (see
    /// [`InProcSiteLink::wake_cell`]; the channel runtime builds its
    /// command lane on it).
    pub fn wake_cell(&self) -> Arc<WakeCell> {
        Arc::clone(self.ups.wake())
    }

    /// [`InProcSiteLink::park_until`] for the coordinator's thread:
    /// `false` once every site end is gone and nothing is left queued.
    pub fn park_until(&self, ready: impl Fn() -> bool) -> bool {
        self.ups.park_until(ready)
    }

    /// Handing an up to the half releases its sender's credit and wakes
    /// the sender, which may be parked at the cap.
    fn release(&self, ev: &CoordEvent<U>) {
        if let CoordEvent::Up(from, _) = ev {
            let credit = &self.credits[*from];
            credit.outstanding.fetch_sub(1, Ordering::SeqCst);
            credit.site_wake.wake();
        }
    }
}

impl<U, D> CoordLink<U, D> for InProcCoordLink<U, D> {
    fn k(&self) -> usize {
        self.ctrl_txs.len()
    }

    fn send_down(&mut self, to: SiteId, down: D) -> io::Result<()> {
        self.ctrl_txs[to].send(SiteEvent::Down(down));
        Ok(())
    }

    fn ping(&mut self, nonce: u64) -> io::Result<()> {
        for tx in &self.ctrl_txs {
            tx.send(SiteEvent::Ping(nonce));
        }
        Ok(())
    }

    fn stop(&mut self) -> io::Result<()> {
        for tx in &self.ctrl_txs {
            tx.send(SiteEvent::Stop);
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Option<CoordEvent<U>> {
        self.ups.try_recv().inspect(|ev| self.release(ev))
    }

    fn recv(&mut self) -> Option<CoordEvent<U>> {
        self.ups.recv().inspect(|ev| self.release(ev))
    }
}

// ---------------------------------------------------------------------
// Socket links: length-prefixed frames over std::net TCP.
// ---------------------------------------------------------------------

fn invalid(msg: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Site end of the TCP transport: one stream to the coordinator and a
/// reader thread decoding inbound frames off it into the site's control
/// lane.
pub struct TcpSiteLink<U, D> {
    stream: TcpStream,
    ctrl: Lane<SiteEvent<D>>,
    reader: Option<JoinHandle<()>>,
    /// Frame buffer reused by every send.
    frame: Vec<u8>,
    _up: PhantomData<fn(U)>,
}

impl<U: Encode, D: Decode + Send + 'static> TcpSiteLink<U, D> {
    /// Connect to a coordinator serving at `addr` as site `id`.
    pub fn connect<A: ToSocketAddrs>(addr: A, id: SiteId) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        write_frame(&mut stream, kind::HELLO, &encode_to_vec(&id))?;

        let (tx, ctrl) = lane();
        let mut read_half = BufReader::new(stream.try_clone()?);
        // The thread owns the lane's only sender: when it ends, the drop
        // wakes a parked site to find the lane closed.
        let reader = std::thread::spawn(move || {
            let _ = read_downs(&mut read_half, &tx);
        });
        Ok(Self {
            stream,
            ctrl,
            reader: Some(reader),
            frame: Vec::new(),
            _up: PhantomData,
        })
    }
}

/// The site link's reader thread: decode frames off the stream into
/// the control lane. Ends on STOP, on a closed or failed stream, on
/// an undecodable or unexpected frame, or when the link is dropped
/// (which shuts the stream down); the link then reads as gone.
fn read_downs<D: Decode>(stream: &mut impl Read, tx: &CtrlTx<D>) -> io::Result<()> {
    let mut payload = Vec::new();
    loop {
        let ev = match read_frame_into(stream, &mut payload)? {
            Some(kind::DOWN) => SiteEvent::Down(decode_exact(&payload)?),
            Some(kind::PING) => SiteEvent::Ping(decode_exact(&payload)?),
            Some(kind::STOP) => SiteEvent::Stop,
            Some(_) | None => return Ok(()),
        };
        let last = matches!(ev, SiteEvent::Stop);
        tx.send(ev);
        if last {
            return Ok(());
        }
    }
}

/// Every frame is encoded whole into the link's buffer and leaves in
/// one `write_all`.
impl<U: Encode, D> SiteLink<U, D> for TcpSiteLink<U, D> {
    fn send_up(&mut self, up: U) -> io::Result<()> {
        encode_frame_into(kind::UP, &up, &mut self.frame)?;
        self.stream.write_all(&self.frame)
    }

    fn pong(&mut self, nonce: u64) -> io::Result<()> {
        encode_frame_into(kind::PONG, &nonce, &mut self.frame)?;
        self.stream.write_all(&self.frame)
    }

    fn eos(&mut self) -> io::Result<()> {
        encode_frame_into(kind::EOS, &(), &mut self.frame)?;
        self.stream.write_all(&self.frame)
    }

    fn try_recv(&mut self) -> Option<SiteEvent<D>> {
        self.ctrl.try_recv()
    }

    fn recv(&mut self) -> Option<SiteEvent<D>> {
        self.ctrl.recv()
    }
}

impl<U, D> Drop for TcpSiteLink<U, D> {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// One whole frame queued to a per-peer writer thread; `None` closes
/// the stream and ends the thread.
type WriterCmd = Option<Vec<u8>>;

/// Coordinator end of the TCP transport: per-peer writer threads (a
/// slow site never blocks the apply loop) and per-peer reader threads
/// feeding the one lock-free up lane.
pub struct TcpCoordLink<U, D> {
    ups: Lane<CoordEvent<U>>,
    writers: Vec<Sender<WriterCmd>>,
    /// Frame buffers the writer threads have written out, handed back
    /// for the next frame to encode into (at most one per frame in
    /// flight).
    spent: Receiver<Vec<u8>>,
    /// Read-half clones, shut down on drop so reader threads unblock.
    read_halves: Vec<TcpStream>,
    writer_threads: Vec<JoinHandle<()>>,
    reader_threads: Vec<JoinHandle<()>>,
    _down: PhantomData<fn(D)>,
}

impl<U: Decode + Send + 'static, D: Encode> TcpCoordLink<U, D> {
    /// Accept `k` sites (one stream each) on `listener`.
    ///
    /// Blocks until all `k` streams have connected and sent their HELLO
    /// frames. Site ids must be unique and `< k`.
    pub fn accept(listener: &TcpListener, k: usize) -> io::Result<Self> {
        // Per site, its stream, filled as HELLOs arrive.
        let mut streams: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
        for _ in 0..k {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let Some((kind::HELLO, payload)) = read_frame(&mut stream)? else {
                return Err(invalid("peer did not start with HELLO"));
            };
            let site: usize = decode_exact(&payload)?;
            let slot = streams
                .get_mut(site)
                .ok_or_else(|| invalid(format!("no site {site} (k = {k})")))?;
            if slot.replace(stream).is_some() {
                return Err(invalid(format!("duplicate connection for site {site}")));
            }
        }

        let (up_tx, ups) = lane();
        let mut writers = Vec::with_capacity(k);
        let (spent_tx, spent) = channel::<Vec<u8>>();
        let mut read_halves = Vec::with_capacity(k);
        let mut writer_threads = Vec::with_capacity(k);
        let mut reader_threads = Vec::with_capacity(k);

        for (site, stream) in streams.into_iter().enumerate() {
            let stream = stream.expect("filled above");

            // Per-peer writer thread: downs / pings / stop for this site.
            let mut write_half = stream.try_clone()?;
            let (wtx, wrx) = channel::<WriterCmd>();
            writers.push(wtx);
            let spent_tx = spent_tx.clone();
            writer_threads.push(std::thread::spawn(move || {
                while let Ok(Some(frame)) = wrx.recv() {
                    if write_half.write_all(&frame).is_err() {
                        return;
                    }
                    let _ = spent_tx.send(frame);
                }
            }));

            // Per-peer reader thread: ups / pongs / eos into the up lane.
            read_halves.push(stream.try_clone()?);
            let mut read_half = BufReader::new(stream);
            let tx = up_tx.clone();
            reader_threads.push(std::thread::spawn(move || {
                // Anything but a clean close takes the link down.
                if read_ups(&mut read_half, site, &tx).is_err() {
                    tx.send(CoordEvent::Closed(site));
                }
            }));
        }

        Ok(Self {
            ups,
            writers,
            spent,
            read_halves,
            writer_threads,
            reader_threads,
            _down: PhantomData,
        })
    }
}

/// One coordinator-side reader thread: decode frames off `site`'s
/// stream into the up lane. `Ok` is a clean close (after STOP).
fn read_ups<U: Decode>(stream: &mut impl Read, site: SiteId, tx: &UpTx<U>) -> io::Result<()> {
    let mut payload = Vec::new();
    loop {
        tx.send(match read_frame_into(stream, &mut payload)? {
            Some(kind::UP) => CoordEvent::Up(site, decode_exact(&payload)?),
            Some(kind::PONG) => CoordEvent::Pong(site, decode_exact(&payload)?),
            Some(kind::EOS) => CoordEvent::Eos(site),
            None => return Ok(()),
            Some(other) => return Err(invalid(format!("unexpected frame kind {other}"))),
        });
    }
}

impl<U, D> TcpCoordLink<U, D> {
    /// Queue `v` to site `to`'s writer as one whole frame, encoded into
    /// a spent buffer when one is free.
    fn send_frame<T: Encode + ?Sized>(&self, to: SiteId, kind: u8, v: &T) -> io::Result<()> {
        let mut frame = self.spent.try_recv().unwrap_or_default();
        encode_frame_into(kind, v, &mut frame)?;
        self.writers[to]
            .send(Some(frame))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "writer thread gone"))
    }
}

impl<U, D: Encode> CoordLink<U, D> for TcpCoordLink<U, D> {
    fn k(&self) -> usize {
        self.writers.len()
    }

    fn send_down(&mut self, to: SiteId, down: D) -> io::Result<()> {
        self.send_frame(to, kind::DOWN, &down)
    }

    fn ping(&mut self, nonce: u64) -> io::Result<()> {
        (0..self.writers.len()).try_for_each(|to| self.send_frame(to, kind::PING, &nonce))
    }

    fn stop(&mut self) -> io::Result<()> {
        for to in 0..self.writers.len() {
            let _ = self.send_frame(to, kind::STOP, &());
            let _ = self.writers[to].send(None);
        }
        // Wait until every queued frame — the STOP last — is handed to
        // the kernel: a caller may drop the link or exit right after,
        // and a site that never sees its STOP reports a dead coordinator.
        for h in self.writer_threads.drain(..) {
            let _ = h.join();
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Option<CoordEvent<U>> {
        self.ups.try_recv()
    }

    fn recv(&mut self) -> Option<CoordEvent<U>> {
        self.ups.recv()
    }
}

impl<U, D> Drop for TcpCoordLink<U, D> {
    fn drop(&mut self) {
        for w in &self.writers {
            let _ = w.send(None);
        }
        for s in &self.read_halves {
            let _ = s.shutdown(Shutdown::Both);
        }
        let threads = self.writer_threads.drain(..);
        for h in threads.chain(self.reader_threads.drain(..)) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// The halves.
// ---------------------------------------------------------------------

/// One site's role (see the module docs): feed it the site's local
/// stream.
pub struct SiteHalf<S: Site, L> {
    site: S,
    link: L,
    out: Outbox<S::Up>,
    stats: CommStats,
    stopped: bool,
}

impl<S: Site, L: SiteLink<S::Up, S::Down>> SiteHalf<S, L> {
    /// Wrap a built site over its link.
    pub fn new(site: S, link: L) -> Self {
        Self {
            site,
            link,
            out: Outbox::new(),
            stats: CommStats::default(),
            stopped: false,
        }
    }

    /// Process one stream element: pending control first, then — while
    /// the link's fairness gate holds — whatever control arrives, then
    /// the element, then its ups.
    pub fn feed(&mut self, item: &S::Item) -> io::Result<()> {
        self.pump()?;
        while let Some(ev) = self.link.gate()? {
            self.handle(ev)?;
        }
        self.stats.elements += 1;
        self.site.on_item(item, &mut self.out);
        self.flush()
    }

    /// Drain every control message currently queued.
    #[inline]
    pub fn pump(&mut self) -> io::Result<()> {
        while !self.stopped {
            let Some(ev) = self.link.try_recv() else {
                break;
            };
            self.handle(ev)?;
        }
        Ok(())
    }

    /// Announce end of the local stream (the coordinator's
    /// [`CoordHalf::pump_until_eos`] counts these).
    pub fn finish_stream(&mut self) -> io::Result<()> {
        self.pump()?;
        self.link.eos()
    }

    /// Serve downs and quiesce probes until the coordinator says stop.
    /// A link that closes without a `Stop` is an error
    /// (`ConnectionAborted`): a site whose coordinator died must not
    /// report a clean run.
    pub fn run_until_stop(&mut self) -> io::Result<()> {
        while !self.stopped {
            let ev = self.link.recv().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "coordinator link closed without a stop",
                )
            })?;
            self.handle(ev)?;
        }
        Ok(())
    }

    fn handle(&mut self, ev: SiteEvent<S::Down>) -> io::Result<()> {
        match ev {
            SiteEvent::Down(d) => {
                // As received: one unicast, whichever send it was a copy of.
                self.stats.charge_down(&d, Dest::Site(0), 1);
                self.site.on_message(&d, &mut self.out);
                self.flush()
            }
            SiteEvent::Ping(nonce) => self.link.pong(nonce),
            SiteEvent::Stop => {
                self.stopped = true;
                Ok(())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        for up in self.out.drain() {
            self.stats.charge_up(&up);
            self.link.send_up(up)?;
        }
        Ok(())
    }

    /// This half's local accounting (ups as sent, downs as received).
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// The wrapped site state.
    pub fn site(&self) -> &S {
        &self.site
    }

    /// The link this half runs over.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Whether the coordinator has said stop.
    pub fn stopped(&self) -> bool {
        self.stopped
    }
}

/// The coordinator's role: the one apply loop.
pub struct CoordHalf<C: Coordinator, L> {
    core: CoordCore<C>,
    link: L,
    eos: Vec<bool>,
    /// Current quiesce round and, per site, whether it has ponged it.
    nonce: u64,
    ponged: Vec<bool>,
}

impl<C: Coordinator, L: CoordLink<C::Up, C::Down>> CoordHalf<C, L> {
    /// Wrap a built coordinator over its link.
    pub fn new(coord: C, link: L) -> Self {
        let k = link.k();
        Self {
            core: CoordCore::new(coord),
            link,
            eos: vec![false; k],
            nonce: 0,
            ponged: vec![false; k],
        }
    }

    /// Apply one up, charged as received, and put the resulting downs on
    /// the link; the first send that fails is the error returned.
    fn apply(&mut self, from: SiteId, up: C::Up) -> io::Result<()> {
        self.core.stats_mut().charge_up(&up);
        let link = &mut self.link;
        let mut sent = Ok(());
        self.core.apply(self.eos.len(), from, &up, |to, down| {
            if sent.is_ok() {
                sent = link.send_down(to, down.clone());
            }
        });
        // Publication is coalesced: each published state is a whole
        // coordinator between two applies, so any cadence keeps readers
        // on a prefix of the applied ups.
        if self.core.stale() >= PUBLISH_EVERY {
            self.core.publish();
        }
        sent
    }

    fn on_event(&mut self, ev: CoordEvent<C::Up>) -> io::Result<()> {
        match ev {
            CoordEvent::Up(from, up) => self.apply(from, up)?,
            // A flag, not a count: a peer can send any number of them.
            CoordEvent::Pong(site, nonce) if nonce == self.nonce => self.ponged[site] = true,
            // A pong of an earlier round is stale; drop it.
            CoordEvent::Pong(..) => {}
            CoordEvent::Eos(site) => self.eos[site] = true,
            CoordEvent::Closed(site) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    format!("site {site} link closed unexpectedly"),
                ))
            }
        }
        Ok(())
    }

    /// Apply what is queued, without blocking — at most one credit
    /// window of events (per site `SITE_CREDIT` ups, a round's pong, an
    /// eos and a close). On in-process links nothing more can have
    /// been outstanding when the call was made, and the bound keeps sites
    /// that refill the lanes as fast as they drain from starving a
    /// caller with other duties (the channel runtime's command lane).
    pub fn pump(&mut self) -> io::Result<()> {
        for _ in 0..self.eos.len() as u64 * (SITE_CREDIT + 3) {
            let Some(ev) = self.link.try_recv() else {
                break;
            };
            self.on_event(ev)?;
        }
        self.core.publish_stale();
        Ok(())
    }

    /// The apply loop, blocking: take and handle events while `more`.
    /// Catching up (nothing queued) publishes the pending snapshot before
    /// blocking, so idle readers see the latest apply.
    fn run_while(&mut self, more: impl Fn(&Self) -> bool) -> io::Result<()> {
        while more(self) {
            let ev = match self.link.try_recv() {
                Some(ev) => ev,
                None => {
                    self.core.publish_stale();
                    self.link.recv().ok_or_else(|| {
                        io::Error::new(io::ErrorKind::ConnectionAborted, "all site links closed")
                    })?
                }
            };
            self.on_event(ev)?;
        }
        Ok(())
    }

    /// Apply ups until every site has announced end-of-stream.
    pub fn pump_until_eos(&mut self) -> io::Result<()> {
        self.run_while(|half| !half.eos.iter().all(|&done| done))
    }

    /// Distributed quiesce: ping/pong rounds until a round applies no
    /// new up and emits no new down (see the module docs for why FIFO
    /// links make one silent round a settlement proof).
    /// Returns the number of rounds, or `TimedOut` if the protocol is
    /// still talking after `MAX_QUIESCE_ROUNDS` of them. On return the
    /// live-query snapshot, if any, is the settled state.
    pub fn quiesce(&mut self) -> io::Result<u32> {
        for round in 1..=MAX_QUIESCE_ROUNDS {
            // A backlog queued before the barrier should not cost a round.
            self.pump()?;
            let before = (self.core.stats().up_msgs, self.core.stats().down_msgs);
            self.nonce += 1;
            self.ponged.fill(false);
            self.link.ping(self.nonce)?;
            self.run_while(|half| !half.ponged.iter().all(|&p| p))?;
            if (self.core.stats().up_msgs, self.core.stats().down_msgs) == before {
                self.core.publish_stale();
                return Ok(round);
            }
        }
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            format!("transport failed to quiesce within {MAX_QUIESCE_ROUNDS} rounds"),
        ))
    }

    /// Tell every site to shut down.
    pub fn stop(&mut self) -> io::Result<()> {
        self.link.stop()
    }

    /// The coordinator state (quiesce first for a consistent cut).
    pub fn coord(&self) -> &C {
        self.core.coord()
    }

    /// The link this half runs over.
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Consume the half, yielding the coordinator and its accounting.
    pub fn into_parts(self) -> (C, CommStats) {
        self.core.into_parts()
    }

    /// This half's accounting (ups as received/applied, downs as sent).
    pub fn stats(&self) -> &CommStats {
        self.core.stats()
    }

    /// Create (or clone) a live-query handle. The half
    /// publishes an epoch-stamped snapshot of the coordinator at apply
    /// boundaries — whenever it catches up with its lanes, at least
    /// every [`PUBLISH_EVERY`] applies under sustained load, and when
    /// [`CoordHalf::quiesce`] settles (a handle read then equals
    /// [`CoordHalf::coord`]) — so reader threads answer queries while
    /// the loop runs, each from a whole coordinator state between two
    /// applies. Installing a handle changes no protocol behavior: no
    /// message is added, no word charged.
    pub fn query_handle(&mut self) -> QueryHandle<C> {
        self.core.query_handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Net;
    use crate::protocol::Coordinator;
    use crate::wire::{WireReader, WireSink};
    use std::io::Write;

    /// Echo protocol: sites forward each item; the coordinator sums
    /// and, every 100 applies, broadcasts its apply count — unlike the running sum,
    /// that does not depend on the interleaving, so down bytes compare
    /// across links.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct EchoUp(u64);

    impl Encode for EchoUp {
        fn encode(&self, w: &mut impl WireSink) {
            w.put_varint(self.0);
        }
    }

    impl Decode for EchoUp {
        fn decode(r: &mut WireReader<'_>) -> Result<Self, crate::wire::WireError> {
            Ok(EchoUp(r.varint()?))
        }
    }

    struct EchoSite;
    impl Site for EchoSite {
        type Item = u64;
        type Up = EchoUp;
        type Down = u64;
        fn on_item(&mut self, item: &u64, out: &mut Outbox<EchoUp>) {
            out.send(EchoUp(*item));
        }
        fn on_message(&mut self, _: &u64, _: &mut Outbox<EchoUp>) {}
        fn space_words(&self) -> u64 {
            1
        }
    }

    #[derive(Clone)]
    struct SumCoord {
        sum: u64,
        applies: u64,
    }
    impl Coordinator for SumCoord {
        type Up = EchoUp;
        type Down = u64;
        fn on_message(&mut self, _from: SiteId, msg: &EchoUp, net: &mut Net<u64>) {
            self.sum += msg.0;
            self.applies += 1;
            if self.applies.is_multiple_of(100) {
                net.broadcast(self.applies);
            }
        }
    }

    fn run_sites<L>(links: Vec<L>, per_site: u64) -> Vec<std::thread::JoinHandle<CommStats>>
    where
        L: SiteLink<EchoUp, u64> + Send + 'static,
    {
        links
            .into_iter()
            .enumerate()
            .map(|(id, link)| {
                std::thread::spawn(move || {
                    let mut half = SiteHalf::new(EchoSite, link);
                    for i in 0..per_site {
                        half.feed(&(id as u64 * per_site + i)).unwrap();
                    }
                    half.finish_stream().unwrap();
                    half.run_until_stop().unwrap();
                    half.stats().clone()
                })
            })
            .collect()
    }

    fn drive_coord<L: CoordLink<EchoUp, u64>>(link: L) -> (u64, CommStats) {
        let mut coord = CoordHalf::new(SumCoord { sum: 0, applies: 0 }, link);
        coord.pump_until_eos().unwrap();
        coord.quiesce().unwrap();
        let sum = coord.coord().sum;
        coord.stop().unwrap();
        let (_, stats) = coord.into_parts();
        (sum, stats)
    }

    const K: usize = 4;
    const PER_SITE: u64 = 2_500;

    fn expected_sum() -> u64 {
        (0..K as u64 * PER_SITE).sum()
    }

    #[test]
    fn in_process_halves_reach_the_lockstep_answer() {
        let (site_links, coord_link) = in_process_links::<EchoUp, u64>(K);
        let handles = run_sites(site_links, PER_SITE);
        let (sum, stats) = drive_coord(coord_link);
        assert_eq!(sum, expected_sum());
        assert_eq!(stats.up_msgs, K as u64 * PER_SITE);
        assert_eq!(stats.up_words, K as u64 * PER_SITE);
        assert!(stats.up_bytes > 0 && stats.up_bytes < 8 * stats.up_words);
        // Every 100th apply broadcast to K sites.
        assert_eq!(stats.broadcast_events, K as u64 * PER_SITE / 100);
        assert_eq!(stats.down_msgs, stats.broadcast_events * K as u64);
        for h in handles {
            let site_stats = h.join().unwrap();
            assert_eq!(site_stats.elements, PER_SITE);
            assert_eq!(site_stats.down_msgs, stats.broadcast_events);
        }
    }

    #[test]
    fn tcp_halves_match_in_process_bit_for_bit() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let site_threads: Vec<_> = (0..K)
            .map(|id| {
                std::thread::spawn(move || {
                    let link = TcpSiteLink::<EchoUp, u64>::connect(addr, id).unwrap();
                    let mut half = SiteHalf::new(EchoSite, link);
                    for i in 0..PER_SITE {
                        half.feed(&(id as u64 * PER_SITE + i)).unwrap();
                    }
                    half.finish_stream().unwrap();
                    half.run_until_stop().unwrap();
                    half.stats().clone()
                })
            })
            .collect();
        let coord_link = TcpCoordLink::<EchoUp, u64>::accept(&listener, K).unwrap();
        let (tcp_sum, tcp_stats) = drive_coord(coord_link);

        let (site_links, coord_link) = in_process_links::<EchoUp, u64>(K);
        let handles = run_sites(site_links, PER_SITE);
        let (inproc_sum, inproc_stats) = drive_coord(coord_link);
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(tcp_sum, inproc_sum);
        assert_eq!(tcp_stats.up_msgs, inproc_stats.up_msgs);
        assert_eq!(tcp_stats.up_words, inproc_stats.up_words);
        assert_eq!(tcp_stats.up_bytes, inproc_stats.up_bytes);
        assert_eq!(tcp_stats.broadcast_events, inproc_stats.broadcast_events);
        assert_eq!(tcp_stats.down_msgs, inproc_stats.down_msgs);
        assert_eq!(tcp_stats.down_words, inproc_stats.down_words);
        assert_eq!(tcp_stats.down_bytes, inproc_stats.down_bytes);
        for h in site_threads {
            let site_stats = h.join().unwrap();
            assert_eq!(site_stats.elements, PER_SITE);
            assert_eq!(site_stats.down_msgs, tcp_stats.broadcast_events);
        }
    }

    #[test]
    fn live_query_handle_tracks_applies_and_settles_on_quiesce() {
        let (site_links, coord_link) = in_process_links::<EchoUp, u64>(2);
        let handles = run_sites(site_links, 500);
        let mut coord = CoordHalf::new(SumCoord { sum: 0, applies: 0 }, coord_link);
        let live = coord.query_handle();
        coord.pump_until_eos().unwrap();
        coord.quiesce().unwrap();
        assert_eq!(live.read(|s| s.state.sum), coord.coord().sum);
        assert_eq!(live.read(|s| s.state.sum), (0..1_000u64).sum::<u64>());
        coord.stop().unwrap();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn publication_is_coalesced_under_sustained_ups() {
        // Every site ships exactly one credit window and its eos before
        // the coordinator takes its first event, so the apply loop never
        // catches up mid-run: it must publish on the PUBLISH_EVERY
        // cadence, not once per apply.
        let k = 4;
        let (site_links, coord_link) = in_process_links::<EchoUp, u64>(k);
        let mut sites: Vec<_> = site_links
            .into_iter()
            .map(|link| SiteHalf::new(EchoSite, link))
            .collect();
        for (id, half) in sites.iter_mut().enumerate() {
            for i in 0..SITE_CREDIT {
                half.feed(&(id as u64 * SITE_CREDIT + i)).unwrap();
            }
            half.finish_stream().unwrap();
        }
        let mut coord = CoordHalf::new(SumCoord { sum: 0, applies: 0 }, coord_link);
        let live = coord.query_handle();
        coord.pump_until_eos().unwrap();
        let handles: Vec<_> = sites
            .into_iter()
            .map(|mut half| std::thread::spawn(move || half.run_until_stop().unwrap()))
            .collect();
        coord.quiesce().unwrap();

        let applies = coord.stats().up_msgs;
        assert_eq!(applies, k as u64 * SITE_CREDIT);
        let epochs = live.epoch();
        assert!(
            epochs > 0 && epochs <= applies / u64::from(PUBLISH_EVERY) + 2,
            "{epochs} epochs for {applies} applies"
        );
        assert_eq!(live.read(|s| s.state.sum), coord.coord().sum);
        assert_eq!(coord.coord().sum, (0..applies).sum::<u64>());
        coord.stop().unwrap();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn credit_caps_a_site_over_bare_halves() {
        // The runtime's credit test without the runtime: a chatty site
        // (an up per element) over bare in-process halves may never run
        // more than SITE_CREDIT + 1 ups ahead of a slow coordinator — the
        // cap is the link pair's, not the executor's.
        use std::sync::atomic::AtomicU64 as A;
        static SENT: A = A::new(0);
        static APPLIED: A = A::new(0);
        static MAX_GAP: A = A::new(0);

        struct GapSite;
        impl Site for GapSite {
            type Item = u64;
            type Up = EchoUp;
            type Down = u64;
            fn on_item(&mut self, item: &u64, out: &mut Outbox<EchoUp>) {
                let sent = SENT.fetch_add(1, Ordering::SeqCst) + 1;
                let gap = sent.saturating_sub(APPLIED.load(Ordering::SeqCst));
                MAX_GAP.fetch_max(gap, Ordering::SeqCst);
                out.send(EchoUp(*item));
            }
            fn on_message(&mut self, _: &u64, _: &mut Outbox<EchoUp>) {}
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct SlowCoord;
        impl Coordinator for SlowCoord {
            type Up = EchoUp;
            type Down = u64;
            fn on_message(&mut self, _: SiteId, _: &EchoUp, _: &mut Net<u64>) {
                APPLIED.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(20));
            }
        }

        let (mut site_links, coord_link) = in_process_links::<EchoUp, u64>(1);
        let link = site_links.pop().unwrap();
        let site = std::thread::spawn(move || {
            let mut half = SiteHalf::new(GapSite, link);
            for i in 0..2_000u64 {
                half.feed(&i).unwrap();
            }
            half.finish_stream().unwrap();
            half.run_until_stop().unwrap();
        });
        let mut coord = CoordHalf::new(SlowCoord, coord_link);
        coord.pump_until_eos().unwrap();
        coord.quiesce().unwrap();
        assert_eq!(coord.stats().up_msgs, 2_000);
        coord.stop().unwrap();
        site.join().unwrap();
        // +1: the element being processed when the gap was sampled.
        let max_gap = MAX_GAP.load(Ordering::SeqCst);
        assert!(
            max_gap <= SITE_CREDIT + 1,
            "site ran {max_gap} ups ahead of the coordinator (credit {SITE_CREDIT})"
        );
    }

    #[test]
    fn quiesce_times_out_on_a_protocol_that_never_settles() {
        // The site answers every down with an up and the coordinator
        // every up with a down: no round is ever silent. That is a typed
        // `TimedOut`, not a panic on the coordinator's thread.
        struct ChatSite;
        impl Site for ChatSite {
            type Item = u64;
            type Up = EchoUp;
            type Down = u64;
            fn on_item(&mut self, item: &u64, out: &mut Outbox<EchoUp>) {
                out.send(EchoUp(*item));
            }
            fn on_message(&mut self, _: &u64, out: &mut Outbox<EchoUp>) {
                out.send(EchoUp(1));
            }
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct ChatCoord;
        impl Coordinator for ChatCoord {
            type Up = EchoUp;
            type Down = u64;
            fn on_message(&mut self, from: SiteId, _: &EchoUp, net: &mut Net<u64>) {
                net.send(from, 0);
            }
        }

        let (mut site_links, coord_link) = in_process_links::<EchoUp, u64>(1);
        let link = site_links.pop().unwrap();
        let site = std::thread::spawn(move || {
            let mut half = SiteHalf::new(ChatSite, link);
            half.feed(&1).unwrap();
            half.finish_stream().unwrap();
            half.run_until_stop().unwrap();
        });
        let mut coord = CoordHalf::new(ChatCoord, coord_link);
        coord.pump_until_eos().unwrap();
        let err = coord.quiesce().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        coord.stop().unwrap();
        site.join().unwrap();
    }

    #[test]
    fn a_link_closed_without_stop_is_not_a_clean_run() {
        // The coordinator end dies (dropped) without ever saying stop.
        let (mut site_links, coord_link) = in_process_links::<EchoUp, u64>(1);
        let mut half = SiteHalf::new(EchoSite, site_links.pop().unwrap());
        half.feed(&7).unwrap();
        drop(coord_link);
        let err = half.run_until_stop().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionAborted);
    }

    #[test]
    fn a_tcp_site_parked_in_run_until_stop_sees_its_coordinator_die() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let link = TcpSiteLink::<EchoUp, u64>::connect(addr, 0).unwrap();
        let coord_link = TcpCoordLink::<EchoUp, u64>::accept(&listener, 1).unwrap();
        let site_wake = Arc::clone(link.ctrl.wake());
        let (done_tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut half = SiteHalf::new(EchoSite, link);
            half.feed(&7).unwrap();
            let _ = done_tx.send(half.run_until_stop().map_err(|e| e.kind()));
        });
        // Only `run_until_stop` parks this site: nothing is sent to it.
        crate::ring::wait_until("site parked", || site_wake.is_parked());
        drop(coord_link);
        // A lost wakeup fails here instead of hanging the suite.
        let ended = done.recv_timeout(std::time::Duration::from_secs(30));
        assert_eq!(ended, Ok(Err(io::ErrorKind::ConnectionAborted)));
    }

    #[test]
    fn quiesce_settles_after_down_triggered_work() {
        // A coordinator that replies to the first up it sees from each
        // site; the site acks the reply. Quiesce must not return until
        // the ack round-trips.
        struct AckSite {
            acked: bool,
        }
        impl Site for AckSite {
            type Item = u64;
            type Up = EchoUp;
            type Down = u64;
            fn on_item(&mut self, item: &u64, out: &mut Outbox<EchoUp>) {
                out.send(EchoUp(*item));
            }
            fn on_message(&mut self, _msg: &u64, out: &mut Outbox<EchoUp>) {
                if !self.acked {
                    self.acked = true;
                    out.send(EchoUp(1_000_000));
                }
            }
            fn space_words(&self) -> u64 {
                1
            }
        }
        #[derive(Clone)]
        struct PokeCoord {
            ups: u64,
            poked: bool,
        }
        impl Coordinator for PokeCoord {
            type Up = EchoUp;
            type Down = u64;
            fn on_message(&mut self, from: SiteId, _msg: &EchoUp, net: &mut Net<u64>) {
                self.ups += 1;
                if !self.poked {
                    self.poked = true;
                    net.send(from, 7);
                }
            }
        }

        let (mut site_links, coord_link) = in_process_links::<EchoUp, u64>(1);
        let link = site_links.pop().unwrap();
        let h = std::thread::spawn(move || {
            let mut half = SiteHalf::new(AckSite { acked: false }, link);
            half.feed(&42).unwrap();
            half.finish_stream().unwrap();
            half.run_until_stop().unwrap();
        });
        let mut coord = CoordHalf::new(
            PokeCoord {
                ups: 0,
                poked: false,
            },
            coord_link,
        );
        coord.pump_until_eos().unwrap();
        coord.quiesce().unwrap();
        // One element up + one ack up provoked by the down.
        assert_eq!(coord.coord().ups, 2);
        coord.stop().unwrap();
        h.join().unwrap();
    }

    #[test]
    fn a_pong_flood_saturates_the_barrier_count() {
        // Every pong carrying the current nonce sets its site's barrier
        // flag, and the nonce is 0 before the first round: a site can
        // send 256 of them without reading a ping. A flag only saturates
        // — there is no count to overflow on the coordinator's thread —
        // and the run behind the flood settles.
        let (mut site_links, coord_link) = in_process_links::<EchoUp, u64>(1);
        for _ in 0..256 {
            site_links[0].pong(0).unwrap();
        }
        let handles = run_sites(site_links, 10);
        let (sum, _) = drive_coord(coord_link);
        assert_eq!(sum, (0..10).sum::<u64>());
        for h in handles {
            h.join().unwrap();
        }
    }

    // -----------------------------------------------------------------
    // Frame-rejection suite: a peer feeding the accept loop malformed
    // bytes must surface as `CoordEvent::Closed` — never a hang, a
    // panic, or a silently wrong message. (The codec-level corruption
    // cases live in `crate::wire`; these drive the full socket path.)
    // -----------------------------------------------------------------

    /// A coordinator link whose only site is a raw peer: it handshakes
    /// well-formed, then `client` writes what it likes on the stream.
    /// Join the peer once the link has seen what the test waits for — it
    /// keeps the stream open until then.
    fn link_to_raw_peer(
        client: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> (
        TcpCoordLink<EchoUp, u64>,
        std::thread::JoinHandle<TcpStream>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            write_frame(&mut stream, kind::HELLO, &encode_to_vec(&0usize)).unwrap();
            client(&mut stream);
            stream
        });
        (TcpCoordLink::accept(&listener, 1).unwrap(), peer)
    }

    /// Let `client` misbehave on the stream; assert the coordinator
    /// observes `Closed(0)`.
    fn expect_closed_after(client: impl FnOnce(&mut TcpStream) + Send + 'static) {
        let (mut link, h) = link_to_raw_peer(client);
        loop {
            match link.recv() {
                Some(CoordEvent::Closed(0)) => break,
                Some(CoordEvent::Up(..)) => continue, // valid traffic before the poison
                other => panic!("expected Closed(0), got {:?}", other.map(|_| "event")),
            }
        }
        h.join().unwrap();
    }

    #[test]
    fn undecodable_up_payload_closes_the_link() {
        // 0x80 starts a varint whose continuation never arrives.
        expect_closed_after(|data| {
            write_frame(data, kind::UP, &[0x80]).unwrap();
        });
    }

    #[test]
    fn trailing_bytes_after_a_valid_up_close_the_link() {
        // A valid EchoUp(5) followed by a stray byte: the per-message
        // `finish()` in the reader must reject it.
        expect_closed_after(|data| {
            write_frame(data, kind::UP, &[0x05, 0x99]).unwrap();
        });
    }

    #[test]
    fn unknown_frame_kind_closes_the_link() {
        expect_closed_after(|data| {
            write_frame(data, 200, &[]).unwrap();
        });
    }

    #[test]
    fn corrupt_pong_payload_closes_the_link() {
        // An empty PONG payload has no nonce varint.
        expect_closed_after(|data| {
            write_frame(data, kind::PONG, &[]).unwrap();
        });
    }

    #[test]
    fn oversized_length_prefix_closes_the_link() {
        // Hand-rolled header claiming a frame far past MAX_FRAME_LEN:
        // the reader must reject the claim, not allocate or wait for
        // 4 GiB that will never come.
        expect_closed_after(|data| {
            let mut header = vec![kind::UP];
            header.extend_from_slice(&u32::MAX.to_le_bytes());
            data.write_all(&header).unwrap();
        });
    }

    #[test]
    fn torn_frame_closes_the_link() {
        // A frame cut mid-payload by a shutdown: torn, not clean EOF.
        expect_closed_after(|data| {
            let mut header = vec![kind::UP];
            header.extend_from_slice(&8u32.to_le_bytes());
            data.write_all(&header).unwrap();
            data.write_all(&[0x01, 0x02]).unwrap(); // 2 of the promised 8 bytes
            data.shutdown(std::net::Shutdown::Write).unwrap();
        });
    }

    #[test]
    fn valid_traffic_before_the_poison_still_arrives() {
        // Ordering: two good ups, then garbage — both ups must be
        // delivered (in order) before the Closed.
        let (mut link, h) = link_to_raw_peer(|data| {
            write_frame(data, kind::UP, &encode_to_vec(&EchoUp(7))).unwrap();
            write_frame(data, kind::UP, &encode_to_vec(&EchoUp(9))).unwrap();
            write_frame(data, 200, &[]).unwrap();
        });
        let mut ups = Vec::new();
        loop {
            match link.recv() {
                Some(CoordEvent::Up(0, up)) => ups.push(up.0),
                Some(CoordEvent::Closed(0)) => break,
                other => panic!("unexpected event: {:?}", other.map(|_| "event")),
            }
        }
        assert_eq!(ups, vec![7, 9]);
        h.join().unwrap();
    }

    #[test]
    fn a_pong_flood_from_a_peer_does_not_panic_the_coordinator() {
        // 256 PONG frames carrying nonce 0 — the barrier's nonce before
        // its first round, so the peer need not even read a ping — then
        // EOS. Bytes from a peer must not be able to panic the
        // coordinator's thread through the barrier's per-site flag.
        let (link, h) = link_to_raw_peer(|data| {
            for _ in 0..256 {
                write_frame(data, kind::PONG, &encode_to_vec(&0u64)).unwrap();
            }
            write_frame(data, kind::EOS, &[]).unwrap();
        });
        let mut coord = CoordHalf::new(SumCoord { sum: 0, applies: 0 }, link);
        coord.pump_until_eos().unwrap();
        h.join().unwrap();
    }
}
