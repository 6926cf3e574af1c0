//! Deployment frontends: site-half / coordinator-half over a transport.
//!
//! [`crate::runtime::ChannelRuntime`] composes `k` site threads and a
//! coordinator thread *inside one process*, hard-wired to the lock-free
//! lanes of [`crate::ring`]. This module splits that composition into
//! its two halves and makes the lanes pluggable, so the same protocol
//! state machines deploy as separate OS processes:
//!
//! * [`SiteHalf`] — one site's ingest loop: control lane drained before
//!   every element (a pending broadcast or seal overtakes queued data,
//!   exactly like the channel runtime), ups flushed with urgent routing
//!   ([`Words::urgent`]), word *and* byte accounting charged on send.
//! * [`CoordHalf`] — the coordinator's apply loop: urgent lane drained
//!   first, downs fanned out (a broadcast charges `k ×`), optional
//!   lock-free live queries via an epoch-stamped snapshot cell
//!   ([`CoordHalf::query_handle`]), and a distributed quiesce barrier
//!   ([`CoordHalf::quiesce`]).
//!
//! Both halves are generic over a pair of link traits — [`SiteLink`] /
//! [`CoordLink`] — with two implementations:
//!
//! * **In-process** ([`in_process_links`]): the existing lock-free MPSC
//!   lanes and [`WakeCell`] parking from [`crate::ring`] — the same
//!   primitives the channel runtime runs on — for running both halves
//!   on threads of one process.
//! * **Sockets** ([`TcpSiteLink`] / [`TcpCoordLink`]): `std::net`
//!   TCP streams carrying length-prefixed frames
//!   ([`crate::wire::write_frame`]). Each site opens **two** streams —
//!   an ordinary lane and an urgent lane, so heartbeats overtake report
//!   backlogs across the process boundary just as they overtake queue
//!   backlogs inside one — and the coordinator runs one reader thread
//!   per stream plus one writer thread per peer (a slow site's TCP
//!   window can never block the coordinator's apply loop; downs queue
//!   in the writer's unbounded buffer instead).
//!
//! ## Frame vocabulary
//!
//! ```text
//! kind  dir          payload
//! HELLO site→coord   varint site_id, varint lane (0 data, 1 urgent)
//! UP    site→coord   Encode-d up message (either stream)
//! DOWN  coord→site   Encode-d down message (data stream)
//! PING  coord→site   varint nonce            (quiesce probe)
//! PONG  site→coord   varint nonce            (sent on BOTH streams)
//! EOS   site→coord   —                       (local stream exhausted)
//! STOP  coord→site   —                       (shut down)
//! ```
//!
//! ## The quiesce barrier
//!
//! [`CoordHalf::quiesce`] runs rounds of a ping/pong handshake. A round
//! pings every site and waits for each site's pong on *both* lanes.
//! Per-lane FIFO gives the fencing: the ping queues behind every down
//! already sent to that site, so the site has applied them (and shipped
//! any replies) before it pongs; the pong queues behind every up the
//! site sent on that lane, so the coordinator has applied those before
//! counting the pong. If a round completes without the coordinator
//! applying any new up or emitting any new down, nothing is in flight —
//! the system is exactly where a lock-step execution that processed the
//! same per-site sequences would be. Protocols whose answers are
//! insensitive to cross-site interleaving (e.g. one-way deterministic
//! count, whose coordinator sums last-per-site reports) therefore
//! answer **bit-identically** over sockets, in-process links, and the
//! channel runtime.

use std::io::{self};
use std::marker::PhantomData;
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam_channel::{unbounded, Sender as FrameSender};

use crate::message::{Decode, Encode, Words};
use crate::net::{Dest, Net, Outbox};
use crate::protocol::{Coordinator, Site, SiteId};
use crate::ring::{mpsc, MpscReceiver, MpscSender, WakeCell};
use crate::snapshot::{snapshot_cell, QueryHandle};
use crate::stats::CommStats;
use crate::wire::{encode_into, read_frame, write_frame, WireReader, WireWriter};

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

/// Stream roles announced by the HELLO frame.
const LANE_DATA: u64 = 0;
const LANE_URGENT: u64 = 1;

/// Every pong is emitted once per lane, so a quiesce round completes a
/// site after this many pongs (both link implementations have two
/// site→coordinator lanes).
const PONGS_PER_SITE: u8 = 2;

/// Upper bound on quiesce rounds before concluding the protocol cannot
/// settle (mirrors the channel runtime's sweep cap).
const MAX_QUIESCE_ROUNDS: u32 = 10_000;

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
    /// A site's answer to a quiesce probe (one per lane).
    Pong(SiteId, u64),
    /// The site's local stream is exhausted.
    Eos(SiteId),
    /// The site's link died (disconnect, decode failure).
    Closed(SiteId),
}

/// Site-side endpoint of a site ↔ coordinator transport.
///
/// Implementations must preserve per-lane FIFO order and route
/// `urgent` sends out of band relative to ordinary ones (a dedicated
/// queue in process, a dedicated stream across processes).
pub trait SiteLink<U, D> {
    /// Ship one up message.
    fn send_up(&mut self, up: U, urgent: bool) -> io::Result<()>;
    /// Answer a quiesce probe — on **every** lane, so the pong fences
    /// all previously sent ups.
    fn pong(&mut self, nonce: u64) -> io::Result<()>;
    /// Announce the local stream is exhausted.
    fn eos(&mut self) -> io::Result<()>;
    /// Non-blocking poll of the control lane.
    fn try_recv(&mut self) -> Option<SiteEvent<D>>;
    /// Blocking receive; `None` when the link is gone.
    fn recv(&mut self) -> Option<SiteEvent<D>>;
}

/// Coordinator-side endpoint over all `k` sites.
///
/// `recv`/`try_recv` must drain the urgent lane before the ordinary
/// one — the same priority discipline as the channel runtime.
pub trait CoordLink<U, D> {
    /// Number of connected sites.
    fn k(&self) -> usize;
    /// Ship one down message to `to` (never blocks on the peer).
    fn send_down(&mut self, to: SiteId, down: D) -> io::Result<()>;
    /// Probe every site with a quiesce ping.
    fn ping(&mut self, nonce: u64) -> io::Result<()>;
    /// Tell every site to shut down.
    fn stop(&mut self) -> io::Result<()>;
    /// Non-blocking poll, urgent lane first.
    fn try_recv(&mut self) -> Option<CoordEvent<U>>;
    /// Blocking receive, urgent lane first; `None` when every link is
    /// gone.
    fn recv(&mut self) -> Option<CoordEvent<U>>;
}

// ---------------------------------------------------------------------
// In-process links: the channel runtime's lock-free lanes, repackaged.
// ---------------------------------------------------------------------

/// Site end of an in-process link pair (see [`in_process_links`]).
pub struct InProcSiteLink<U, D> {
    id: SiteId,
    ordinary_tx: MpscSender<CoordEvent<U>>,
    urgent_tx: MpscSender<CoordEvent<U>>,
    ctrl_rx: MpscReceiver<SiteEvent<D>>,
    wake: Arc<WakeCell>,
    registered: bool,
}

/// Coordinator end of the in-process links (see [`in_process_links`]).
pub struct InProcCoordLink<U, D> {
    ordinary_rx: MpscReceiver<CoordEvent<U>>,
    urgent_rx: MpscReceiver<CoordEvent<U>>,
    ctrl_txs: Vec<MpscSender<SiteEvent<D>>>,
    wake: Arc<WakeCell>,
    registered: bool,
}

/// Build matched in-process link halves for `k` sites, wired on the
/// same unbounded lock-free MPSC lanes (and [`WakeCell`] spin-then-park
/// idling) the channel runtime uses: one ordinary and one urgent
/// site→coordinator lane shared by all sites, one control lane per
/// site.
pub fn in_process_links<U, D>(k: usize) -> (Vec<InProcSiteLink<U, D>>, InProcCoordLink<U, D>) {
    let coord_wake = Arc::new(WakeCell::new());
    let (ordinary_tx, ordinary_rx) = mpsc::<CoordEvent<U>>(Arc::clone(&coord_wake));
    let (urgent_tx, urgent_rx) = mpsc::<CoordEvent<U>>(Arc::clone(&coord_wake));
    let mut sites = Vec::with_capacity(k);
    let mut ctrl_txs = Vec::with_capacity(k);
    for id in 0..k {
        let wake = Arc::new(WakeCell::new());
        let (ctx, crx) = mpsc::<SiteEvent<D>>(Arc::clone(&wake));
        ctrl_txs.push(ctx);
        sites.push(InProcSiteLink {
            id,
            ordinary_tx: ordinary_tx.clone(),
            urgent_tx: urgent_tx.clone(),
            ctrl_rx: crx,
            wake,
            registered: false,
        });
    }
    (
        sites,
        InProcCoordLink {
            ordinary_rx,
            urgent_rx,
            ctrl_txs,
            wake: coord_wake,
            registered: false,
        },
    )
}

impl<U, D> SiteLink<U, D> for InProcSiteLink<U, D> {
    fn send_up(&mut self, up: U, urgent: bool) -> io::Result<()> {
        let tx = if urgent {
            &self.urgent_tx
        } else {
            &self.ordinary_tx
        };
        tx.send(CoordEvent::Up(self.id, up));
        Ok(())
    }

    fn pong(&mut self, nonce: u64) -> io::Result<()> {
        self.urgent_tx.send(CoordEvent::Pong(self.id, nonce));
        self.ordinary_tx.send(CoordEvent::Pong(self.id, nonce));
        Ok(())
    }

    fn eos(&mut self) -> io::Result<()> {
        self.ordinary_tx.send(CoordEvent::Eos(self.id));
        Ok(())
    }

    fn try_recv(&mut self) -> Option<SiteEvent<D>> {
        self.ctrl_rx.try_recv()
    }

    fn recv(&mut self) -> Option<SiteEvent<D>> {
        loop {
            if let Some(ev) = self.ctrl_rx.try_recv() {
                return Some(ev);
            }
            if self.ctrl_rx.is_disconnected() && self.ctrl_rx.is_empty() {
                return None;
            }
            if !self.registered {
                self.wake.register();
                self.registered = true;
            }
            let rx = &self.ctrl_rx;
            self.wake
                .park_while(|| rx.is_empty() && !rx.is_disconnected());
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
        self.urgent_rx
            .try_recv()
            .or_else(|| self.ordinary_rx.try_recv())
    }

    fn recv(&mut self) -> Option<CoordEvent<U>> {
        loop {
            if let Some(ev) = self.try_recv() {
                return Some(ev);
            }
            let gone = |rx: &MpscReceiver<CoordEvent<U>>| rx.is_disconnected() && rx.is_empty();
            if gone(&self.urgent_rx) && gone(&self.ordinary_rx) {
                return None;
            }
            if !self.registered {
                self.wake.register();
                self.registered = true;
            }
            let (urx, orx) = (&self.urgent_rx, &self.ordinary_rx);
            self.wake.park_while(|| {
                urx.is_empty()
                    && orx.is_empty()
                    && !(urx.is_disconnected() && orx.is_disconnected())
            });
        }
    }
}

// ---------------------------------------------------------------------
// Socket links: length-prefixed frames over std::net TCP.
// ---------------------------------------------------------------------

fn hello_payload(site: SiteId, lane: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(site as u64);
    w.put_varint(lane);
    w.into_bytes()
}

fn varint_payload(v: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_varint(v);
    w.into_bytes()
}

fn decode_varint(payload: &[u8]) -> io::Result<u64> {
    let mut r = WireReader::new(payload);
    let v = r
        .varint()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    r.finish()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(v)
}

/// Site end of the TCP transport: two streams to the coordinator (an
/// ordinary and an urgent lane), a reader thread decoding inbound
/// frames off the data stream.
pub struct TcpSiteLink<U, D> {
    data_w: TcpStream,
    urgent_w: TcpStream,
    events: crossbeam_channel::Receiver<SiteEvent<D>>,
    reader: Option<JoinHandle<()>>,
    /// Encode buffer reused by every `send_up`.
    scratch: Vec<u8>,
    _up: PhantomData<fn(U)>,
}

impl<U: Encode, D: Decode + Send + 'static> TcpSiteLink<U, D> {
    /// Connect to a coordinator serving at `addr` as site `id`.
    pub fn connect<A: ToSocketAddrs>(addr: A, id: SiteId) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let mut data = TcpStream::connect(addr)?;
        data.set_nodelay(true)?;
        write_frame(&mut data, kind::HELLO, &hello_payload(id, LANE_DATA))?;
        let mut urgent = TcpStream::connect(addr)?;
        urgent.set_nodelay(true)?;
        write_frame(&mut urgent, kind::HELLO, &hello_payload(id, LANE_URGENT))?;

        let (tx, rx) = unbounded::<SiteEvent<D>>();
        let mut read_half = data.try_clone()?;
        let reader = std::thread::spawn(move || loop {
            match read_frame(&mut read_half) {
                Ok(Some((kind::DOWN, payload))) => {
                    let mut r = WireReader::new(&payload);
                    let Ok(d) = D::decode(&mut r) else { return };
                    if r.finish().is_err() {
                        return;
                    }
                    if tx.send(SiteEvent::Down(d)).is_err() {
                        return;
                    }
                }
                Ok(Some((kind::PING, payload))) => {
                    let Ok(nonce) = decode_varint(&payload) else {
                        return;
                    };
                    if tx.send(SiteEvent::Ping(nonce)).is_err() {
                        return;
                    }
                }
                Ok(Some((kind::STOP, _))) => {
                    let _ = tx.send(SiteEvent::Stop);
                    return;
                }
                Ok(Some(_)) | Ok(None) | Err(_) => return,
            }
        });
        Ok(Self {
            data_w: data,
            urgent_w: urgent,
            events: rx,
            reader: Some(reader),
            scratch: Vec::new(),
            _up: PhantomData,
        })
    }
}

impl<U: Encode, D> SiteLink<U, D> for TcpSiteLink<U, D> {
    fn send_up(&mut self, up: U, urgent: bool) -> io::Result<()> {
        encode_into(&up, &mut self.scratch);
        let stream = if urgent {
            &mut self.urgent_w
        } else {
            &mut self.data_w
        };
        write_frame(stream, kind::UP, &self.scratch)
    }

    fn pong(&mut self, nonce: u64) -> io::Result<()> {
        let payload = varint_payload(nonce);
        write_frame(&mut self.data_w, kind::PONG, &payload)?;
        write_frame(&mut self.urgent_w, kind::PONG, &payload)
    }

    fn eos(&mut self) -> io::Result<()> {
        write_frame(&mut self.data_w, kind::EOS, &[])
    }

    fn try_recv(&mut self) -> Option<SiteEvent<D>> {
        self.events.try_recv().ok()
    }

    fn recv(&mut self) -> Option<SiteEvent<D>> {
        self.events.recv().ok()
    }
}

impl<U, D> Drop for TcpSiteLink<U, D> {
    fn drop(&mut self) {
        let _ = self.data_w.shutdown(Shutdown::Both);
        let _ = self.urgent_w.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// One frame queued to a per-peer writer thread; `None` closes the
/// stream and ends the thread.
type WriterCmd = Option<(u8, Vec<u8>)>;

/// Coordinator end of the TCP transport: per-peer writer threads (a
/// slow site never blocks the apply loop), one reader thread per
/// inbound stream feeding the urgent / ordinary lock-free lanes.
pub struct TcpCoordLink<U, D> {
    ordinary_rx: MpscReceiver<CoordEvent<U>>,
    urgent_rx: MpscReceiver<CoordEvent<U>>,
    wake: Arc<WakeCell>,
    registered: bool,
    writers: Vec<FrameSender<WriterCmd>>,
    /// Payload buffers the writer threads have written out, handed back
    /// for `send_down` to encode into (at most one per frame in flight).
    spent: crossbeam_channel::Receiver<Vec<u8>>,
    /// Read-half clones, shut down on drop so reader threads unblock.
    read_halves: Vec<TcpStream>,
    threads: Vec<JoinHandle<()>>,
    _down: PhantomData<fn(D)>,
}

impl<U: Decode + Send + 'static, D: Encode> TcpCoordLink<U, D> {
    /// Accept `k` sites (two streams each) on `listener`.
    ///
    /// Blocks until all `2k` expected streams have connected and sent
    /// their HELLO frames. Site ids must be unique and `< k`.
    pub fn accept(listener: &TcpListener, k: usize) -> io::Result<Self> {
        let mut data_streams: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
        let mut urgent_streams: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
        let mut pending = 2 * k;
        while pending > 0 {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let Some((kind::HELLO, payload)) = read_frame(&mut stream)? else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "peer did not start with HELLO",
                ));
            };
            let mut r = WireReader::new(&payload);
            let hello = (|| -> Result<(u64, u64), crate::wire::WireError> {
                let site = r.varint()?;
                let lane = r.varint()?;
                Ok((site, lane))
            })()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            let (site, lane) = hello;
            if site >= k as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("site id {site} out of range (k = {k})"),
                ));
            }
            let slot = match lane {
                LANE_DATA => &mut data_streams[site as usize],
                LANE_URGENT => &mut urgent_streams[site as usize],
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown lane {other}"),
                    ))
                }
            };
            if slot.replace(stream).is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("duplicate connection for site {site}"),
                ));
            }
            pending -= 1;
        }

        let wake = Arc::new(WakeCell::new());
        let (ordinary_tx, ordinary_rx) = mpsc::<CoordEvent<U>>(Arc::clone(&wake));
        let (urgent_tx, urgent_rx) = mpsc::<CoordEvent<U>>(Arc::clone(&wake));
        let mut writers = Vec::with_capacity(k);
        let (spent_tx, spent) = unbounded::<Vec<u8>>();
        let mut read_halves = Vec::with_capacity(2 * k);
        let mut threads = Vec::with_capacity(3 * k);

        for site in 0..k {
            let data = data_streams[site].take().expect("filled above");
            let urgent = urgent_streams[site].take().expect("filled above");

            // Per-peer writer thread: downs / pings / stop for this site.
            let mut write_half = data.try_clone()?;
            let (wtx, wrx) = unbounded::<WriterCmd>();
            writers.push(wtx);
            let spent_tx = spent_tx.clone();
            threads.push(std::thread::spawn(move || {
                while let Ok(Some((frame_kind, payload))) = wrx.recv() {
                    if write_frame(&mut write_half, frame_kind, &payload).is_err() {
                        return;
                    }
                    let _ = spent_tx.send(payload);
                }
            }));

            // One reader thread per inbound stream, routing into the
            // urgent / ordinary lane matching the stream's role.
            for (stream, tx, urgent_lane) in [
                (data, ordinary_tx.clone(), false),
                (urgent, urgent_tx.clone(), true),
            ] {
                read_halves.push(stream.try_clone()?);
                let mut read_half = stream;
                threads.push(std::thread::spawn(move || loop {
                    match read_frame(&mut read_half) {
                        Ok(Some((kind::UP, payload))) => {
                            let mut r = WireReader::new(&payload);
                            let Ok(up) = U::decode(&mut r) else {
                                tx.send(CoordEvent::Closed(site));
                                return;
                            };
                            if r.finish().is_err() {
                                tx.send(CoordEvent::Closed(site));
                                return;
                            }
                            tx.send(CoordEvent::Up(site, up));
                        }
                        Ok(Some((kind::PONG, payload))) => {
                            let Ok(nonce) = decode_varint(&payload) else {
                                tx.send(CoordEvent::Closed(site));
                                return;
                            };
                            tx.send(CoordEvent::Pong(site, nonce));
                        }
                        Ok(Some((kind::EOS, _))) if !urgent_lane => {
                            tx.send(CoordEvent::Eos(site));
                        }
                        Ok(None) => return, // clean close after STOP
                        Ok(Some(_)) | Err(_) => {
                            tx.send(CoordEvent::Closed(site));
                            return;
                        }
                    }
                }));
            }
        }

        Ok(Self {
            ordinary_rx,
            urgent_rx,
            wake,
            registered: false,
            writers,
            spent,
            read_halves,
            threads,
            _down: PhantomData,
        })
    }
}

impl<U, D: Encode> CoordLink<U, D> for TcpCoordLink<U, D> {
    fn k(&self) -> usize {
        self.writers.len()
    }

    fn send_down(&mut self, to: SiteId, down: D) -> io::Result<()> {
        let mut payload = self.spent.try_recv().unwrap_or_default();
        encode_into(&down, &mut payload);
        self.writers[to]
            .send(Some((kind::DOWN, payload)))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "writer thread gone"))
    }

    fn ping(&mut self, nonce: u64) -> io::Result<()> {
        for w in &self.writers {
            w.send(Some((kind::PING, varint_payload(nonce))))
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "writer thread gone"))?;
        }
        Ok(())
    }

    fn stop(&mut self) -> io::Result<()> {
        for w in &self.writers {
            let _ = w.send(Some((kind::STOP, Vec::new())));
            let _ = w.send(None);
        }
        Ok(())
    }

    fn try_recv(&mut self) -> Option<CoordEvent<U>> {
        self.urgent_rx
            .try_recv()
            .or_else(|| self.ordinary_rx.try_recv())
    }

    fn recv(&mut self) -> Option<CoordEvent<U>> {
        loop {
            if let Some(ev) = self.try_recv() {
                return Some(ev);
            }
            let gone = |rx: &MpscReceiver<CoordEvent<U>>| rx.is_disconnected() && rx.is_empty();
            if gone(&self.urgent_rx) && gone(&self.ordinary_rx) {
                return None;
            }
            if !self.registered {
                self.wake.register();
                self.registered = true;
            }
            let (urx, orx) = (&self.urgent_rx, &self.ordinary_rx);
            self.wake.park_while(|| {
                urx.is_empty()
                    && orx.is_empty()
                    && !(urx.is_disconnected() && orx.is_disconnected())
            });
        }
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
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// The halves.
// ---------------------------------------------------------------------

/// One site's deployment frontend: feed it the site's local stream;
/// it drains pending control before every element (downs and seals
/// overtake queued data, like the channel runtime's control lane),
/// ships ups with urgent routing, and answers quiesce probes.
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

    /// Process one stream element (after draining pending control).
    pub fn feed(&mut self, item: &S::Item) -> io::Result<()> {
        self.pump()?;
        self.stats.elements += 1;
        self.site.on_item(item, &mut self.out);
        self.flush()
    }

    /// Drain every control message currently queued.
    pub fn pump(&mut self) -> io::Result<()> {
        while !self.stopped {
            match self.link.try_recv() {
                Some(ev) => self.handle(ev)?,
                None => break,
            }
        }
        Ok(())
    }

    /// Announce end of the local stream (the coordinator's
    /// [`CoordHalf::pump_until_eos`] counts these).
    pub fn finish_stream(&mut self) -> io::Result<()> {
        self.pump()?;
        self.link.eos()
    }

    /// Serve downs and quiesce probes until the coordinator says stop
    /// (or the link dies).
    pub fn run_until_stop(&mut self) -> io::Result<()> {
        while !self.stopped {
            match self.link.recv() {
                Some(ev) => self.handle(ev)?,
                None => break,
            }
        }
        Ok(())
    }

    fn handle(&mut self, ev: SiteEvent<S::Down>) -> io::Result<()> {
        match ev {
            SiteEvent::Down(d) => {
                self.stats.down_msgs += 1;
                self.stats.down_words += d.words();
                self.stats.down_bytes += d.wire_bytes();
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
            self.stats.up_msgs += 1;
            self.stats.up_words += up.words();
            self.stats.up_bytes += up.wire_bytes();
            let urgent = up.urgent();
            self.link.send_up(up, urgent)?;
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
}

/// Callback invoked with the coordinator state after every applied
/// message (the snapshot publisher behind [`CoordHalf::query_handle`]).
type PublishFn<C> = Box<dyn FnMut(&C)>;

/// The coordinator's deployment frontend.
pub struct CoordHalf<C: Coordinator, L> {
    coord: C,
    link: L,
    net: Net<C::Down>,
    stats: CommStats,
    eos: Vec<bool>,
    nonce: u64,
    publish: Option<PublishFn<C>>,
}

impl<C, L> CoordHalf<C, L>
where
    C: Coordinator,
    C::Down: Words + Clone,
    L: CoordLink<C::Up, C::Down>,
{
    /// Wrap a built coordinator over its link.
    pub fn new(coord: C, link: L) -> Self {
        let k = link.k();
        Self {
            coord,
            link,
            net: Net::new(),
            stats: CommStats::default(),
            eos: vec![false; k],
            nonce: 0,
            publish: None,
        }
    }

    fn unexpected_close(site: SiteId) -> io::Error {
        io::Error::new(
            io::ErrorKind::ConnectionAborted,
            format!("site {site} link closed unexpectedly"),
        )
    }

    /// Apply one up and fan out the resulting downs (a broadcast is
    /// charged `k ×` messages/words/bytes, as everywhere else).
    fn apply(&mut self, from: SiteId, up: C::Up) -> io::Result<()> {
        self.stats.up_msgs += 1;
        self.stats.up_words += up.words();
        self.stats.up_bytes += up.wire_bytes();
        self.coord.on_message(from, &up, &mut self.net);
        let downs: Vec<(Dest, C::Down)> = self.net.drain().collect();
        for (dest, d) in downs {
            match dest {
                Dest::Site(to) => {
                    self.stats.down_msgs += 1;
                    self.stats.down_words += d.words();
                    self.stats.down_bytes += d.wire_bytes();
                    self.link.send_down(to, d)?;
                }
                Dest::Broadcast => {
                    self.stats.broadcast_events += 1;
                    let k = self.eos.len() as u64;
                    self.stats.down_msgs += k;
                    self.stats.down_words += k * d.words();
                    self.stats.down_bytes += k * d.wire_bytes();
                    for to in 0..self.eos.len() {
                        self.link.send_down(to, d.clone())?;
                    }
                }
            }
        }
        if let Some(publish) = self.publish.as_mut() {
            publish(&self.coord);
        }
        Ok(())
    }

    /// Apply ups until every site has announced end-of-stream.
    pub fn pump_until_eos(&mut self) -> io::Result<()> {
        while !self.eos.iter().all(|&done| done) {
            match self.link.recv() {
                Some(CoordEvent::Up(from, up)) => self.apply(from, up)?,
                Some(CoordEvent::Pong(_, _)) => {} // stale quiesce round
                Some(CoordEvent::Eos(site)) => self.eos[site] = true,
                Some(CoordEvent::Closed(site)) => return Err(Self::unexpected_close(site)),
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "all site links closed before end-of-stream",
                    ))
                }
            }
        }
        Ok(())
    }

    /// Distributed quiesce: ping/pong rounds until a round applies no
    /// new up and emits no new down (see the module docs for why
    /// per-lane FIFO makes one silent round a settlement proof).
    /// Returns the number of rounds.
    pub fn quiesce(&mut self) -> io::Result<u32> {
        let mut rounds = 0;
        loop {
            rounds += 1;
            assert!(
                rounds < MAX_QUIESCE_ROUNDS,
                "transport failed to quiesce within {MAX_QUIESCE_ROUNDS} rounds"
            );
            let before = (self.stats.up_msgs, self.stats.down_msgs);
            self.nonce += 1;
            let nonce = self.nonce;
            self.link.ping(nonce)?;
            let mut pongs = vec![0u8; self.eos.len()];
            while pongs.iter().any(|&c| c < PONGS_PER_SITE) {
                match self.link.recv() {
                    Some(CoordEvent::Up(from, up)) => self.apply(from, up)?,
                    Some(CoordEvent::Pong(site, n)) if n == nonce => pongs[site] += 1,
                    Some(CoordEvent::Pong(_, _)) => {} // stale round
                    Some(CoordEvent::Eos(site)) => self.eos[site] = true,
                    Some(CoordEvent::Closed(site)) => return Err(Self::unexpected_close(site)),
                    None => {
                        return Err(io::Error::new(
                            io::ErrorKind::ConnectionAborted,
                            "all site links closed during quiesce",
                        ))
                    }
                }
            }
            if (self.stats.up_msgs, self.stats.down_msgs) == before {
                if let Some(publish) = self.publish.as_mut() {
                    publish(&self.coord);
                }
                return Ok(rounds);
            }
        }
    }

    /// Tell every site to shut down.
    pub fn stop(&mut self) -> io::Result<()> {
        self.link.stop()
    }

    /// The coordinator state (quiesce first for a consistent cut).
    pub fn coord(&self) -> &C {
        &self.coord
    }

    /// Consume the half, yielding the coordinator and its accounting.
    pub fn into_parts(self) -> (C, CommStats) {
        (self.coord, self.stats)
    }

    /// This half's accounting (ups as received/applied, downs as sent).
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Lock-free live-query handle: the half publishes an epoch-stamped
    /// snapshot of the coordinator after every apply, so any number of
    /// reader threads answer queries while the pump loop runs — the
    /// multi-process counterpart of
    /// [`crate::runtime::ChannelRuntime::query_handle`]. Immediately
    /// after [`CoordHalf::quiesce`], a handle read equals
    /// [`CoordHalf::coord`].
    pub fn query_handle(&mut self) -> QueryHandle<C>
    where
        C: Clone + Sync + Send + 'static,
    {
        let (mut publisher, handle) = snapshot_cell(self.coord.clone());
        self.publish = Some(Box::new(move |coord: &C| publisher.publish(coord.clone())));
        handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Coordinator;
    use crate::wire::encode_to_vec;
    use std::io::Write;

    /// Echo protocol with an urgent flavor: sites forward each item;
    /// every 10th up is flagged urgent; the coordinator sums and,
    /// every 100 applies, broadcasts the running total.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct EchoUp(u64);

    impl Words for EchoUp {
        fn words(&self) -> u64 {
            1
        }

        fn urgent(&self) -> bool {
            self.0.is_multiple_of(10)
        }

        fn wire_bytes(&self) -> u64 {
            crate::wire::measured(self)
        }
    }

    impl Encode for EchoUp {
        fn encode(&self, w: &mut WireWriter) {
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
                net.broadcast(self.sum);
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
        for h in site_threads {
            let site_stats = h.join().unwrap();
            assert_eq!(site_stats.elements, PER_SITE);
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

    // -----------------------------------------------------------------
    // Frame-rejection suite: a peer feeding the accept loop malformed
    // bytes must surface as `CoordEvent::Closed` — never a hang, a
    // panic, or a silently wrong message. (The codec-level corruption
    // cases live in `crate::wire`; these drive the full socket path.)
    // -----------------------------------------------------------------

    /// Handshake one well-formed site, then let `client` misbehave on
    /// the data stream; assert the coordinator observes `Closed(0)`.
    fn expect_closed_after(client: impl FnOnce(&mut TcpStream) + Send + 'static) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let mut data = TcpStream::connect(addr).unwrap();
            write_frame(&mut data, kind::HELLO, &hello_payload(0, LANE_DATA)).unwrap();
            let mut urgent = TcpStream::connect(addr).unwrap();
            write_frame(&mut urgent, kind::HELLO, &hello_payload(0, LANE_URGENT)).unwrap();
            client(&mut data);
            // Keep both streams open until the link has seen the bad
            // frame — dropping them returns from this thread, and the
            // test joins only after `Closed` arrived.
            (data, urgent)
        });
        let mut link = TcpCoordLink::<EchoUp, u64>::accept(&listener, 1).unwrap();
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
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let mut data = TcpStream::connect(addr).unwrap();
            write_frame(&mut data, kind::HELLO, &hello_payload(0, LANE_DATA)).unwrap();
            let mut urgent = TcpStream::connect(addr).unwrap();
            write_frame(&mut urgent, kind::HELLO, &hello_payload(0, LANE_URGENT)).unwrap();
            write_frame(&mut data, kind::UP, &encode_to_vec(&EchoUp(7))).unwrap();
            write_frame(&mut data, kind::UP, &encode_to_vec(&EchoUp(9))).unwrap();
            write_frame(&mut data, 200, &[]).unwrap();
            (data, urgent)
        });
        let mut link = TcpCoordLink::<EchoUp, u64>::accept(&listener, 1).unwrap();
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
}
