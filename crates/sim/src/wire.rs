//! Byte-accurate wire format for protocol messages.
//!
//! The paper's cost model charges communication in *words* ([`Words`]);
//! this module gives every message a concrete byte encoding, which
//! counts those words and measures the same runs in bytes — the number
//! a deployment's network bill is actually denominated in. The codec is
//! deliberately dependency-free and stable:
//!
//! * **LEB128 varints** for unsigned integers: 7 bits per byte, high
//!   bit = continuation. Small counters (the overwhelming majority of
//!   tracking traffic) cost 1–3 bytes instead of a full 8-byte word.
//! * **Zig-zag** mapping for signed integers (`(n << 1) ^ (n >> 63)`),
//!   so small negative values stay small on the wire.
//! * **Delta runs** for sorted value sequences (GK tuple values, KLL
//!   level items): the first value verbatim, then successive gaps —
//!   sorted summaries compress to near the entropy of their gaps.
//! * **One-byte tags** for enum variants, written by each message's
//!   [`Encode`] impl.
//!
//! [`Encode`]/[`Decode`] (the traits messages implement) live next to
//! [`Words`] in [`crate::message`]; this module provides the writer /
//! reader primitives, the measured-length helpers, and the
//! length-prefixed **frame** layer the socket transport
//! ([`crate::transport`]) ships frames through.
//!
//! ## One encoder, two sinks
//!
//! An `encode` writes to any [`WireSink`]. There are two: [`WireWriter`]
//! stores the bytes (frames, tests), and a private counter behind
//! [`measured`] and [`words_and_bytes`] adds up their lengths without
//! storing anything. In the same pass it counts the message's *fields*,
//! one per varint, zig-zag integer or `f64` and none for a tag byte:
//! that is the message's size in the paper's words (§1.1: one word per
//! integer or stream element). Every executor charges a message its
//! words and bytes from that one pass. Because the sink is a type
//! parameter rather than a run-time flag, the counting instance of an
//! `encode` compiles to two sums kept in registers, and because both
//! sinks run the same `encode`, neither count can drift from the bytes.
//!
//! [`Words`]: crate::message::Words

use std::io::{self, Read, Write};

use crate::message::{Decode, Encode};

/// Decoding failure: the bytes do not parse as the expected message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended inside a value.
    Truncated,
    /// A varint ran past 10 bytes / overflowed 64 bits, or a decoded
    /// value exceeded its field's range (e.g. a `u32` field > `u32::MAX`).
    Overflow,
    /// An enum tag byte matched no variant.
    BadTag(u8),
    /// Bytes remained after the value was fully decoded.
    Trailing(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated mid-value"),
            WireError::Overflow => write!(f, "varint overflow or field out of range"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Undecodable bytes off a socket are `InvalidData` to the transport.
impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Sink for [`Encode`] impls: the byte-storing [`WireWriter`], or the
/// counter behind [`measured`] (module docs, "One encoder, two sinks").
///
/// Implementors provide the three raw primitives; the composite ones
/// are written once, here, in terms of them.
pub trait WireSink {
    /// One raw byte (enum variant tags).
    fn put_u8(&mut self, b: u8);

    /// Unsigned LEB128 varint: 7 bits per byte, high bit = continuation.
    fn put_varint(&mut self, v: u64);

    /// IEEE-754 double, 8 bytes little-endian (doubles don't varint).
    fn put_f64(&mut self, v: f64);

    /// Signed integer, zig-zag mapped then varint encoded.
    #[inline]
    fn put_signed(&mut self, v: i64) {
        self.put_varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// A **sorted** run of values as a varint length, the first value
    /// verbatim, then successive deltas: `1 + len` fields.
    ///
    /// Debug-asserts sortedness — an unsorted run would still round-trip
    /// through [`WireReader::delta_run`] only if non-decreasing.
    #[inline]
    fn put_delta_run<I>(&mut self, values: I)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let values = values.into_iter();
        self.put_varint(values.len() as u64);
        // The first value is its own gap from zero.
        let mut prev = 0u64;
        for v in values {
            debug_assert!(prev <= v, "delta runs require sorted input");
            self.put_varint(v - prev);
            prev = v;
        }
    }
}

/// The byte-storing [`WireSink`].
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl WireSink for WireWriter {
    #[inline]
    fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    #[inline]
    fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    #[inline]
    fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// The counting [`WireSink`] behind [`measured`] and [`words_and_bytes`]:
/// stores nothing; `bytes` is exactly the length [`WireWriter`] would
/// reach, `fields` the varints and doubles written (tag bytes are free).
#[derive(Debug, Default)]
struct Tally {
    bytes: u64,
    fields: u64,
}

impl WireSink for Tally {
    #[inline]
    fn put_u8(&mut self, _b: u8) {
        self.bytes += 1;
    }

    #[inline]
    fn put_varint(&mut self, v: u64) {
        self.bytes += varint_len(v);
        self.fields += 1;
    }

    #[inline]
    fn put_f64(&mut self, _v: f64) {
        self.bytes += 8;
        self.fields += 1;
    }
}

/// Byte source for [`Decode`] impls.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from `buf`, starting at its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One raw byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Unsigned LEB128 varint (rejects encodings past 64 bits).
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(WireError::Overflow);
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::Overflow);
            }
        }
    }

    /// Varint bounded to `u32` range (tags like rounds and chunk ids).
    pub fn varint_u32(&mut self) -> Result<u32, WireError> {
        u32::try_from(self.varint()?).map_err(|_| WireError::Overflow)
    }

    /// Zig-zag-mapped signed integer.
    pub fn signed(&mut self) -> Result<i64, WireError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// IEEE-754 double, 8 bytes little-endian.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        if self.remaining() < 8 {
            return Err(WireError::Truncated);
        }
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    /// Inverse of [`WireWriter::put_delta_run`]: a sorted run of values.
    pub fn delta_run(&mut self) -> Result<Vec<u64>, WireError> {
        let len = self.varint()?;
        // A value costs ≥ 1 byte on the wire, so a length exceeding the
        // remaining input is corrupt — reject before allocating.
        if len > self.remaining() as u64 {
            return Err(WireError::Truncated);
        }
        let mut out = Vec::with_capacity(len as usize);
        let mut prev = 0u64;
        for i in 0..len {
            let d = self.varint()?;
            let v = if i == 0 {
                d
            } else {
                prev.checked_add(d).ok_or(WireError::Overflow)?
            };
            out.push(v);
            prev = v;
        }
        Ok(out)
    }

    /// Assert full consumption (framing gives each message its own
    /// byte range, so trailing bytes mean corruption).
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// Encode `v` into a fresh byte vector.
pub fn encode_to_vec<T: Encode + ?Sized>(v: &T) -> Vec<u8> {
    let mut w = WireWriter::new();
    v.encode(&mut w);
    w.buf
}

/// `v`'s own [`Encode`] run once against the counting sink: nothing is
/// stored or allocated, each varint costs one [`varint_len`], and the
/// length is the one [`encode_to_vec`] would produce because it is the
/// same code that produces it.
fn tally<T: Encode + ?Sized>(v: &T) -> Tally {
    let mut tally = Tally::default();
    v.encode(&mut tally);
    tally
}

/// Measured wire size of `v` in bytes under the byte codec: what
/// [`Words::wire_bytes`] returns.
///
/// [`Words::wire_bytes`]: crate::message::Words::wire_bytes
pub fn measured<T: Encode + ?Sized>(v: &T) -> u64 {
    tally(v).bytes
}

/// `v`'s size as `(words, bytes)` from one encoder pass: the fields it
/// writes, at least 1 (a pure signal still costs a word), and its
/// measured length. What [`CommStats`](crate::CommStats) charges.
pub fn words_and_bytes<T: Encode + ?Sized>(v: &T) -> (u64, u64) {
    let t = tally(v);
    (t.fields.max(1), t.bytes)
}

/// Number of bytes the varint encoding of `v` occupies (1–10).
#[inline]
pub fn varint_len(v: u64) -> u64 {
    (64 - v.max(1).leading_zeros() as u64).div_ceil(7)
}

/// Decode one `T` from `bytes`, requiring every byte be consumed.
pub fn decode_exact<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

// ---------------------------------------------------------------------
// Frame layer: length-prefixed frames for the socket transport.
// ---------------------------------------------------------------------

/// Hard cap on one frame's payload. Generously above any real message
/// (the largest — a rank protocol's summary — is a few hundred KB at
/// extreme parameters), small enough that a corrupt length prefix is
/// rejected instead of driving an absurd allocation.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// A frame's header — kind, then payload length — or `InvalidInput`
/// for a payload past [`MAX_FRAME_LEN`].
fn frame_header(kind: u8, len: usize) -> io::Result<[u8; 5]> {
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds cap {MAX_FRAME_LEN}"),
        ));
    }
    let mut header = [0u8; 5];
    header[0] = kind;
    header[1..].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(header)
}

/// Write one frame: a 1-byte kind, a 4-byte little-endian payload
/// length, then the payload. The kind byte is transport-level routing
/// (data vs. control), distinct from the message tag *inside* the
/// payload. A payload past [`MAX_FRAME_LEN`] is refused with
/// `InvalidInput` before anything is written.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_header(kind, payload.len())?)?;
    w.write_all(payload)
}

/// Encode `v` as one whole frame — the header [`write_frame`] would
/// write, then the payload — into `buf`, replacing its contents and
/// keeping its allocation, so the frame goes out in one `write_all`.
/// The payload is encoded after a placeholder header, whose length is
/// then patched in. A payload past [`MAX_FRAME_LEN`] is `InvalidInput`.
pub fn encode_frame_into<T: Encode + ?Sized>(kind: u8, v: &T, buf: &mut Vec<u8>) -> io::Result<()> {
    let placeholder = frame_header(kind, 0)?;
    buf.clear();
    buf.extend_from_slice(&placeholder);
    let mut w = WireWriter {
        buf: std::mem::take(buf),
    };
    v.encode(&mut w);
    *buf = w.buf;
    let header = frame_header(kind, buf.len() - placeholder.len())?;
    buf[..header.len()].copy_from_slice(&header);
    Ok(())
}

/// Read one frame written by [`write_frame`]. Returns `Ok(None)` on a
/// clean EOF at a frame boundary (the peer closed); errors with
/// `UnexpectedEof` on truncation inside a frame and `InvalidData` on a
/// length prefix past [`MAX_FRAME_LEN`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.map(|kind| (kind, payload)))
}

/// [`read_frame`] into a caller's buffer: the payload replaces `payload`'s
/// contents and the frame's kind is returned. The payload is read
/// through `take(len)`, so past a first reservation of at most 1/256 of
/// [`MAX_FRAME_LEN`] (64 KiB) memory follows the bytes that arrive, not
/// the length the header claims, and a reader looping on one buffer
/// allocates only when a frame outgrows every earlier one.
pub fn read_frame_into<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> io::Result<Option<u8>> {
    let mut header = [0u8; 5];
    // Distinguish clean EOF (no bytes at all) from a torn header.
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame-header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(header[1..].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
        ));
    }
    payload.clear();
    // One allocation for a typical frame, instead of doubling up from
    // `read_to_end`'s 32-byte probe; bounded, so a claim alone pins little.
    payload.reserve(len.min(MAX_FRAME_LEN / 256));
    if r.by_ref().take(len as u64).read_to_end(payload)? < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        ));
    }
    Ok(Some(header[0]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_at_all_widths() {
        for shift in 0..64 {
            for near in [-1i64, 0, 1] {
                let v = (1u64 << shift).wrapping_add(near as u64);
                let mut w = WireWriter::new();
                w.put_varint(v);
                assert_eq!(w.len() as u64, varint_len(v), "len helper at {v}");
                let mut r = WireReader::new(w.as_bytes());
                assert_eq!(r.varint().unwrap(), v);
                r.finish().unwrap();
            }
        }
    }

    #[test]
    fn varint_is_compact_for_small_values() {
        let mut w = WireWriter::new();
        w.put_varint(0);
        w.put_varint(127);
        assert_eq!(w.len(), 2, "values < 128 cost one byte");
        w.put_varint(128);
        assert_eq!(w.len(), 4, "128 needs two bytes");
    }

    #[test]
    fn signed_round_trips_and_stays_small_near_zero() {
        for v in [-3i64, -1, 0, 1, 3, i64::MIN, i64::MAX] {
            let mut w = WireWriter::new();
            w.put_signed(v);
            if (-64..64).contains(&v) {
                assert_eq!(w.len(), 1, "small magnitudes cost one byte ({v})");
            }
            let mut r = WireReader::new(w.as_bytes());
            assert_eq!(r.signed().unwrap(), v);
        }
    }

    #[test]
    fn f64_round_trips_bitwise() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::INFINITY] {
            let mut w = WireWriter::new();
            w.put_f64(v);
            assert_eq!(w.len(), 8);
            let mut r = WireReader::new(w.as_bytes());
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn delta_run_round_trips_and_compresses_gaps() {
        let run: Vec<u64> = (0..100).map(|i| 1_000_000 + 3 * i).collect();
        let mut w = WireWriter::new();
        w.put_delta_run(run.iter().copied());
        // 1 length byte + 3 bytes for the first value + 1 byte per gap.
        assert!(w.len() < 110, "gap compression failed: {} bytes", w.len());
        let mut r = WireReader::new(w.as_bytes());
        assert_eq!(r.delta_run().unwrap(), run);
        r.finish().unwrap();
    }

    #[test]
    fn empty_delta_run_is_one_byte() {
        let mut w = WireWriter::new();
        w.put_delta_run([]);
        assert_eq!(w.len(), 1);
        let mut r = WireReader::new(w.as_bytes());
        assert!(r.delta_run().unwrap().is_empty());
    }

    /// One encoder, two sinks: on every primitive the counting sink
    /// reports exactly the length the byte writer produces.
    #[test]
    fn counting_writer_agrees_with_byte_writer_on_every_primitive() {
        // The primitives are generic, so the body is expanded once per
        // sink rather than passed as one closure.
        macro_rules! agree {
            ($what:expr, |$w:ident| $put:expr) => {{
                let mut bytes = WireWriter::new();
                let mut count = Tally::default();
                // Twice: lengths must accumulate, not overwrite.
                for _ in 0..2 {
                    {
                        let $w = &mut bytes;
                        $put;
                    }
                    {
                        let $w = &mut count;
                        $put;
                    }
                }
                assert_eq!(count.bytes, bytes.len() as u64, "{}", $what);
            }};
        }
        assert_eq!(Tally::default().bytes, 0, "nothing");
        for b in [0u8, 0x7F, 0x80, 0xFF] {
            agree!("put_u8", |w| w.put_u8(b));
        }
        for shift in 0..64 {
            for near in [-1i64, 0, 1] {
                let v = (1u64 << shift).wrapping_add(near as u64);
                agree!("put_varint", |w| w.put_varint(v));
                agree!("put_signed", |w| w.put_signed(v as i64));
                agree!("put_signed", |w| w.put_signed((v as i64).wrapping_neg()));
            }
        }
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY] {
            agree!("put_f64", |w| w.put_f64(v));
        }
        let runs: [&[u64]; 5] = [
            &[],
            &[0],
            &[u64::MAX],
            &[5, 5, 6, 1 << 20, 1 << 62, u64::MAX],
            &[127, 128, 255, 256, 16_383, 16_384],
        ];
        for run in runs {
            agree!("put_delta_run", |w| w.put_delta_run(run.iter().copied()));
        }
        let long: Vec<u64> = (0..300).map(|i| i * i).collect(); // 2-byte length
        agree!("put_delta_run", |w| w.put_delta_run(long.iter().copied()));
    }

    #[test]
    fn encode_frame_into_reuses_the_buffer_and_replaces_its_contents() {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(b"stale");
        let ptr = buf.as_ptr();
        encode_frame_into(1, &vec![1u64, 300], &mut buf).unwrap();
        let payload = &buf[5..];
        assert_eq!(payload, encode_to_vec(&vec![1u64, 300]));
        assert_eq!(buf.as_ptr(), ptr, "no reallocation within capacity");
        assert_eq!(measured(&vec![1u64, 300]), payload.len() as u64);
    }

    #[test]
    fn truncated_inputs_are_rejected() {
        let mut w = WireWriter::new();
        w.put_varint(u64::MAX);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert_eq!(r.varint(), Err(WireError::Truncated), "cut at {cut}");
        }
        let mut r = WireReader::new(&[0x80]); // continuation, then EOF
        assert_eq!(r.varint(), Err(WireError::Truncated));
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(r.f64(), Err(WireError::Truncated));
    }

    #[test]
    fn overlong_and_overflowing_varints_are_rejected() {
        // 11 continuation bytes: walks past the 64-bit budget.
        let mut r = WireReader::new(&[0xFF; 11]);
        assert_eq!(r.varint(), Err(WireError::Overflow));
        // 10 bytes whose top byte pushes past bit 63.
        let mut bytes = vec![0xFF; 9];
        bytes.push(0x02);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint(), Err(WireError::Overflow));
    }

    #[test]
    fn delta_run_rejects_absurd_lengths_without_allocating() {
        let mut w = WireWriter::new();
        w.put_varint(u64::MAX); // claimed length
        let mut r = WireReader::new(w.as_bytes());
        assert_eq!(r.delta_run(), Err(WireError::Truncated));
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut w = WireWriter::new();
        w.put_varint(7);
        w.put_u8(0xAB);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint().unwrap(), 7);
        assert_eq!(r.finish(), Err(WireError::Trailing(1)));
    }

    #[test]
    fn frames_round_trip_over_a_byte_pipe() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, 1, b"hello").unwrap();
        write_frame(&mut pipe, 2, b"").unwrap();
        let mut cursor = io::Cursor::new(pipe);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((1, b"hello".to_vec()))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), Some((2, Vec::new())));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn torn_frames_error_instead_of_hanging_or_panicking() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, 1, b"payload").unwrap();
        // Cut inside the header and inside the payload.
        for cut in [1usize, 3, 6, 9] {
            let mut cursor = io::Cursor::new(pipe[..cut].to_vec());
            let err = read_frame(&mut cursor).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut pipe = vec![0u8; 5];
        pipe[0] = 1;
        pipe[1..5].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut cursor = io::Cursor::new(pipe);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_length_claim_does_not_size_the_buffer() {
        // A header claiming the cap, 10 payload bytes, then EOF: torn,
        // and the buffer stayed within its first reservation instead of
        // taking the 16 MiB claim.
        let mut pipe = vec![1u8];
        pipe.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        pipe.extend_from_slice(&[7; 10]);
        let mut payload = Vec::new();
        let err = read_frame_into(&mut io::Cursor::new(pipe), &mut payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(payload.capacity() < 1 << 20, "{}", payload.capacity());
    }

    #[test]
    fn read_frame_into_reuses_one_buffer_across_frames() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, 1, b"a longer payload").unwrap();
        write_frame(&mut pipe, 2, b"short").unwrap();
        let mut cursor = io::Cursor::new(pipe);
        let mut payload = Vec::new();
        assert_eq!(read_frame_into(&mut cursor, &mut payload).unwrap(), Some(1));
        assert_eq!(payload, b"a longer payload");
        let ptr = payload.as_ptr();
        assert_eq!(read_frame_into(&mut cursor, &mut payload).unwrap(), Some(2));
        assert_eq!(payload, b"short");
        assert_eq!(payload.as_ptr(), ptr, "no reallocation within capacity");
        assert_eq!(read_frame_into(&mut cursor, &mut payload).unwrap(), None);
    }

    #[test]
    fn encode_frame_into_is_the_frame_write_frame_writes() {
        let msg = (300u64, vec![1u64, 2, 3]);
        let mut frame = Vec::new();
        encode_frame_into(4, &msg, &mut frame).unwrap();
        let mut pipe = Vec::new();
        write_frame(&mut pipe, 4, &encode_to_vec(&msg)).unwrap();
        assert_eq!(frame, pipe);
        encode_frame_into(5, &(), &mut frame).unwrap();
        assert_eq!(frame, [5, 0, 0, 0, 0], "an empty payload is a bare header");

        // A payload past the cap is refused, as write_frame refuses it.
        struct Blob(usize);
        impl Encode for Blob {
            fn encode(&self, w: &mut impl WireSink) {
                (0..self.0).for_each(|_| w.put_u8(0));
            }
        }
        let err = encode_frame_into(1, &Blob(MAX_FRAME_LEN + 1), &mut frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        encode_frame_into(1, &Blob(MAX_FRAME_LEN), &mut frame).unwrap();
        assert_eq!(frame.len(), 5 + MAX_FRAME_LEN);
    }

    #[test]
    fn oversized_payload_is_refused_before_writing() {
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let mut pipe = Vec::new();
        let err = write_frame(&mut pipe, 1, &payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(pipe.is_empty(), "nothing written for a refused frame");
        // The cap itself is still a legal frame.
        write_frame(&mut pipe, 1, &payload[..MAX_FRAME_LEN]).unwrap();
        assert_eq!(pipe.len(), 5 + MAX_FRAME_LEN);
    }
}
