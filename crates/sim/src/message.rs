//! Word-size accounting and byte encoding for protocol messages.
//!
//! The paper (§1.1) measures communication in *words*: "we assume that any
//! integer less than N, as well as an element from the stream, can fit in
//! one word". A message describes itself once, in its [`Encode`] impl,
//! and the codec ([`crate::wire`]) counts both costs from that one
//! description: a word per integer or double it writes, and the bytes a
//! socket would carry. Every such message is a [`Words`], so the
//! runtimes can charge the exact cost, and to ship over a socket it also
//! implements [`Decode`].

/// Size of a message in machine words, per the paper's cost model, and
/// in bytes under the wire codec — both counted by the codec.
///
/// Implemented for every [`Encode`] type the executors can carry. The
/// supertraits are what the executors do with a message: encode it
/// (accounting, sockets), clone it (a broadcast is one copy per site),
/// and move or share it across threads (the channel runtime's lanes;
/// snapshot readers of a coordinator that keeps messages, like the
/// windowed adapter's scratch [`Net`](crate::net::Net)).
pub trait Words: Encode + Clone + Send + Sync + 'static {
    /// Words this message costs: one per varint, zig-zag integer or
    /// `f64` its [`Encode`] writes, none for a tag byte, and at least 1
    /// (a pure signal still costs a word — the paper's lower bounds
    /// count *messages*, so nothing is free).
    fn words(&self) -> u64 {
        crate::wire::words_and_bytes(self).0
    }

    /// Measured size of this message in **bytes** under the wire codec:
    /// [`crate::wire::measured`]. Like [`Words::words`], a pure function
    /// of the value, never of transport state.
    fn wire_bytes(&self) -> u64 {
        crate::wire::measured(self)
    }
}

impl<T: Encode + Clone + Send + Sync + 'static> Words for T {}

/// Serialize a message into the byte codec (see [`crate::wire`]): the
/// one description of a message, from which [`Words`] counts its words
/// and bytes. `encode ∘ decode = id` is property-tested for every
/// protocol message type (`crates/core/tests/wire_roundtrip.rs`).
///
/// `encode` is generic over its [`WireSink`](crate::wire::WireSink):
/// the byte writer and the counter each compile their own instance (so
/// `Encode` is not object-safe — nothing needs `dyn Encode`).
pub trait Encode {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut impl crate::wire::WireSink);
}

/// Deserialize a message from the byte codec — the inverse of
/// [`Encode`]. Fails loudly ([`crate::wire::WireError`]) on truncated,
/// overflowing, or mistagged input; the frame layer guarantees each
/// message its own exact byte range.
pub trait Decode: Sized {
    /// Read one value from `r`.
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError>;
}

// Byte-codec impls for the scalar building blocks: one varint (or
// fixed-width `f64`) each, so one word each.

impl Encode for u64 {
    fn encode(&self, w: &mut impl crate::wire::WireSink) {
        w.put_varint(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        r.varint()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut impl crate::wire::WireSink) {
        w.put_varint(u64::from(*self));
    }
}

impl Decode for u32 {
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        r.varint_u32()
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut impl crate::wire::WireSink) {
        w.put_varint(*self as u64);
    }
}

impl Decode for usize {
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        usize::try_from(r.varint()?).map_err(|_| crate::wire::WireError::Overflow)
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut impl crate::wire::WireSink) {
        w.put_signed(*self);
    }
}

impl Decode for i64 {
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        r.signed()
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut impl crate::wire::WireSink) {
        w.put_f64(*self);
    }
}

impl Decode for f64 {
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        r.f64()
    }
}

impl Encode for () {
    fn encode(&self, _w: &mut impl crate::wire::WireSink) {}
}

impl Decode for () {
    fn decode(_r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        Ok(())
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut impl crate::wire::WireSink) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut impl crate::wire::WireSink) {
        w.put_varint(self.len() as u64);
        for v in self {
            v.encode(w);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        let len = r.varint()?;
        // A corrupt length must not drive the allocation: elements cost
        // ≥ 0 bytes (unit elements exist), so cap the claim by a sane
        // bound relative to the input instead of trusting it outright.
        if len > crate::wire::MAX_FRAME_LEN as u64 {
            return Err(crate::wire::WireError::Overflow);
        }
        let mut out = Vec::with_capacity(len.min(r.remaining() as u64 + 1) as usize);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut impl crate::wire::WireSink) {
        match self {
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
            None => w.put_u8(0),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut crate::wire::WireReader<'_>) -> Result<Self, crate::wire::WireError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(crate::wire::WireError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_words_are_one() {
        assert_eq!(7u64.words(), 1);
        assert_eq!(7u32.words(), 1);
        assert_eq!(7usize.words(), 1);
        assert_eq!((-7i64).words(), 1);
        assert_eq!(1.5f64.words(), 1);
        assert_eq!(().words(), 1);
    }

    #[test]
    fn pair_words_add() {
        assert_eq!((1u64, 2u64).words(), 2);
        assert_eq!(((1u64, 2u64), 3u64).words(), 3);
    }

    #[test]
    fn vec_words_include_length() {
        let v: Vec<u64> = vec![];
        assert_eq!(v.words(), 1);
        let v = vec![1u64, 2, 3];
        assert_eq!(v.words(), 4);
    }

    #[test]
    fn option_words() {
        assert_eq!(Some(3u64).words(), 1);
        assert_eq!(None::<u64>.words(), 1);
    }

    /// A `Vec<T>` is its length prefix, one varint and so one word, then
    /// its elements. Checked three ways — measured bytes equal the real
    /// encoded length, the prefix is exactly the length varint (encoded
    /// bytes minus encoded elements), and words decompose as `1 + Σ`.
    #[test]
    fn vec_words_and_wire_length_prefix_agree() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![1, 2, 3],
            (0..300).collect(),                   // 2-byte length varint
            vec![u64::MAX, 0, 1 << 40, 127, 128], // mixed varint widths
        ];
        for v in cases {
            let encoded = crate::wire::encode_to_vec(&v);
            // Measured bytes are the real encoded length…
            assert_eq!(v.wire_bytes(), encoded.len() as u64, "{v:?}");
            // …and decompose as prefix + elements, exactly like words
            // decompose as 1 + Σ.
            let elem_bytes: u64 = v.iter().map(Words::wire_bytes).sum();
            let elem_words: u64 = v.iter().map(Words::words).sum();
            assert_eq!(
                encoded.len() as u64 - elem_bytes,
                crate::wire::varint_len(v.len() as u64),
                "length prefix shape for {v:?}"
            );
            assert_eq!(v.words() - elem_words, 1, "length word for {v:?}");
            // Round trip through the same prefix.
            let back: Vec<u64> = crate::wire::decode_exact(&encoded).unwrap();
            assert_eq!(back, v);
        }
    }
}
