//! Binary record codecs — the stand-in for Hadoop's `Writable`
//! serialization.
//!
//! Everything that crosses a task boundary in either engine (shuffle
//! segments, DFS files, reduce→map state hand-offs, checkpoints) is
//! encoded through these codecs, so the byte counts charged to the cost
//! model are the real encoded sizes, not estimates.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use core::fmt;

/// Errors produced while decoding a record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended in the middle of a value.
    UnexpectedEof,
    /// A length prefix or discriminant was out of range.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of record stream"),
            CodecError::Corrupt(what) => write!(f, "corrupt record stream: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Shorthand result for decoding.
pub type CodecResult<T> = Result<T, CodecError>;

/// A type that can be written to and read from a byte stream.
///
/// Implementations must round-trip: `decode(encode(x)) == x`, and
/// consecutive encodings must be self-delimiting so records can be
/// concatenated into segments and files.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Reads one value from the front of `buf`, consuming its bytes.
    fn decode(buf: &mut Bytes) -> CodecResult<Self>;

    /// [`decode`](Codec::decode) into `slot`, reusing what it owns: a
    /// reader that decodes record after record into one slot allocates
    /// only when a record outgrows it. Leaves `slot` equal to what
    /// `decode` returns and consumes the same bytes; on an error `slot`
    /// holds an unspecified value.
    #[inline]
    fn decode_into(buf: &mut Bytes, slot: &mut Self) -> CodecResult<()> {
        *slot = Self::decode(buf)?;
        Ok(())
    }

    /// Appends `n` values read from the front of `buf` to `out`: the
    /// elements of an encoded `Vec<Self>`. Fixed-width types read them
    /// in one slice walk.
    #[inline]
    fn decode_many(buf: &mut Bytes, n: usize, out: &mut Vec<Self>) -> CodecResult<()> {
        for _ in 0..n {
            out.push(Self::decode(buf)?);
        }
        Ok(())
    }

    /// Exact number of bytes [`encode`](Codec::encode) will append.
    fn encoded_len(&self) -> usize;

    /// The key as an unsigned integer whose numeric order is the type's
    /// `Ord` order, for key types that have one (the unsigned integers
    /// return themselves). The sort kernel orders such keys by digits
    /// instead of by comparisons; `None`, the default, always compares.
    #[inline]
    fn radix_key(&self) -> Option<u64> {
        None
    }

    /// Convenience: encodes into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }
}

/// Marker for types usable as shuffle keys: totally ordered, hashable,
/// cheap to clone, and encodable.
pub trait Key: Codec + Ord + core::hash::Hash + Clone + Send + Sync + 'static {}
impl<T: Codec + Ord + core::hash::Hash + Clone + Send + Sync + 'static> Key for T {}

/// Marker for types usable as record values.
pub trait Value: Codec + Clone + Send + Sync + 'static {}
impl<T: Codec + Clone + Send + Sync + 'static> Value for T {}

#[inline]
fn need(buf: &Bytes, n: usize) -> CodecResult<()> {
    if buf.remaining() < n {
        Err(CodecError::UnexpectedEof)
    } else {
        Ok(())
    }
}

/// Consumes the next `W` bytes of `buf`.
#[inline]
fn take<const W: usize>(buf: &mut Bytes) -> CodecResult<[u8; W]> {
    let bytes = *buf
        .chunk()
        .first_chunk::<W>()
        .ok_or(CodecError::UnexpectedEof)?;
    buf.advance(W);
    Ok(bytes)
}

/// Appends the `n` big-endian `W`-byte values at the front of `buf` to
/// `out`, converted by `from`, in one slice walk.
#[inline]
fn decode_fixed<T, const W: usize>(
    buf: &mut Bytes,
    n: usize,
    out: &mut Vec<T>,
    from: impl Fn([u8; W]) -> T,
) -> CodecResult<()> {
    let len = n.saturating_mul(W);
    need(buf, len)?;
    let (words, _) = buf.chunk()[..len].as_chunks::<W>();
    out.extend(words.iter().map(|&w| from(w)));
    buf.advance(len);
    Ok(())
}

/// LEB128-style varint, as Hadoop's `VIntWritable` family does for
/// compactness on skewed graph data.
#[inline]
fn encode_varint(mut v: u64, buf: &mut BytesMut) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

#[inline]
fn decode_varint(buf: &mut Bytes) -> CodecResult<u64> {
    // One byte — a small length or id — is the common case.
    if let Some(&byte) = buf.chunk().first().filter(|&&b| b & 0x80 == 0) {
        buf.advance(1);
        return Ok(u64::from(byte));
    }
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        need(buf, 1)?;
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(CodecError::Corrupt("varint longer than 10 bytes"))
}

#[inline]
fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

macro_rules! impl_varint_codec {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                encode_varint(u64::from(*self), buf);
            }
            #[inline]
            fn decode(buf: &mut Bytes) -> CodecResult<Self> {
                let v = decode_varint(buf)?;
                <$t>::try_from(v).map_err(|_| CodecError::Corrupt("varint out of range"))
            }
            #[inline]
            fn encoded_len(&self) -> usize {
                varint_len(u64::from(*self))
            }
            #[inline]
            fn radix_key(&self) -> Option<u64> {
                Some(u64::from(*self))
            }
        }
    )*};
}

impl_varint_codec!(u8, u16, u64);

// `u32` — the node-id type of every graph workload — encodes as fixed
// four big-endian bytes, matching Hadoop's `IntWritable`. Keeping the
// on-wire density of the 2011 system matters for reproducing its
// communication-volume results (adjacency lists are the static data
// whose shuffling iMapReduce eliminates).
impl Codec for u32 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32(*self);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(u32::from_be_bytes(take(buf)?))
    }
    #[inline]
    fn decode_many(buf: &mut Bytes, n: usize, out: &mut Vec<Self>) -> CodecResult<()> {
        decode_fixed(buf, n, out, u32::from_be_bytes)
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        4
    }
    #[inline]
    fn radix_key(&self) -> Option<u64> {
        Some(u64::from(*self))
    }
}

impl Codec for usize {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        encode_varint(*self as u64, buf);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        let v = decode_varint(buf)?;
        usize::try_from(v).map_err(|_| CodecError::Corrupt("usize out of range"))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
    #[inline]
    fn radix_key(&self) -> Option<u64> {
        Some(*self as u64)
    }
}

impl Codec for i64 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        // Zigzag so small negatives stay small.
        encode_varint(((self << 1) ^ (self >> 63)) as u64, buf);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        let v = decode_varint(buf)?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        varint_len(((self << 1) ^ (self >> 63)) as u64)
    }
}

impl Codec for i32 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        i64::from(*self).encode(buf);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        let v = i64::decode(buf)?;
        i32::try_from(v).map_err(|_| CodecError::Corrupt("i32 out of range"))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        i64::from(*self).encoded_len()
    }
}

impl Codec for f64 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64(*self);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(f64::from_bits(u64::from_be_bytes(take(buf)?)))
    }
    #[inline]
    fn decode_many(buf: &mut Bytes, n: usize, out: &mut Vec<Self>) -> CodecResult<()> {
        decode_fixed(buf, n, out, |w| f64::from_bits(u64::from_be_bytes(w)))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Codec for f32 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f32(*self);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok(f32::from_bits(u32::from_be_bytes(take(buf)?)))
    }
    #[inline]
    fn decode_many(buf: &mut Bytes, n: usize, out: &mut Vec<Self>) -> CodecResult<()> {
        decode_fixed(buf, n, out, |w| f32::from_bits(u32::from_be_bytes(w)))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Codec for bool {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool discriminant")),
        }
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Codec for () {
    #[inline]
    fn encode(&self, _buf: &mut BytesMut) {}
    #[inline]
    fn decode(_buf: &mut Bytes) -> CodecResult<Self> {
        Ok(())
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        0
    }
}

impl Codec for String {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        encode_varint(self.len() as u64, buf);
        buf.put_slice(self.as_bytes());
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        let len = decode_varint(buf)? as usize;
        need(buf, len)?;
        let raw = buf.split_to(len);
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Corrupt("invalid utf-8"))
    }
    #[inline]
    fn decode_into(buf: &mut Bytes, slot: &mut Self) -> CodecResult<()> {
        let len = decode_varint(buf)? as usize;
        need(buf, len)?;
        let raw = buf.split_to(len);
        let text = std::str::from_utf8(&raw).map_err(|_| CodecError::Corrupt("invalid utf-8"))?;
        slot.clear();
        slot.push_str(text);
        Ok(())
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

/// A `Vec`'s length prefix. Guards against corrupt prefixes asking for
/// absurd allocations; elements are at least self-delimiting.
#[inline]
fn decode_vec_len(buf: &mut Bytes) -> CodecResult<usize> {
    let len = decode_varint(buf)? as usize;
    if len > buf.remaining().saturating_mul(8).max(1024) {
        return Err(CodecError::Corrupt("vec length prefix too large"));
    }
    Ok(len)
}

impl<T: Codec> Codec for Vec<T> {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        encode_varint(self.len() as u64, buf);
        for item in self {
            item.encode(buf);
        }
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        let len = decode_vec_len(buf)?;
        let mut out = Vec::with_capacity(len.min(1 << 20));
        T::decode_many(buf, len, &mut out)?;
        Ok(out)
    }
    /// Keeps the slot's capacity: cleared, then refilled.
    #[inline]
    fn decode_into(buf: &mut Bytes, slot: &mut Self) -> CodecResult<()> {
        let len = decode_vec_len(buf)?;
        slot.clear();
        slot.reserve(len.min(1 << 20));
        T::decode_many(buf, len, slot)
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Codec::encoded_len).sum::<usize>()
    }
}

// `Bytes` — an opaque, already-encoded payload embedded inside a
// larger message (shuffle segments, checkpoint bodies and broadcast
// parts carried inside transport frames). Length-prefixed so it stays
// self-delimiting; decoding is zero-copy (a sub-view of the source
// buffer).
impl Codec for Bytes {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        encode_varint(self.len() as u64, buf);
        buf.put_slice(self);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        let len = usize::try_from(decode_varint(buf)?)
            .map_err(|_| CodecError::Corrupt("bytes length out of range"))?;
        need(buf, len)?;
        Ok(buf.split_to(len))
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl<T: Codec> Codec for Option<T> {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(CodecError::Corrupt("option discriminant")),
        }
    }
    #[inline]
    fn decode_into(buf: &mut Bytes, slot: &mut Self) -> CodecResult<()> {
        need(buf, 1)?;
        match (buf.get_u8(), slot) {
            (0, slot) => *slot = None,
            (1, Some(v)) => T::decode_into(buf, v)?,
            (1, slot) => *slot = Some(T::decode(buf)?),
            _ => return Err(CodecError::Corrupt("option discriminant")),
        }
        Ok(())
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Codec::encoded_len)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
    #[inline]
    fn decode_into(buf: &mut Bytes, slot: &mut Self) -> CodecResult<()> {
        A::decode_into(buf, &mut slot.0)?;
        B::decode_into(buf, &mut slot.1)
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> CodecResult<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
    #[inline]
    fn decode_into(buf: &mut Bytes, slot: &mut Self) -> CodecResult<()> {
        A::decode_into(buf, &mut slot.0)?;
        B::decode_into(buf, &mut slot.1)?;
        C::decode_into(buf, &mut slot.2)
    }
    #[inline]
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

/// The length of [`encode_pairs`]`(pairs)`, without encoding anything.
pub fn pairs_encoded_len<K: Codec, V: Codec>(pairs: &[(K, V)]) -> usize {
    pairs
        .iter()
        .map(|(k, v)| k.encoded_len() + v.encoded_len())
        .sum()
}

/// Encodes a slice of key/value pairs into one contiguous segment.
pub fn encode_pairs<K: Codec, V: Codec>(pairs: &[(K, V)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(pairs_encoded_len(pairs));
    for (k, v) in pairs {
        k.encode(&mut buf);
        v.encode(&mut buf);
    }
    buf.freeze()
}

/// Decodes a segment produced by [`encode_pairs`] back into pairs.
pub fn decode_pairs<K: Codec, V: Codec>(buf: Bytes) -> CodecResult<Vec<(K, V)>> {
    PairCursor::new(buf).collect()
}

/// A decode cursor over a segment produced by [`encode_pairs`]: yields
/// the pairs one at a time, in segment order, without materialising
/// them. Ends after the first error.
pub struct PairCursor<K, V> {
    buf: Bytes,
    pairs: core::marker::PhantomData<fn() -> (K, V)>,
}

impl<K, V> PairCursor<K, V> {
    /// A cursor at the start of `segment`.
    pub fn new(segment: Bytes) -> Self {
        PairCursor {
            buf: segment,
            pairs: core::marker::PhantomData,
        }
    }
}

impl<K: Codec, V: Codec> Iterator for PairCursor<K, V> {
    type Item = CodecResult<(K, V)>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if !self.buf.has_remaining() {
            return None;
        }
        let pair = K::decode(&mut self.buf).and_then(|k| Ok((k, V::decode(&mut self.buf)?)));
        if pair.is_err() {
            self.buf = Bytes::new();
        }
        Some(pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + core::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(
            bytes.len(),
            v.encoded_len(),
            "encoded_len mismatch for {v:?}"
        );
        let mut buf = bytes;
        let back = T::decode(&mut buf).expect("decode");
        assert_eq!(back, v);
        assert!(!buf.has_remaining(), "trailing bytes after {v:?}");
    }

    #[test]
    fn primitive_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            round_trip(v);
        }
        for v in [0u32, 42, u32::MAX] {
            round_trip(v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            round_trip(v);
        }
        for v in [0.0f64, -1.5, f64::INFINITY, 1e-300] {
            round_trip(v);
        }
        round_trip(true);
        round_trip(false);
        round_trip(());
        round_trip(String::from("pagerank"));
        round_trip(String::new());
    }

    #[test]
    fn composite_round_trips() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip((42u32, String::from("x")));
        round_trip((1u32, 2.5f64, vec![3u64]));
        round_trip(vec![(1u32, 0.5f64), (2, 0.25)]);
    }

    #[test]
    fn varint_is_compact_for_small_ids() {
        assert_eq!(7u64.encoded_len(), 1);
        assert_eq!(127u64.encoded_len(), 1);
        assert_eq!(128u64.encoded_len(), 2);
        assert_eq!((-1i64).encoded_len(), 1); // zigzag
                                              // u32 is IntWritable-style fixed width.
        assert_eq!(0u32.encoded_len(), 4);
        assert_eq!(u32::MAX.encoded_len(), 4);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = (123456u64, 1.5f64).to_bytes();
        for cut in 0..bytes.len() {
            let mut buf = bytes.slice(..cut);
            assert!(<(u64, f64)>::decode(&mut buf).is_err());
        }
    }

    #[test]
    fn corrupt_bool_and_option_discriminants_are_errors() {
        let mut buf = Bytes::from_static(&[2]);
        assert_eq!(
            bool::decode(&mut buf),
            Err(CodecError::Corrupt("bool discriminant"))
        );
        let mut buf = Bytes::from_static(&[9, 1]);
        assert!(Option::<u32>::decode(&mut buf).is_err());
    }

    #[test]
    fn oversized_vec_length_is_rejected() {
        let mut buf = BytesMut::new();
        encode_varint(u64::MAX, &mut buf);
        let mut bytes = buf.freeze();
        assert!(Vec::<u64>::decode(&mut bytes).is_err());
    }

    #[test]
    fn pair_segments_round_trip() {
        let pairs: Vec<(u32, f64)> = (0..100).map(|i| (i, f64::from(i) * 0.5)).collect();
        let seg = encode_pairs(&pairs);
        let back: Vec<(u32, f64)> = decode_pairs(seg).unwrap();
        assert_eq!(back, pairs);
    }

    /// `decode_into` over a slot pre-filled with `longer`, then with
    /// `shorter`, leaves exactly `decode`'s value, consumes exactly its
    /// bytes, and fails with its error on every truncation.
    fn decode_into_agrees<T: Codec + PartialEq + fmt::Debug + Clone>(v: T, longer: T, shorter: T) {
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        buf.put_u8(0xab);
        let (src, whole) = (buf.freeze(), v.encoded_len());
        for prefilled in [longer, shorter] {
            let (mut by_decode, mut by_into) = (src.clone(), src.clone());
            let mut slot = prefilled.clone();
            let want = T::decode(&mut by_decode).expect("decode");
            T::decode_into(&mut by_into, &mut slot).expect("decode_into");
            assert_eq!(slot, want, "over {prefilled:?}");
            assert_eq!(want, v);
            assert_eq!(by_into.remaining(), by_decode.remaining(), "{v:?}");
            assert_eq!(by_into.remaining(), 1, "{v:?}");
            for cut in 0..whole {
                let (mut a, mut b) = (src.slice(..cut), src.slice(..cut));
                let mut slot = prefilled.clone();
                let want = T::decode(&mut a).err();
                assert!(want.is_some(), "{v:?} cut at {cut} decodes");
                assert_eq!(
                    T::decode_into(&mut b, &mut slot).err(),
                    want,
                    "{v:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn decode_into_is_decode_over_any_slot() {
        decode_into_agrees(200u8, 1, 0);
        decode_into_agrees(300u16, u16::MAX, 0);
        decode_into_agrees(7u32, u32::MAX, 0);
        decode_into_agrees(1u64 << 40, u64::MAX, 0);
        decode_into_agrees(9usize, usize::MAX, 0);
        decode_into_agrees(-5i64, i64::MIN, 0);
        decode_into_agrees(-5i32, i32::MAX, 0);
        decode_into_agrees(-1.5f64, f64::MAX, 0.0);
        decode_into_agrees(2.5f32, f32::MIN, 0.0);
        decode_into_agrees(true, false, false);
        decode_into_agrees((), (), ());
        decode_into_agrees("kmeans".to_owned(), "a longer string".into(), "k".into());
        decode_into_agrees(
            Bytes::from(vec![1, 2, 3]),
            Bytes::from(vec![9; 8]),
            Bytes::new(),
        );
        // K-means' point, PageRank's adjacency, SSSP's `Adj`.
        decode_into_agrees(vec![0.5f64, -2.0, 1e300], vec![7.0; 9], vec![1.0]);
        decode_into_agrees(vec![3u32, 1, 4, 1, 5], vec![0; 12], Vec::new());
        decode_into_agrees(
            vec![(1u32, 0.5f32), (9, 2.0)],
            vec![(0, 0.0); 5],
            Vec::new(),
        );
        // Jacobi's `Row`.
        decode_into_agrees(
            (vec![(1u32, 0.25f64), (3, -1.0)], 4.0f64, 1.0f64),
            (vec![(0, 0.0); 6], 0.0, 0.0),
            (Vec::new(), 1.0, 2.0),
        );
        decode_into_agrees(Some(vec![1u32, 2]), Some(vec![0; 7]), None);
        decode_into_agrees(None, Some(vec![1u32, 2]), None);
        decode_into_agrees(
            vec!["a".to_owned(), "bc".into()],
            vec!["x".into(); 3],
            Vec::new(),
        );
        decode_into_agrees(
            (42u32, vec![1.0f64; 8]),
            (0, vec![0.0; 16]),
            (1, Vec::new()),
        );
    }

    #[test]
    fn fixed_width_vectors_decode_like_their_elements() {
        let xs: Vec<f64> = (0..20).map(|i| f64::from(i) * -0.75).collect();
        let mut buf = xs.to_bytes();
        assert_eq!(decode_varint(&mut buf), Ok(20));
        let one_by_one: Vec<f64> = (0..20).map(|_| f64::decode(&mut buf).unwrap()).collect();
        assert_eq!(one_by_one, xs);
        assert_eq!(Vec::<f64>::decode(&mut xs.to_bytes()), Ok(xs));
        let ids: Vec<u32> = (0..9).map(|i| i * 0x0101_0101).collect();
        assert_eq!(Vec::<u32>::decode(&mut ids.to_bytes()), Ok(ids));
        let fs = vec![1.5f32, -0.0, f32::MAX];
        assert_eq!(Vec::<f32>::decode(&mut fs.to_bytes()), Ok(fs));
    }

    #[test]
    fn invalid_utf8_string_is_an_error() {
        let mut buf = BytesMut::new();
        encode_varint(2, &mut buf);
        buf.put_slice(&[0xff, 0xfe]);
        let bytes = buf.freeze();
        assert!(String::decode(&mut bytes.clone()).is_err());
        let mut slot = String::from("kept");
        let err = String::decode_into(&mut bytes.clone(), &mut slot);
        assert_eq!(err, Err(CodecError::Corrupt("invalid utf-8")));
    }
}
