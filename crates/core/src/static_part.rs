//! A pair's static partition, held in place (paper §3.2).
//!
//! A persistent map task loads its static data onto its local store
//! once and joins it with the state on every iteration. Here that local
//! store is the part's encoded bytes themselves — on the in-process
//! fabrics the very block the DFS holds, over TCP the frame the
//! coordinator sent. Each record is decoded just before its map or
//! extract call, into one key slot and one value slot the part reuses,
//! so no record gets an allocation of its own.
//!
//! [`StaticPart::load`] walks the part once, decoding every record into
//! the slots: a truncated or corrupt part fails there, with a typed
//! error, before the first iteration. After it, [`StaticPart::records`]
//! walks the part in key order (the map side's join). A delta round
//! applies only some keys, so a part loaded for one
//! ([`StaticPart::load_aligned`]) also keeps where each record's value
//! starts, four bytes a record, and [`StaticPart::values`] reads the
//! values of chosen records, in ascending record order, by skipping
//! straight to them.

use bytes::{Buf, Bytes};
use imr_mapreduce::EngineError;
use imr_records::{Codec, CodecError, CodecResult};

/// One pair's static partition: its encoded `(key, value)` records,
/// read through slots the part reuses.
pub struct StaticPart<K, T> {
    bytes: Bytes,
    records: usize,
    /// Where record `i`'s value starts in `bytes` (an aligned load only).
    values: Vec<u32>,
    /// The key and value last decoded, reused by the next record.
    key: Option<K>,
    value: Option<T>,
}

impl<K: Codec + PartialEq, T: Codec> StaticPart<K, T> {
    /// Holds `bytes`, a pair's encoded static part, after one walk that
    /// decodes every record. A part that does not decode is a
    /// [`CodecError`].
    pub fn load(bytes: Bytes) -> CodecResult<Self> {
        StaticPart::walk(bytes, |_, _| {})
    }

    /// [`StaticPart::load`] for [`StaticPart::values`], checking in the
    /// same walk that the part holds exactly `keys` — the keys of the
    /// pair's state — in order, and keeping each value's offset. A part
    /// that does not line up with them is an [`EngineError::Config`]:
    /// state and static data were partitioned differently. So is one of
    /// 4 GiB or more, which a `u32` offset cannot address.
    pub fn load_aligned<'k>(
        pair: usize,
        bytes: Bytes,
        keys: impl ExactSizeIterator<Item = &'k K>,
    ) -> Result<Self, EngineError>
    where
        K: 'k,
    {
        let len = bytes.len();
        if u32::try_from(len).is_err() {
            return Err(EngineError::Config(format!(
                "static part of pair {pair} is {len} bytes: a part must stay under 4 GiB"
            )));
        }
        let state_records = keys.len();
        let mut keys = keys;
        let mut diverged = false;
        let mut values = Vec::with_capacity(state_records);
        let mut part = StaticPart::walk(bytes, |k, at| {
            diverged |= keys.next().is_some_and(|s| s != k);
            // The cast is lossless: `len` fits a u32, checked above.
            values.push(at as u32);
        })?;
        part.values = values;
        check_counts(pair, state_records, part.len())?;
        if diverged {
            return Err(diverged_at(pair));
        }
        Ok(part)
    }

    /// The load walk: every record decoded into the slots, each key
    /// shown to `seen` with where its value starts.
    fn walk(bytes: Bytes, mut seen: impl FnMut(&K, usize)) -> CodecResult<Self> {
        let mut part = StaticPart {
            bytes,
            records: 0,
            values: Vec::new(),
            key: None,
            value: None,
        };
        let (mut buf, len) = (part.bytes.clone(), part.bytes.len());
        while buf.has_remaining() {
            let k = decode_slot(&mut buf, &mut part.key)?;
            seen(k, len - buf.remaining());
            decode_slot(&mut buf, &mut part.value)?;
            part.records += 1;
        }
        Ok(part)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True when the part holds no record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The part's encoded size — what the map side reads of it each
    /// iteration.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// A walk over every record, in key order.
    pub fn records(&mut self) -> Records<'_, K, T> {
        Records {
            buf: self.bytes.clone(),
            key: &mut self.key,
            value: &mut self.value,
        }
    }

    /// A forward-only reader of chosen records' values, for a part
    /// loaded by [`StaticPart::load_aligned`] (it finds no record in
    /// another).
    pub fn values(&mut self) -> Values<'_, T> {
        Values {
            buf: self.bytes.clone(),
            len: self.bytes.len(),
            offsets: &self.values,
            value: &mut self.value,
        }
    }
}

/// The record walk of [`StaticPart::records`]; each record is decoded
/// into the part's slots, so it lives until the next.
pub struct Records<'a, K, T> {
    buf: Bytes,
    key: &'a mut Option<K>,
    value: &'a mut Option<T>,
}

impl<K: Codec, T: Codec> Records<'_, K, T> {
    /// The next record, `None` past the last.
    #[allow(clippy::should_implement_trait)] // a lending walk, not an Iterator
    pub fn next(&mut self) -> Option<CodecResult<(&K, &T)>> {
        if !self.buf.has_remaining() {
            return None;
        }
        let Records { buf, key, value } = self;
        Some(decode_slot(buf, key).and_then(|k| Ok((k, decode_slot(buf, value)?))))
    }
}

/// The value reader of [`StaticPart::values`]: skips forward to each
/// value it is asked for, decoding nothing in between.
pub struct Values<'a, T> {
    buf: Bytes,
    len: usize,
    offsets: &'a [u32],
    value: &'a mut Option<T>,
}

impl<T: Codec> Values<'_, T> {
    /// Record `i`'s value. Records are read in ascending order: asking
    /// for one behind the last read, or past the end, is an error.
    pub fn at(&mut self, i: usize) -> CodecResult<&T> {
        let at = *self
            .offsets
            .get(i)
            .ok_or(CodecError::Corrupt("static record index past the part"))?
            as usize;
        let skip = at
            .checked_sub(self.len - self.buf.remaining())
            .ok_or(CodecError::Corrupt("static values read out of order"))?;
        self.buf.advance(skip);
        decode_slot(&mut self.buf, self.value)
    }
}

/// Decodes the value at the front of `buf` into `slot`, reusing what
/// the slot already owns.
fn decode_slot<'s, V: Codec>(buf: &mut Bytes, slot: &'s mut Option<V>) -> CodecResult<&'s V> {
    match slot {
        Some(v) => {
            V::decode_into(buf, v)?;
            Ok(v)
        }
        None => Ok(slot.insert(V::decode(buf)?)),
    }
}

/// A pair's state and static parts hold as many records.
pub(crate) fn check_counts(
    pair: usize,
    state_records: usize,
    static_records: usize,
) -> Result<(), EngineError> {
    if state_records == static_records {
        return Ok(());
    }
    Err(EngineError::Config(format!(
        "state/static co-partitioning broken at pair {pair}: \
         {state_records} state records vs {static_records} static records"
    )))
}

/// A pair's state and static parts name different keys.
pub(crate) fn diverged_at(pair: usize) -> EngineError {
    EngineError::Config(format!("state/static keys diverged at pair {pair}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imr_records::encode_pairs;

    fn rows() -> Vec<(u32, Vec<f64>)> {
        vec![
            (1, vec![0.5; 3]),
            (4, Vec::new()),
            (7, vec![2.0; 9]),
            (9, vec![1.0]),
        ]
    }

    #[test]
    fn the_walk_gives_back_every_record_in_order() {
        let rows = rows();
        let mut part = StaticPart::<u32, Vec<f64>>::load(encode_pairs(&rows)).unwrap();
        assert_eq!(
            (part.len(), part.encoded_len()),
            (4, encode_pairs(&rows).len())
        );
        for _ in 0..2 {
            let mut walk = part.records();
            let mut seen = Vec::new();
            while let Some(record) = walk.next() {
                let (k, t) = record.unwrap();
                seen.push((*k, t.clone()));
            }
            assert_eq!(seen, rows);
        }
    }

    #[test]
    fn values_skip_forward_to_the_records_asked_for() {
        let rows = rows();
        let keys: Vec<u32> = rows.iter().map(|(k, _)| *k).collect();
        let bytes = encode_pairs(&rows);
        let mut part = StaticPart::<u32, Vec<f64>>::load_aligned(0, bytes, keys.iter()).unwrap();
        let mut values = part.values();
        assert_eq!(values.at(1).unwrap(), &rows[1].1);
        assert_eq!(values.at(3).unwrap(), &rows[3].1);
        assert!(values.at(3).is_err(), "a value read twice");
        assert!(part.values().at(4).is_err(), "past the part");
        assert_eq!(part.values().at(0).unwrap(), &rows[0].1);
        let mut unaligned = StaticPart::<u32, Vec<f64>>::load(encode_pairs(&rows)).unwrap();
        assert!(unaligned.values().at(0).is_err(), "no offsets kept");
    }

    #[test]
    fn a_truncated_part_fails_its_load() {
        let rows = rows();
        let bytes = encode_pairs(&rows);
        let ends: Vec<usize> = (0..=rows.len())
            .map(|i| encode_pairs(&rows[..i]).len())
            .collect();
        for cut in (1..bytes.len()).filter(|cut| !ends.contains(cut)) {
            let part = StaticPart::<u32, Vec<f64>>::load(bytes.slice(..cut));
            assert!(
                matches!(part, Err(CodecError::UnexpectedEof)),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn an_aligned_load_checks_count_then_keys() {
        let bytes = encode_pairs(&rows());
        let load = |keys: &[u32]| {
            StaticPart::<u32, Vec<f64>>::load_aligned(3, bytes.clone(), keys.iter())
                .map(|p| p.len())
        };
        assert_eq!(load(&[1, 4, 7, 9]).unwrap(), 4);
        let config = |r: Result<usize, EngineError>| match r {
            Err(EngineError::Config(msg)) => msg,
            other => panic!("expected a Config error, got {other:?}"),
        };
        assert!(config(load(&[1, 4, 7])).contains("co-partitioning broken at pair 3: 3 state"));
        assert!(config(load(&[1, 4, 8, 9])).contains("keys diverged at pair 3"));
        assert!(config(load(&[2, 4, 7])).contains("co-partitioning broken"));
    }
}
