//! The shuffle kernel: the one copy of the path between map output and
//! reduce input that every engine drives.
//!
//! [`ShuffleScratch::shuffle_out`] is the map side (partition → sort →
//! encode, one segment per destination), and [`FoldTable`] the map side
//! of a job with a combiner, which folds each value into its key's
//! accumulator as the map emits; [`shuffle_in`] is the reduce side
//! (k-way merge straight off the segments' decode cursors, each value
//! folded into its key's accumulator as it arrives), and
//! [`shuffle_in_groups`] the same merge for a reducer that takes a
//! key's values whole. A delta round (the accumulative mode) runs the
//! same two halves: [`ShuffleScratch::shuffle_folded`] pre-merges each
//! destination's equal keys as it encodes them, and [`merge_into`]
//! folds every arriving value into its key's entry of a key-sorted
//! table. The user functions arrive as closures, so the baseline
//! `MrJob` and the iterative `IterativeJob` both run this code, and the
//! order a key's values are folded or listed in — source run first,
//! emission order within a run — is decided here and nowhere else.
//!
//! The map side never moves a record to sort it: it routes and sorts
//! *indices* ([`ShuffleScratch::route`]) and encodes or folds by
//! gathering through them; with a combiner it sorts only the distinct
//! keys, whose values it has already folded. The index buffers belong
//! to the caller's [`ShuffleScratch`], which a persistent task keeps for
//! as long as it lives, so iteration *k + 1* allocates none of them
//! again.

use crate::codec::{Codec, CodecResult, Key, PairCursor, Value};
use crate::sorted::{merge, merge_groups, pack_word, sort_words, word_index, Group};
use bytes::{Bytes, BytesMut};
use core::fmt;
use std::collections::hash_map::{Entry, HashMap};

/// Cost hook: told how much work the kernel just did, in the units the
/// simulated cost model charges. The native engines pass `()`, which
/// compiles to nothing.
pub trait ShuffleCost {
    /// A run of `records` map-output records was sorted.
    fn sorted(&mut self, _records: u64) {}
    /// A key's `values` map-output values were folded into one (charged
    /// once per key and map side).
    fn combined(&mut self, _values: u64) {}
    /// A key's `values` values were reduced.
    fn reduced(&mut self, _values: u64) {}
    /// Job code ran over `records` records and `bytes` bytes went
    /// through the codec, beyond the sorts and folds above (a delta
    /// round's apply, extract and encode; its decode and merge).
    fn processed(&mut self, _records: u64, _bytes: u64) {}
    /// `records` records arrived as `runs` sorted runs and were merged.
    fn merged(&mut self, _records: u64, _runs: usize) {}
    /// The user map consumed and emitted `records` records in all,
    /// reading `bytes` bytes of state and static data, and its `spilled`
    /// bytes of output were serialised and written to disk.
    fn mapped(&mut self, _records: u64, _bytes: u64, _spilled: u64) {}
}

impl ShuffleCost for () {}

/// Why a batch of map output could not be routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShuffleError {
    /// The partition function named a destination that does not exist.
    Partition {
        /// What it returned.
        dest: usize,
        /// How many destinations there are.
        parts: usize,
    },
    /// More records in one batch than a sort word can index.
    TooManyRecords(usize),
}

impl fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShuffleError::Partition { dest, parts } => {
                write!(f, "partition function returned {dest} for {parts} parts")
            }
            ShuffleError::TooManyRecords(n) => {
                write!(f, "{n} records in one map output batch (limit 2^32 - 1)")
            }
        }
    }
}

impl std::error::Error for ShuffleError {}

/// What the map side produced.
pub struct ShuffleOut {
    /// One encoded segment per destination, in destination order.
    pub segments: Vec<Bytes>,
    /// Records in the segments (after any combiner).
    pub records: u64,
    /// Total encoded size of the segments.
    pub bytes: u64,
}

impl ShuffleOut {
    fn with_capacity(n: usize) -> Self {
        ShuffleOut {
            segments: Vec::with_capacity(n),
            records: 0,
            bytes: 0,
        }
    }

    fn push(&mut self, segment: Bytes, records: usize) {
        self.records += records as u64;
        self.bytes += segment.len() as u64;
        self.segments.push(segment);
    }
}

/// The map side's index buffers: per destination, the sort words of the
/// records routed there. Owned by whoever runs the map side repeatedly
/// (a native pair for its generation, a simulated run for its length)
/// and reused, so their capacity is paid for once.
#[derive(Debug, Default)]
pub struct ShuffleScratch {
    /// Per destination: `key << 32 | index` words, or bare indices when
    /// some key of the batch does not pack.
    words: Vec<Vec<u64>>,
    /// The radix sort's second buffer.
    tmp: Vec<u64>,
    /// Per destination, the length of the last delta-round segment; the
    /// next one starts with an eighth more room than that.
    rooms: Vec<usize>,
}

impl ShuffleScratch {
    /// Routes `pairs` to `n` destinations with `partition` and sorts each
    /// destination's records by key, stably, without moving them:
    /// afterwards [`order`](Self::order) walks a destination's records in
    /// (key, emission) order.
    pub fn route<K: Codec + Ord, V>(
        &mut self,
        pairs: &[(K, V)],
        n: usize,
        partition: impl Fn(&K, usize) -> usize,
    ) -> Result<(), ShuffleError> {
        if pairs.len() > u32::MAX as usize {
            return Err(ShuffleError::TooManyRecords(pairs.len()));
        }
        self.words.resize_with(n, Vec::new);
        self.words.iter_mut().for_each(Vec::clear);
        if self.words.iter().all(|words| words.capacity() == 0) {
            // First use: size the buffers exactly, by a counting pass.
            // Grown side by side by doubling they leave behind as much
            // garbage as they keep.
            let mut counts = vec![0usize; n];
            for (k, _) in pairs {
                if let Some(count) = counts.get_mut(partition(k, n)) {
                    *count += 1;
                }
            }
            for (words, count) in self.words.iter_mut().zip(counts) {
                words.reserve_exact(count);
            }
        }
        let mut packed = true;
        for (i, (k, _)) in pairs.iter().enumerate() {
            let dest = partition(k, n);
            let Some(words) = self.words.get_mut(dest) else {
                return Err(ShuffleError::Partition { dest, parts: n });
            };
            let i = i as u32;
            words.push(pack_word(k, i).unwrap_or_else(|| {
                packed = false;
                u64::from(i)
            }));
        }
        for words in &mut self.words {
            if packed {
                sort_words(words, &mut self.tmp);
            } else {
                // Not every word carries its key: order the bare
                // indices by comparing the keys they name.
                words.iter_mut().for_each(|w| *w = word_index(*w) as u64);
                words.sort_by(|&a, &b| pairs[a as usize].0.cmp(&pairs[b as usize].0));
            }
        }
        Ok(())
    }

    /// The indices of the records routed to `dest` by the last
    /// [`route`](Self::route), in (key, emission) order (none for a
    /// destination it did not have).
    pub fn order(&self, dest: usize) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        indices(self.words.get(dest).map_or(&[], Vec::as_slice))
    }

    /// Map side: routes `pairs` to `n` destinations with `partition`,
    /// sorts each destination's records by key (stable) and encodes one
    /// segment per destination. `pairs` is left empty, its capacity kept.
    pub fn shuffle_out<K: Key, V: Value>(
        &mut self,
        pairs: &mut Vec<(K, V)>,
        n: usize,
        partition: impl Fn(&K, usize) -> usize,
        cost: &mut impl ShuffleCost,
    ) -> Result<ShuffleOut, ShuffleError> {
        self.route(pairs, n, partition)?;
        let mut out = ShuffleOut::with_capacity(n);
        for dest in 0..n {
            let records = self.order(dest).len();
            cost.sorted(records as u64);
            out.push(self.encode(pairs, dest), records);
        }
        pairs.clear();
        Ok(out)
    }

    /// Encodes the records the last [`route`](Self::route) of `pairs`
    /// sent to `dest`, in (key, emission) order, into one segment.
    pub fn encode<K: Codec, V: Codec>(&self, pairs: &[(K, V)], dest: usize) -> Bytes {
        let run = self.order(dest).map(|i| &pairs[i]);
        let len = run
            .clone()
            .map(|(k, v)| k.encoded_len() + v.encoded_len())
            .sum();
        let mut buf = BytesMut::with_capacity(len);
        for (k, v) in run {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Map side of a delta round: [`shuffle_out`](Self::shuffle_out),
    /// except that each run of equal keys is folded — in (key, emission)
    /// order, the first value seeding the key's accumulator — and
    /// encoded as one record. Each destination is folded and encoded in
    /// one walk into a buffer that is then frozen into its segment,
    /// uncopied, and starts with room for an eighth more bytes than the
    /// destination's previous segment: rounds that apply part of their
    /// pending keys vary by a tenth or so from one to the next, and a
    /// buffer that outgrows its room doubles. Charges `cost` a sort of
    /// each destination's folded records.
    pub fn shuffle_folded<K: Key, V: Value>(
        &mut self,
        pairs: &mut Vec<(K, V)>,
        n: usize,
        partition: impl Fn(&K, usize) -> usize,
        mut fold: impl FnMut(&K, &mut V, V),
        cost: &mut impl ShuffleCost,
    ) -> Result<ShuffleOut, ShuffleError> {
        self.route(pairs, n, partition)?;
        let ShuffleScratch { words, rooms, .. } = self;
        rooms.resize(n, 0);
        let mut out = ShuffleOut::with_capacity(n);
        for (words, room) in words.iter().zip(rooms.iter_mut()) {
            let mut run = indices(words).map(|i| &pairs[i]).peekable();
            let mut segment = BytesMut::with_capacity(*room + *room / 8);
            let mut records = 0;
            while let Some((k, first)) = run.next() {
                let mut acc = first.clone();
                while let Some((_, v)) = run.next_if(|(next, _)| next == k) {
                    fold(k, &mut acc, v.clone());
                }
                k.encode(&mut segment);
                acc.encode(&mut segment);
                records += 1;
            }
            cost.sorted(records as u64);
            *room = segment.len();
            out.push(segment.freeze(), records);
        }
        pairs.clear();
        Ok(out)
    }
}

/// The map side of a job with a combiner: one accumulator per distinct
/// key, in first-emission order.
///
/// [`absorb`](Self::absorb) folds each emitted value into its key's
/// accumulator as the map emits — the key's first value seeds it, every
/// later one is folded in, in emission order — so the map output is
/// never buffered and the table holds as many values as there are
/// distinct keys (16 for K-means). [`finish`](Self::finish) encodes the
/// keys, sorted, one segment per destination, and charges the cost hook
/// as grouping all of a key's values and combining them once would
/// (`fold_table_is_group_then_fold` holds both).
#[derive(Debug)]
pub struct FoldTable<K, V> {
    /// Key → its index in `accs`.
    slot: HashMap<K, usize>,
    /// One accumulator per distinct key.
    accs: Vec<(K, V)>,
    /// Per accumulator, how many values were folded into it.
    emitted: Vec<u64>,
}

impl<K, V> Default for FoldTable<K, V> {
    fn default() -> Self {
        FoldTable {
            slot: HashMap::new(),
            accs: Vec::new(),
            emitted: Vec::new(),
        }
    }
}

impl<K: Key, V: Value> FoldTable<K, V> {
    /// Drops every accumulator (what a failed map side may have left
    /// behind); the table's capacity is kept.
    pub fn clear(&mut self) {
        self.slot.clear();
        self.accs.clear();
        self.emitted.clear();
    }

    /// Folds `pairs`, in order, into their keys' accumulators; returns
    /// how many pairs it folded. `pairs` is left empty, its capacity
    /// kept.
    pub fn absorb(&mut self, pairs: &mut Vec<(K, V)>, fold: &mut impl FnMut(&K, &mut V, V)) -> u64 {
        let absorbed = pairs.len() as u64;
        for (k, v) in pairs.drain(..) {
            match self.slot.entry(k) {
                Entry::Occupied(slot) => {
                    let i = *slot.get();
                    let (k, acc) = &mut self.accs[i];
                    fold(k, acc, v);
                    self.emitted[i] += 1;
                }
                Entry::Vacant(slot) => {
                    self.accs.push((slot.key().clone(), v));
                    self.emitted.push(1);
                    slot.insert(self.accs.len() - 1);
                }
            }
        }
        absorbed
    }

    /// Routes the keys to `n` destinations with `partition` and encodes
    /// one segment per destination: keys ascending, one record each.
    /// Charges `cost` as folding each key's values once would: the
    /// records emitted to each destination sorted, then one combine of
    /// all its values per key. Leaves the table empty.
    pub fn finish(
        &mut self,
        scratch: &mut ShuffleScratch,
        n: usize,
        partition: impl Fn(&K, usize) -> usize,
        cost: &mut impl ShuffleCost,
    ) -> Result<ShuffleOut, ShuffleError> {
        let out = self.encode(scratch, n, partition, cost);
        self.clear();
        out
    }

    fn encode(
        &self,
        scratch: &mut ShuffleScratch,
        n: usize,
        partition: impl Fn(&K, usize) -> usize,
        cost: &mut impl ShuffleCost,
    ) -> Result<ShuffleOut, ShuffleError> {
        scratch.route(&self.accs, n, partition)?;
        for dest in 0..n {
            cost.sorted(scratch.order(dest).map(|i| self.emitted[i]).sum());
        }
        let mut out = ShuffleOut::with_capacity(n);
        for dest in 0..n {
            scratch
                .order(dest)
                .for_each(|i| cost.combined(self.emitted[i]));
            out.push(scratch.encode(&self.accs, dest), scratch.order(dest).len());
        }
        Ok(out)
    }
}

/// The record indices a run of sort words carries, in word order.
fn indices(words: &[u64]) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
    words.iter().map(|&w| word_index(w))
}

/// Reduce side: merges one key-sorted segment per source straight off
/// the decode cursors and folds each key's values into one accumulator
/// as they arrive — the first value seeds it, every later one goes
/// through `fold`, source by source (ties keep source order), each
/// source's in emission order — then hands `done` each key with its
/// accumulator, in key order. Returns the number of records merged. A
/// truncated or corrupt segment is an error, possibly after some keys
/// were done.
pub fn shuffle_in<K: Key, V: Value>(
    segments: Vec<Bytes>,
    fold: impl FnMut(&K, &mut V, V),
    done: impl FnMut(K, V),
    cost: &mut impl ShuffleCost,
) -> CodecResult<u64> {
    struct Fold<'c, F, D, C> {
        fold: F,
        done: D,
        cost: &'c mut C,
    }
    impl<K, V, F, D, C> Group<K, V> for Fold<'_, F, D, C>
    where
        F: FnMut(&K, &mut V, V),
        D: FnMut(K, V),
        C: ShuffleCost,
    {
        type Acc = V;
        fn open(&mut self, _: &K, first: V) -> V {
            first
        }
        #[inline]
        fn add(&mut self, key: &K, acc: &mut V, value: V) {
            (self.fold)(key, acc, value);
        }
        fn close(&mut self, key: K, acc: V, values: u64) {
            self.cost.reduced(values);
            (self.done)(key, acc);
        }
    }
    merge(cursors(segments), &mut Fold { fold, done, cost })
}

/// [`shuffle_in`] for a reducer that takes a key's values whole (the
/// baseline `MrJob`): hands every key group
/// to `reduce` in key order, each with a `Vec` of exactly its values in
/// merge order.
pub fn shuffle_in_groups<K: Key, V: Value>(
    segments: Vec<Bytes>,
    mut reduce: impl FnMut(K, Vec<V>),
    cost: &mut impl ShuffleCost,
) -> CodecResult<u64> {
    merge_groups(cursors(segments), |k, values| {
        cost.reduced(values.len() as u64);
        reduce(k, values);
    })
}

/// Receive side of a delta round: merges one key-sorted segment per
/// source straight off the decode cursors into `entries`, a table
/// sorted by strictly ascending key, walking the two in lockstep. Each
/// value is folded into the entry that holds its key, source by source
/// (ties keep source order), each source's in its own order; values for
/// keys `entries` lacks are skipped. Returns the number of values
/// folded. A truncated or corrupt segment is an error, possibly after
/// some values were folded.
pub fn merge_into<K: Key, V: Value, E>(
    segments: Vec<Bytes>,
    entries: &mut [(K, E)],
    fold: impl FnMut(&K, &mut E, V),
) -> CodecResult<u64> {
    /// The table; the index of its first key not below the open one;
    /// the fold; the values folded so far.
    struct Lockstep<'e, K, E, F>(&'e mut [(K, E)], usize, F, u64);
    impl<K: Ord, V, E, F: FnMut(&K, &mut E, V)> Group<K, V> for Lockstep<'_, K, E, F> {
        /// The open key's entry; `None` for a key the table lacks.
        type Acc = Option<usize>;
        fn open(&mut self, key: &K, first: V) -> Option<usize> {
            let Lockstep(entries, at, ..) = self;
            *at += entries[*at..].iter().take_while(|(k, _)| k < key).count();
            let mut acc = entries.get(*at).filter(|(k, _)| k == key).map(|_| *at);
            self.add(key, &mut acc, first);
            acc
        }
        #[inline]
        fn add(&mut self, key: &K, acc: &mut Option<usize>, value: V) {
            if let Some(i) = *acc {
                (self.2)(key, &mut self.0[i].1, value);
            }
        }
        fn close(&mut self, _: K, acc: Option<usize>, values: u64) {
            self.3 += if acc.is_some() { values } else { 0 };
        }
    }
    let mut walk = Lockstep(entries, 0, fold, 0);
    merge(cursors(segments), &mut walk)?;
    Ok(walk.3)
}

fn cursors<K: Key, V: Value>(segments: Vec<Bytes>) -> Vec<PairCursor<K, V>> {
    segments.into_iter().map(PairCursor::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_pairs;
    use std::collections::{BTreeMap, BTreeSet};

    /// Varint-encoded keys and values (`u64`, zigzag `i64`) spanning
    /// one to ten bytes each, so a segment's length is its content's.
    fn records(len: usize, mut seed: u64) -> Vec<(u64, i64)> {
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        (0..len)
            .map(|_| {
                // About three records a key, so runs fold.
                let base = next() % (len as u64 / 3);
                let value = (next() as i64) >> (next() % 64);
                (base << (base * 7 % 57), value)
            })
            .collect()
    }

    fn fold(_: &u64, acc: &mut i64, v: i64) {
        *acc = acc.wrapping_add(v);
    }

    fn partition(k: &u64, n: usize) -> usize {
        (k % n as u64) as usize
    }

    /// Group-then-left-fold per destination, encoded key-ascending.
    fn expected(pairs: &[(u64, i64)], n: usize) -> Vec<Bytes> {
        let mut dests = vec![BTreeMap::new(); n];
        for &(k, v) in pairs {
            dests[partition(&k, n)]
                .entry(k)
                .and_modify(|acc| fold(&k, acc, v))
                .or_insert(v);
        }
        let encode = |d: BTreeMap<u64, i64>| encode_pairs(&d.into_iter().collect::<Vec<_>>());
        dests.into_iter().map(encode).collect()
    }

    #[test]
    fn a_kept_scratch_folds_like_a_fresh_one() {
        let mut kept = ShuffleScratch::default();
        // Large first, then smaller on fewer destinations: a byte the
        // first call left in the scratch would lengthen a segment.
        for (len, n, seed) in [(600, 3, 0x9e37_79b9), (40, 2, 0x2545_f491)] {
            let pairs = records(len, seed);
            let by_kept = kept
                .shuffle_folded(&mut pairs.clone(), n, partition, fold, &mut ())
                .expect("routes");
            let by_fresh = ShuffleScratch::default()
                .shuffle_folded(&mut pairs.clone(), n, partition, fold, &mut ())
                .expect("routes");
            let want = expected(&pairs, n);
            assert_eq!(by_kept.segments, want, "{len} records, {n} destinations");
            assert_eq!(by_fresh.segments, want);
            let distinct = pairs.iter().map(|(k, _)| k).collect::<BTreeSet<_>>().len();
            assert_eq!(by_kept.records, distinct as u64);
            let bytes = want.iter().map(Bytes::len).sum::<usize>();
            assert_eq!(by_kept.bytes, bytes as u64);
        }
    }
}
