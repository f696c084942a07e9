//! The shuffle kernel: the one copy of the path between map output and
//! reduce input that every engine drives.
//!
//! [`ShuffleScratch::shuffle_out`] is the map side (partition → sort →
//! optional combine → encode, one segment per destination);
//! [`shuffle_in`] is the reduce side (k-way merge straight off the
//! segments' decode cursors → group → reduce). The user functions arrive
//! as closures, so the baseline `MrJob`, the iterative `IterativeJob`
//! and the multi-phase `PhaseJob` all run this code, and the value order
//! a reducer sees for one key — source run first, emission order within
//! a run — is decided here and nowhere else.
//!
//! The map side never moves a record to sort it: it routes and sorts
//! *indices* ([`ShuffleScratch::route`]) and encodes, combines or ⊕-folds
//! by gathering through them. The index buffers belong to the caller's
//! [`ShuffleScratch`], which a persistent task keeps for as long as it
//! lives, so iteration *k + 1* allocates none of them again.

use crate::codec::{encode_pairs, CodecResult, Key, PairCursor, Value};
use crate::sorted::{merge_groups, pack_word, sort_words, word_index};
use bytes::{Bytes, BytesMut};
use core::fmt;

/// Cost hook: told how much work the kernel just did, in the units the
/// simulated cost model charges. The native engines pass `()`, which
/// compiles to nothing.
pub trait ShuffleCost {
    /// A run of `records` map-output records was sorted.
    fn sorted(&mut self, _records: u64) {}
    /// One combiner call consumed `values` values.
    fn combined(&mut self, _values: u64) {}
    /// One reduce call consumed `values` values.
    fn reduced(&mut self, _values: u64) {}
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
    /// Combiner path: the key group each record belongs to.
    group_of: Vec<u32>,
}

impl ShuffleScratch {
    /// Routes `pairs` to `n` destinations with `partition` and sorts each
    /// destination's records by key, stably, without moving them:
    /// afterwards [`order`](Self::order) walks a destination's records in
    /// (key, emission) order.
    pub fn route<K: Key, V>(
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
            // garbage as they keep, and a caller that builds a scratch
            // per call (a delta round) would pay that every time.
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
    /// sorts each destination's records by key (stable), folds each key
    /// group through `combine` if there is one, and encodes one segment
    /// per destination. `pairs` is left empty, its capacity kept.
    pub fn shuffle_out<K: Key, V: Value>(
        &mut self,
        pairs: &mut Vec<(K, V)>,
        n: usize,
        partition: impl Fn(&K, usize) -> usize,
        combine: Option<impl FnMut(&K, Vec<V>) -> Vec<V>>,
        cost: &mut impl ShuffleCost,
    ) -> Result<ShuffleOut, ShuffleError> {
        self.route(pairs, n, partition)?;
        let mut out = ShuffleOut {
            segments: Vec::with_capacity(n),
            records: 0,
            bytes: 0,
        };
        let Some(mut combine) = combine else {
            for dest in 0..n {
                let run = self.order(dest).map(|i| &pairs[i]);
                cost.sorted(run.len() as u64);
                let len = run
                    .clone()
                    .map(|(k, v)| k.encoded_len() + v.encoded_len())
                    .sum();
                let mut buf = BytesMut::with_capacity(len);
                for (k, v) in run.clone() {
                    k.encode(&mut buf);
                    v.encode(&mut buf);
                }
                out.push(buf.freeze(), run.len());
            }
            pairs.clear();
            return Ok(out);
        };

        // A combiner takes its values by value. Number the key groups in
        // (destination, key) order, then hand the records out in emission
        // order — within a group that *is* the sorted order — so each
        // value moves once, into a `Vec` of exactly its group's size.
        self.group_of.clear();
        self.group_of.resize(pairs.len(), 0);
        let mut sizes: Vec<(K, usize)> = Vec::new();
        let mut groups_before = Vec::with_capacity(n + 1);
        for words in &self.words {
            cost.sorted(words.len() as u64);
            groups_before.push(sizes.len());
            let mut opened = false;
            for i in indices(words) {
                let key = &pairs[i].0;
                match sizes.last_mut() {
                    Some((open, size)) if opened && open == key => *size += 1,
                    _ => sizes.push((key.clone(), 1)),
                }
                opened = true;
                self.group_of[i] = (sizes.len() - 1) as u32;
            }
        }
        groups_before.push(sizes.len());
        let mut groups: Vec<(K, Vec<V>)> = sizes
            .into_iter()
            .map(|(k, size)| (k, Vec::with_capacity(size)))
            .collect();
        for ((_, v), &group) in pairs.drain(..).zip(&self.group_of) {
            groups[group as usize].1.push(v);
        }
        let mut groups = groups.into_iter();
        for dest in 0..n {
            let mut combined = Vec::new();
            let in_dest = groups_before[dest + 1] - groups_before[dest];
            for (k, values) in groups.by_ref().take(in_dest) {
                cost.combined(values.len() as u64);
                for v in combine(&k, values) {
                    combined.push((k.clone(), v));
                }
            }
            out.push(encode_pairs(&combined), combined.len());
        }
        Ok(out)
    }
}

/// The record indices a run of sort words carries, in word order.
fn indices(words: &[u64]) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
    words.iter().map(|&w| word_index(w))
}

/// [`ShuffleScratch::shuffle_out`] for a caller with nothing to keep
/// between calls: fresh index buffers, `pairs` consumed.
///
/// # Panics
/// Where the method returns a [`ShuffleError`].
pub fn shuffle_out<K: Key, V: Value>(
    mut pairs: Vec<(K, V)>,
    n: usize,
    partition: impl Fn(&K, usize) -> usize,
    combine: Option<impl FnMut(&K, Vec<V>) -> Vec<V>>,
    cost: &mut impl ShuffleCost,
) -> ShuffleOut {
    match ShuffleScratch::default().shuffle_out(&mut pairs, n, partition, combine, cost) {
        Ok(out) => out,
        Err(e) => panic!("{e}"),
    }
}

/// Reduce side: merges one key-sorted segment per source straight off
/// the decode cursors (ties keep source order, then emission order) and
/// hands every key group to `reduce` in key order, each with a `Vec` of
/// exactly its values. Returns the number of records merged. A
/// truncated or corrupt segment is an error, possibly after some groups
/// were reduced.
pub fn shuffle_in<K: Key, V: Value>(
    segments: Vec<Bytes>,
    mut reduce: impl FnMut(K, Vec<V>),
    cost: &mut impl ShuffleCost,
) -> CodecResult<u64> {
    let cursors = segments.into_iter().map(PairCursor::new).collect();
    merge_groups(cursors, |k, values| {
        cost.reduced(values.len() as u64);
        reduce(k, values);
    })
}
