//! The shuffle kernel: the one copy of the path between map output and
//! reduce input that every engine drives.
//!
//! [`ShuffleScratch::shuffle_out`] is the map side (partition → sort →
//! encode, one segment per destination), and [`CombineRuns`] the map
//! side of a job with a combiner, which combines as the map emits;
//! [`shuffle_in`] is the reduce side (k-way merge straight off the
//! segments' decode cursors → group → reduce). The user functions arrive
//! as closures, so the baseline `MrJob`, the iterative `IterativeJob`
//! and the multi-phase `PhaseJob` all run this code, and the value order
//! a reducer sees for one key — source run first, emission order within
//! a run — is decided here and nowhere else.
//!
//! The map side never moves a record to sort it: it routes and sorts
//! *indices* ([`ShuffleScratch::route`]) and encodes or ⊕-folds by
//! gathering through them; with a combiner it sorts only the distinct
//! keys, whose values it has already combined. The index buffers belong
//! to the caller's [`ShuffleScratch`], which a persistent task keeps for
//! as long as it lives, so iteration *k + 1* allocates none of them
//! again.

use crate::codec::{Codec, CodecResult, Key, PairCursor, Value};
use crate::sorted::{merge_groups, pack_word, sort_words, word_index};
use bytes::{Bytes, BytesMut};
use core::fmt;
use std::collections::hash_map::{Entry, HashMap};

/// Cost hook: told how much work the kernel just did, in the units the
/// simulated cost model charges. The native engines pass `()`, which
/// compiles to nothing.
pub trait ShuffleCost {
    /// A run of `records` map-output records was sorted.
    fn sorted(&mut self, _records: u64) {}
    /// A key's `values` map-output values were combined (charged once
    /// per key and map side, however many combine calls that took).
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
}

/// The fewest values a key's run collects before it is combined: enough
/// to amortise the call, few enough that the values a map just emitted
/// are still in cache when the combiner consumes and frees them.
const MIN_RUN: usize = 64;

/// The map side of a job with a combiner: per key, the run of values
/// the map has emitted and the combiner has not yet consumed.
///
/// [`absorb`](Self::absorb) appends each emitted value to its key's run
/// and combines a run as soon as it holds `max(64, 2 × the length of the
/// key's last combine output)` values, that output first — Hadoop's
/// spill-and-combine with a spill per key small enough to stay in
/// cache. A reducing combiner holds one value per key between calls, a
/// non-reducing one combines each value O(log n) times, and the map
/// output is never buffered whole. [`finish`](Self::finish) combines
/// what is left and encodes the keys, sorted, one segment per
/// destination.
///
/// This is the contract `combine` is written to: it may run any number
/// of times per key, each time on consecutive values of the key in
/// emission order, its previous output first. For a left fold — every
/// combiner shipped here — the segments are bit-identical to combining
/// each key's values once, and the cost charges are those of doing so
/// (`combine_runs_is_group_then_combine` holds both).
#[derive(Debug)]
pub struct CombineRuns<K, V> {
    /// Key → its run's index in `runs`.
    slot: HashMap<K, usize>,
    /// One run per distinct key, in first-emission order.
    runs: Vec<(K, Run<V>)>,
}

#[derive(Debug)]
struct Run<V> {
    /// The key's last combine output, then the values emitted since.
    values: Vec<V>,
    /// How many of `values` are the last combine output.
    carried: usize,
    /// Values the key was emitted with, in total.
    emitted: u64,
}

impl<K, V> Default for CombineRuns<K, V> {
    fn default() -> Self {
        CombineRuns {
            slot: HashMap::new(),
            runs: Vec::new(),
        }
    }
}

impl<K: Key, V: Value> CombineRuns<K, V> {
    /// Drops every run (what a failed map side may have left behind);
    /// the table's capacity is kept.
    pub fn clear(&mut self) {
        self.slot.clear();
        self.runs.clear();
    }

    /// Moves `pairs` into their keys' runs, in order, combining each run
    /// that fills up; returns how many pairs it moved. `pairs` is left
    /// empty, its capacity kept.
    pub fn absorb(
        &mut self,
        pairs: &mut Vec<(K, V)>,
        combine: &mut impl FnMut(&K, Vec<V>) -> Vec<V>,
    ) -> u64 {
        let absorbed = pairs.len() as u64;
        for (k, v) in pairs.drain(..) {
            let fresh = self.runs.len();
            let i = match self.slot.entry(k) {
                Entry::Occupied(slot) => *slot.get(),
                Entry::Vacant(slot) => {
                    let run = Run {
                        values: Vec::new(),
                        carried: 0,
                        emitted: 0,
                    };
                    self.runs.push((slot.key().clone(), run));
                    *slot.insert(fresh)
                }
            };
            let (k, run) = &mut self.runs[i];
            run.values.push(v);
            run.emitted += 1;
            if run.values.len() >= MIN_RUN.max(2 * run.carried) {
                let out = combine(k, std::mem::take(&mut run.values));
                // The next run is allocated once, at the size that
                // triggers its combine.
                run.carried = out.len();
                run.values = Vec::with_capacity(MIN_RUN.max(2 * out.len()));
                run.values.extend(out);
            }
        }
        absorbed
    }

    /// Combines every run that holds values its last combine did not
    /// see, routes the keys to `n` destinations with `partition` and
    /// encodes one segment per destination: keys ascending, each key's
    /// combined values in their order. Charges `cost` as combining each
    /// key's values once would: the records emitted to each destination
    /// sorted, then one combine of all its values per key. Leaves no run
    /// behind.
    pub fn finish(
        &mut self,
        scratch: &mut ShuffleScratch,
        n: usize,
        partition: impl Fn(&K, usize) -> usize,
        combine: &mut impl FnMut(&K, Vec<V>) -> Vec<V>,
        cost: &mut impl ShuffleCost,
    ) -> Result<ShuffleOut, ShuffleError> {
        self.slot.clear();
        for (k, run) in &mut self.runs {
            if run.values.len() > run.carried {
                run.values = combine(k, std::mem::take(&mut run.values));
            }
        }
        let out = self.encode(scratch, n, partition, cost);
        self.runs.clear();
        out
    }

    fn encode(
        &self,
        scratch: &mut ShuffleScratch,
        n: usize,
        partition: impl Fn(&K, usize) -> usize,
        cost: &mut impl ShuffleCost,
    ) -> Result<ShuffleOut, ShuffleError> {
        let runs = &self.runs;
        scratch.route(runs, n, partition)?;
        for dest in 0..n {
            cost.sorted(scratch.order(dest).map(|i| runs[i].1.emitted).sum());
        }
        let mut out = ShuffleOut::with_capacity(n);
        for dest in 0..n {
            let keys = scratch.order(dest).map(|i| &runs[i]);
            let len = keys
                .clone()
                .map(|(k, run)| {
                    let values: usize = run.values.iter().map(Codec::encoded_len).sum();
                    run.values.len() * k.encoded_len() + values
                })
                .sum();
            let mut buf = BytesMut::with_capacity(len);
            let mut records = 0;
            for (k, run) in keys {
                cost.combined(run.emitted);
                for v in &run.values {
                    k.encode(&mut buf);
                    v.encode(&mut buf);
                }
                records += run.values.len();
            }
            out.push(buf.freeze(), records);
        }
        Ok(out)
    }
}

/// The record indices a run of sort words carries, in word order.
fn indices(words: &[u64]) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
    words.iter().map(|&w| word_index(w))
}

/// The map side for a caller with nothing to keep between calls: fresh
/// buffers, `pairs` consumed. With a combiner, every pair is absorbed
/// into [`CombineRuns`] and the runs finished; without, it is
/// [`ShuffleScratch::shuffle_out`].
///
/// # Panics
/// Where those return a [`ShuffleError`].
pub fn shuffle_out<K: Key, V: Value>(
    mut pairs: Vec<(K, V)>,
    n: usize,
    partition: impl Fn(&K, usize) -> usize,
    combine: Option<impl FnMut(&K, Vec<V>) -> Vec<V>>,
    cost: &mut impl ShuffleCost,
) -> ShuffleOut {
    let mut scratch = ShuffleScratch::default();
    let out = match combine {
        Some(mut combine) => {
            let mut runs = CombineRuns::default();
            runs.absorb(&mut pairs, &mut combine);
            runs.finish(&mut scratch, n, partition, &mut combine, cost)
        }
        None => scratch.shuffle_out(&mut pairs, n, partition, cost),
    };
    match out {
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
