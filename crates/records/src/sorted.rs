//! Sorted-run utilities: the sort / merge / group machinery every
//! engine uses between map output and reduce input.
//!
//! Sorting is an *argsort*: [`sort_words`] orders packed
//! `key << 32 | index` words, and callers gather their records through
//! the resulting indices. Indices are distinct, so ascending word order
//! is key order with ties in index order — the stable order — however
//! the words were sorted. Integer keys below 2³² pack (see
//! [`Codec::radix_key`]) and long runs of them are ordered by digits;
//! everything else is ordered by comparison.
//!
//! Merging and grouping are one pass ([`merge`]) over any source of
//! records: a k-way merge, ties broken by run index, that hands each
//! key's values, in order, to a [`Group`] — a fold into one accumulator
//! per key, or a `Vec` per key for a reducer that takes them whole.

use crate::codec::Codec;
use std::convert::Infallible;

/// Runs shorter than this are ordered by comparing words: the digit
/// histograms cost more to clear and scan than so few records to sort.
pub(crate) const RADIX_MIN_LEN: usize = 512;

/// The widest radix digit: 2048 counters stay in the L1 cache.
const MAX_DIGIT_BITS: u32 = 11;

/// Packs a record's sort word: the key in the high half when it is an
/// integer below 2³², the record's index in the low half. `None` for
/// every other key.
#[inline]
pub(crate) fn pack_word<K: Codec>(key: &K, index: u32) -> Option<u64> {
    match key.radix_key() {
        Some(k) if k <= u64::from(u32::MAX) => Some(k << 32 | u64::from(index)),
        _ => None,
    }
}

/// The record index a sort word carries.
#[inline]
pub(crate) fn word_index(word: u64) -> usize {
    (word & u64::from(u32::MAX)) as usize
}

/// Sorts packed `key << 32 | index` words ascending. The words arrive
/// in ascending index order (both callers build them by enumeration).
/// `tmp` is scratch: its contents are overwritten, and the two vectors
/// may trade buffers.
///
/// Long runs take a least-significant-digit radix sort over the key bits
/// that differ between some two keys — bits every key shares sort
/// nothing — cut into equal digits of at most 11 bits: 17-bit node ids
/// that share their partition's residue sort in two 8-bit passes. Short
/// runs compare words.
pub(crate) fn sort_words(words: &mut Vec<u64>, tmp: &mut Vec<u64>) {
    if words.len() < RADIX_MIN_LEN {
        words.sort_unstable();
        return;
    }
    // Input generated in key order (every loader's, a broadcast state
    // reassembled from sorted parts) needs one compare pass, not the
    // digit passes and their second buffer. Unsorted input leaves the
    // pass at its first descent.
    if words.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    let (mut any, mut all) = (0u64, u64::MAX);
    for &w in words.iter() {
        any |= w;
        all &= w;
    }
    let varying = (any ^ all) >> 32;
    if varying == 0 {
        return;
    }
    let low = varying.trailing_zeros();
    let bits = u64::BITS - varying.leading_zeros() - low;
    let width = bits.div_ceil(bits.div_ceil(MAX_DIGIT_BITS));
    let mask = (1u64 << width) - 1;
    tmp.clear();
    tmp.resize(words.len(), 0);
    let mut offsets = [0usize; 1 << MAX_DIGIT_BITS];
    for shift in (32 + low..32 + low + bits).step_by(width as usize) {
        if (varying >> (shift - 32)) & mask == 0 {
            continue;
        }
        let offsets = &mut offsets[..1 << width];
        offsets.fill(0);
        for &w in words.iter() {
            offsets[((w >> shift) & mask) as usize] += 1;
        }
        let mut start = 0;
        for slot in offsets.iter_mut() {
            let count = *slot;
            *slot = start;
            start += count;
        }
        // Ascending source order within a digit: each pass is stable.
        for &w in words.iter() {
            let slot = &mut offsets[((w >> shift) & mask) as usize];
            tmp[*slot] = w;
            *slot += 1;
        }
        std::mem::swap(words, tmp);
    }
}

/// Sorts key/value pairs by key (stable, so equal keys keep their
/// arrival order, matching Hadoop's stable merge of map outputs).
///
/// Takes the same digit sort as the shuffle kernel when the keys pack
/// and the records can be gathered by a plain copy; compares otherwise.
pub fn sort_run<K: Codec + Ord + Clone, V: Clone>(run: &mut [(K, V)]) {
    if let Some(mut words) = pack_run(run) {
        sort_words(&mut words, &mut Vec::new());
        let sorted: Vec<(K, V)> = words.iter().map(|&w| run[word_index(w)].clone()).collect();
        run.clone_from_slice(&sorted);
    } else {
        run.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

/// The sort words of `run`, if it is worth sorting by digits: long
/// enough, every key packs, and a record clones without owning anything
/// (so the gather is a copy, not an allocation per record).
fn pack_run<K: Codec, V>(run: &[(K, V)]) -> Option<Vec<u64>> {
    if run.len() < RADIX_MIN_LEN
        || run.len() > u32::MAX as usize
        || std::mem::needs_drop::<(K, V)>()
    {
        return None;
    }
    run.iter()
        .enumerate()
        .map(|(i, (k, _))| pack_word(k, i as u32))
        .collect()
}

/// What a k-way merge does with each key's values as it meets them.
/// The merge calls [`open`](Self::open) with a key and its first value,
/// [`add`](Self::add) with each further one in merge order, and
/// [`close`](Self::close) once the key's last value has been added.
pub(crate) trait Group<K, V> {
    /// What is kept for the open key.
    type Acc;
    /// A key and its first value.
    fn open(&mut self, key: &K, first: V) -> Self::Acc;
    /// A further value of the open key.
    fn add(&mut self, key: &K, acc: &mut Self::Acc, value: V);
    /// The key is complete: `values` values were merged into `acc`.
    fn close(&mut self, key: K, acc: Self::Acc, values: u64);
}

/// K-way merges key-sorted `runs` — decoded vectors, or cursors still
/// decoding their segments — and hands every key's values to `group`
/// in key order: run by run (ties between runs are broken by run
/// index), each run's in its own order. Returns the number of records
/// merged. On an error, the open key is dropped unclosed.
///
/// The frontier is a binary min-heap of run indices ordered by (head
/// key, run index). A run is drained for as long as it continues the
/// open key, so the heap is touched once per (key, run), not per record,
/// and a record's key is never copied.
pub(crate) fn merge<K: Ord, V, E>(
    mut runs: Vec<impl Iterator<Item = Result<(K, V), E>>>,
    group: &mut impl Group<K, V>,
) -> Result<u64, E> {
    let mut heads: Vec<Option<(K, V)>> = Vec::with_capacity(runs.len());
    for run in &mut runs {
        heads.push(run.next().transpose()?);
    }
    let mut heap: Vec<usize> = (0..runs.len()).filter(|&r| heads[r].is_some()).collect();
    for root in (0..heap.len() / 2).rev() {
        sift_down(&mut heap, &heads, root);
    }
    let mut records = 0u64;
    while let Some((key, first)) = heap.first().and_then(|&top| heads[top].take()) {
        let mut acc = group.open(&key, first);
        let mut values = 1u64;
        // The heap yields the runs holding `key` in run order.
        while let Some(&run) = heap.first() {
            heads[run] = loop {
                match runs[run].next().transpose()? {
                    Some((k, v)) if k == key => {
                        group.add(&key, &mut acc, v);
                        values += 1;
                    }
                    next => break next,
                }
            };
            if heads[run].is_none() {
                heap.swap_remove(0);
            }
            sift_down(&mut heap, &heads, 0);
            let Some(head) = heap.first().map(|&next| &mut heads[next]) else {
                break;
            };
            match head.take() {
                Some((k, v)) if k == key => {
                    group.add(&key, &mut acc, v);
                    values += 1;
                }
                other => {
                    *head = other;
                    break;
                }
            }
        }
        records += values;
        group.close(key, acc, values);
    }
    Ok(records)
}

/// [`merge`] for a consumer that takes a key's values whole: `emit`
/// gets every key with a `Vec` of its values, in merge order.
///
/// The values are gathered in one buffer the merge keeps and handed
/// over in a `Vec` of exactly their number: one allocation per key and
/// never a regrowth. A `Vec` grown in place costs a `realloc` per
/// doubling, and `realloc` — unlike the allocator's per-thread fast
/// path — takes the lock of the arena that owns the block; with a
/// recycled block that another reduce thread's arena owns, every key of
/// every pair then queues on one lock for as long as the job runs.
pub(crate) fn merge_groups<K: Ord, V, E>(
    runs: Vec<impl Iterator<Item = Result<(K, V), E>>>,
    emit: impl FnMut(K, Vec<V>),
) -> Result<u64, E> {
    struct Gather<V, F> {
        values: Vec<V>,
        emit: F,
    }
    impl<K, V, F: FnMut(K, Vec<V>)> Group<K, V> for Gather<V, F> {
        type Acc = ();
        fn open(&mut self, _: &K, first: V) {
            self.values.push(first);
        }
        fn add(&mut self, _: &K, _: &mut (), value: V) {
            self.values.push(value);
        }
        fn close(&mut self, key: K, _: (), _: u64) {
            let mut values = Vec::with_capacity(self.values.len());
            values.append(&mut self.values);
            (self.emit)(key, values);
        }
    }
    let values = Vec::new();
    merge(runs, &mut Gather { values, emit })
}

/// Restores the heap order below `at`. Every index in `heap` names a
/// run whose head is present.
#[inline]
fn sift_down<K: Ord, V>(heap: &mut [usize], heads: &[Option<(K, V)>], mut at: usize) {
    let before = |a: usize, b: usize| match (&heads[a], &heads[b]) {
        (Some((ka, _)), Some((kb, _))) => (ka, a) < (kb, b),
        _ => false,
    };
    loop {
        let left = 2 * at + 1;
        if left >= heap.len() {
            return;
        }
        let right = left + 1;
        let child = if right < heap.len() && before(heap[right], heap[left]) {
            right
        } else {
            left
        };
        if !before(heap[child], heap[at]) {
            return;
        }
        heap.swap(at, child);
        at = child;
    }
}

/// A decoded run as [`merge_groups`] takes it.
fn infallible<K, V>(run: Vec<(K, V)>) -> impl Iterator<Item = Result<(K, V), Infallible>> {
    run.into_iter().map(Ok)
}

/// K-way merges several key-sorted runs into one key-sorted stream.
///
/// Ties are broken by run index, preserving the run order — reducers in
/// Hadoop see map outputs for the same key ordered by map task id.
pub fn merge_runs<K: Ord + Clone, V>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let runs = runs.into_iter().map(infallible).collect();
    let flatten = |k: K, values: Vec<V>| out.extend(values.into_iter().map(|v| (k.clone(), v)));
    match merge_groups(runs, flatten) {
        Ok(_) => out,
        Err(never) => match never {},
    }
}

/// Groups a key-sorted stream into `(key, values)` groups — the view a
/// reduce function receives.
pub fn group_sorted<K: Ord + Clone, V>(sorted: Vec<(K, V)>) -> Vec<(K, Vec<V>)> {
    let mut out: Vec<(K, Vec<V>)> = Vec::new();
    match merge_groups(vec![infallible(sorted)], |k, values| out.push((k, values))) {
        Ok(_) => out,
        Err(never) => match never {},
    }
}

/// Verifies a run is key-sorted; used by debug assertions and tests.
pub fn is_sorted_by_key<K: Ord, V>(run: &[(K, V)]) -> bool {
    run.windows(2).all(|w| w[0].0 <= w[1].0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_run_orders_by_key_stably() {
        let mut run = vec![(3u32, 'a'), (1, 'b'), (3, 'c'), (2, 'd')];
        sort_run(&mut run);
        assert_eq!(run, vec![(1, 'b'), (2, 'd'), (3, 'a'), (3, 'c')]);
    }

    #[test]
    fn merge_runs_produces_globally_sorted_output() {
        let runs = vec![
            vec![(1u32, 10), (4, 40), (7, 70)],
            vec![(2, 20), (4, 41)],
            vec![],
            vec![(0, 0), (9, 90)],
        ];
        let merged = merge_runs(runs);
        assert!(is_sorted_by_key(&merged));
        assert_eq!(merged.len(), 7);
        // Tie on key 4 preserves run order (run 0 before run 1).
        let fours: Vec<i32> = merged
            .iter()
            .filter(|(k, _)| *k == 4)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(fours, vec![40, 41]);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let merged: Vec<(u32, u32)> = merge_runs(vec![]);
        assert!(merged.is_empty());
        let merged: Vec<(u32, u32)> = merge_runs(vec![vec![], vec![]]);
        assert!(merged.is_empty());
    }

    #[test]
    fn group_sorted_collects_equal_keys() {
        let sorted = vec![
            (1u32, 'a'),
            (1, 'b'),
            (2, 'c'),
            (3, 'd'),
            (3, 'e'),
            (3, 'f'),
        ];
        let grouped = group_sorted(sorted);
        assert_eq!(
            grouped,
            vec![
                (1, vec!['a', 'b']),
                (2, vec!['c']),
                (3, vec!['d', 'e', 'f'])
            ]
        );
    }

    #[test]
    fn a_group_is_handed_over_in_a_vec_of_exactly_its_size() {
        // Groups of 1, 5, 300 and 2 values spread over three runs: no
        // group's `Vec` was grown, whatever the size of the one before.
        let run = |keys: &[(u32, usize)]| -> Vec<(u32, usize)> {
            let values = |&(k, n): &(u32, usize)| (0..n).map(move |v| (k, v));
            keys.iter().flat_map(values).collect()
        };
        let runs = vec![
            run(&[(1, 1), (2, 2), (3, 100)]),
            run(&[(2, 3), (3, 150), (4, 1)]),
            run(&[(3, 50), (4, 1)]),
        ];
        let mut sizes = Vec::new();
        let merged = merge_groups(runs.into_iter().map(infallible).collect(), |k, values| {
            assert_eq!(values.capacity(), values.len(), "key {k}");
            sizes.push(values.len());
        });
        assert_eq!(merged, Ok(308));
        assert_eq!(sizes, [1, 5, 300, 2]);
    }

    #[test]
    fn group_of_empty_is_empty() {
        let grouped: Vec<(u32, Vec<char>)> = group_sorted(vec![]);
        assert!(grouped.is_empty());
    }
}
