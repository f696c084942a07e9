//! # imr-records — record model, codecs, partitioners, sorted merges
//!
//! The serialization and key-routing substrate shared by the baseline
//! MapReduce engine and iMapReduce:
//!
//! * [`Codec`] — self-delimiting binary encoding (Hadoop `Writable`
//!   stand-in) with varint integers, so shuffle/DFS byte counts charged
//!   to the cost model are the real encoded sizes;
//! * [`Partitioner`] implementations — deterministic FNV-based hash
//!   partitioning plus the paper's modulo node-id partitioning;
//! * sorted-run utilities ([`sort_run`], [`merge_runs`],
//!   [`group_sorted`]) and, over them, the shuffle kernel
//!   ([`shuffle_out`], [`shuffle_in`]) — the one sort/combine/encode →
//!   decode/merge/group/reduce path every engine drives.
//!
//! The state/static join of paper §3.2.2 is not here: both streams are
//! co-partitioned and key-sorted, so it is a lockstep zip, done (and
//! checked) by the iteration kernel in `imapreduce`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod partition;
mod shuffle;
mod sorted;

pub use codec::{
    decode_pairs, encode_pairs, pairs_encoded_len, Codec, CodecError, CodecResult, Key, PairCursor,
    Value,
};
pub use partition::{Fnv1a, HashPartitioner, ModPartitioner, PairPartitioner, Partitioner};
pub use shuffle::{
    shuffle_in, shuffle_out, CombineRuns, ShuffleCost, ShuffleError, ShuffleOut, ShuffleScratch,
};
pub use sorted::{group_sorted, is_sorted_by_key, merge_runs, sort_run};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// `sort_run` against the standard library's stable sort, each key
    /// carrying its arrival index so equal keys stay distinguishable.
    fn sorts_like_the_stable_sort<K: Key + std::fmt::Debug>(keys: impl Iterator<Item = K>) {
        let mut run: Vec<(K, usize)> = keys.enumerate().map(|(i, k)| (k, i)).collect();
        let mut want = run.clone();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        sort_run(&mut run);
        assert_eq!(run, want);
    }

    /// Records the reduce charges a shuffle makes, in order.
    #[derive(Default)]
    struct ReduceCalls(Vec<u64>);
    impl ShuffleCost for ReduceCalls {
        fn reduced(&mut self, values: u64) {
            self.0.push(values);
        }
    }

    /// Records every map-side charge a shuffle makes, in order.
    #[derive(Default, Debug, PartialEq)]
    struct MapCharges(Vec<(&'static str, u64)>);
    impl ShuffleCost for MapCharges {
        fn sorted(&mut self, records: u64) {
            self.0.push(("sorted", records));
        }
        fn combined(&mut self, values: u64) {
            self.0.push(("combined", values));
        }
    }

    /// The map side with a combiner as it was before combining moved
    /// into the map loop: route every record, sort each destination
    /// stably, then one combine call on all of each key's values.
    fn group_then_combine<V: Value>(
        pairs: &[(u32, V)],
        n: usize,
        route: impl Fn(&u32, usize) -> usize,
        mut combine: impl FnMut(&u32, Vec<V>) -> Vec<V>,
        cost: &mut MapCharges,
    ) -> Vec<bytes::Bytes> {
        let mut dests: Vec<Vec<(u32, V)>> = vec![Vec::new(); n];
        for (k, v) in pairs {
            dests[route(k, n)].push((*k, v.clone()));
        }
        for dest in &mut dests {
            dest.sort_by_key(|&(k, _)| k);
            cost.sorted(dest.len() as u64);
        }
        let mut segments = Vec::new();
        for dest in dests {
            let mut combined = Vec::new();
            for (k, values) in group_sorted(dest) {
                cost.combined(values.len() as u64);
                combined.extend(combine(&k, values).into_iter().map(|v| (k, v)));
            }
            segments.push(encode_pairs(&combined));
        }
        segments
    }

    /// The streaming map side on the same input, absorbed `chunk`
    /// records at a time (a map call's worth); returns the segments and,
    /// per key, its value count and the combine calls it received.
    fn combine_runs<V: Value>(
        pairs: &[(u32, V)],
        chunk: usize,
        n: usize,
        route: impl Fn(&u32, usize) -> usize,
        mut combine: impl FnMut(&u32, Vec<V>) -> Vec<V>,
        cost: &mut MapCharges,
    ) -> (Vec<bytes::Bytes>, Vec<(u64, u64)>) {
        let mut calls: std::collections::BTreeMap<u32, u64> = Default::default();
        let mut counted = |k: &u32, values: Vec<V>| {
            *calls.entry(*k).or_default() += 1;
            combine(k, values)
        };
        let mut runs = CombineRuns::default();
        for batch in pairs.chunks(chunk) {
            prop_assert_eq!(
                runs.absorb(&mut batch.to_vec(), &mut counted),
                batch.len() as u64
            );
        }
        let out = runs
            .finish(&mut ShuffleScratch::default(), n, route, &mut counted, cost)
            .unwrap();
        let mut per_key: std::collections::BTreeMap<u32, u64> = Default::default();
        for (k, _) in pairs {
            *per_key.entry(*k).or_default() += 1;
        }
        let calls = per_key
            .iter()
            .map(|(k, &values)| (values, calls[k]))
            .collect();
        assert_eq!(
            out.bytes,
            out.segments.iter().map(|s| s.len() as u64).sum::<u64>()
        );
        (out.segments, calls)
    }

    proptest! {
        /// Codec round-trip: any pair list survives encode/decode.
        #[test]
        fn pairs_round_trip(pairs in proptest::collection::vec((any::<u32>(), any::<f64>()), 0..200)) {
            let seg = encode_pairs(&pairs);
            let back: Vec<(u32, f64)> = decode_pairs(seg).unwrap();
            prop_assert_eq!(back.len(), pairs.len());
            for (a, b) in back.iter().zip(&pairs) {
                prop_assert_eq!(a.0, b.0);
                prop_assert!(a.1 == b.1 || (a.1.is_nan() && b.1.is_nan()));
            }
        }

        /// Counting a segment's bytes agrees with encoding it, for
        /// variable-width keys and values.
        #[test]
        fn pairs_encoded_len_is_the_encoded_length(pairs in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u16>(), 0..6)), 0..100)) {
            prop_assert_eq!(pairs_encoded_len(&pairs), encode_pairs(&pairs).len());
        }

        /// Merging sorted runs yields a sorted permutation of the input.
        #[test]
        fn merge_is_sorted_permutation(mut runs in proptest::collection::vec(
            proptest::collection::vec((any::<u16>(), any::<u32>()), 0..50), 0..6)) {
            for run in &mut runs {
                sort_run(run);
            }
            let mut expected: Vec<(u16, u32)> = runs.iter().flatten().copied().collect();
            let merged = merge_runs(runs);
            prop_assert!(is_sorted_by_key(&merged));
            let mut got = merged.clone();
            got.sort_unstable();
            expected.sort_unstable();
            prop_assert_eq!(got, expected);
        }

        /// Partitioners always return an index below n.
        #[test]
        fn partitions_in_bounds(key in any::<u32>(), n in 1usize..128) {
            prop_assert!(HashPartitioner.partition(&key, n) < n);
            prop_assert!(ModPartitioner.partition(&key, n) < n);
        }

        /// The shuffle kernel end to end: several mappers' output routed
        /// to `n` reducers arrives grouped by key, each key's values in
        /// mapper order then emission order, with or without a combiner.
        #[test]
        fn shuffle_groups_like_a_btreemap(
            mappers in proptest::collection::vec(
                proptest::collection::vec((0u32..20, any::<u32>()), 0..30), 1..5),
            n in 1usize..5,
            combine in any::<bool>(),
        ) {
            let route = |k: &u32, n: usize| *k as usize % n;
            // The combiner folds a mapper's values for one key into one
            // list value, so order stays observable either way.
            let combiner = combine.then_some(|_: &u32, vals: Vec<Vec<u32>>| vec![vals.concat()]);
            let mut segments = Vec::new();
            let mut want: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
            for pairs in &mappers {
                for (k, v) in pairs {
                    want.entry(*k).or_default().push(*v);
                }
                let lifted = pairs.iter().map(|&(k, v)| (k, vec![v])).collect();
                let out = shuffle_out(lifted, n, route, combiner, &mut ());
                prop_assert_eq!(out.segments.len(), n);
                prop_assert_eq!(out.bytes, out.segments.iter().map(|s| s.len() as u64).sum::<u64>());
                segments.push(out.segments);
            }
            let mut got: Vec<(u32, Vec<u32>)> = Vec::new();
            for q in 0..n {
                let inbound = segments.iter().map(|from| from[q].clone()).collect();
                let before = got.len();
                shuffle_in(inbound, |k: u32, vals: Vec<Vec<u32>>| got.push((k, vals.concat())), &mut ())
                    .unwrap();
                prop_assert!(got[before..].iter().all(|(k, _)| route(k, n) == q));
                prop_assert!(got[before..].windows(2).all(|w| w[0].0 < w[1].0));
            }
            got.sort();
            prop_assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        }

        /// Combining as the map emits is group-then-combine: with keys of
        /// up to a few thousand values, so every run is combined many
        /// times, absorbed a few records at a time. A left-fold `f64` sum
        /// gives bit-identical segments — the previous output must come
        /// first in a run, or the additions round differently — and the
        /// cost hook sees the identical call sequence. A concatenating
        /// and an identity combiner give the same values in the same
        /// order, and the identity combiner, whose output never shrinks,
        /// runs at most 2·log₂(n) + 2 times on a key of n values.
        #[test]
        fn combine_runs_is_group_then_combine(
            raw in proptest::collection::vec((any::<u32>(), -1e6..1e6), 0..3000),
            keys in 1u32..8,
            n in 1usize..6,
            chunk in 1usize..8,
        ) {
            let route = |k: &u32, n: usize| (k.wrapping_mul(0x9E37_79B9) >> 7) as usize % n;
            let sums: Vec<(u32, f64)> = raw.iter().map(|&(k, v)| (k % keys, v)).collect();
            let sum = |_: &u32, values: Vec<f64>| vec![values.into_iter().sum::<f64>()];
            let (mut want_cost, mut got_cost) = (MapCharges::default(), MapCharges::default());
            let want = group_then_combine(&sums, n, route, sum, &mut want_cost);
            let (got, _) = combine_runs(&sums, chunk, n, route, sum, &mut got_cost);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&got_cost, &want_cost);

            let lists: Vec<(u32, Vec<u32>)> =
                raw.iter().map(|&(k, _)| (k % keys, vec![k])).collect();
            let concat = |_: &u32, values: Vec<Vec<u32>>| vec![values.concat()];
            let identity = |_: &u32, values: Vec<Vec<u32>>| values;
            let want = group_then_combine(&lists, n, route, concat, &mut MapCharges::default());
            let (got, _) = combine_runs(&lists, chunk, n, route, concat, &mut MapCharges::default());
            prop_assert_eq!(&got, &want);
            let want = group_then_combine(&lists, n, route, identity, &mut MapCharges::default());
            let (got, calls) =
                combine_runs(&lists, chunk, n, route, identity, &mut MapCharges::default());
            prop_assert_eq!(&got, &want);
            for (values, calls) in calls {
                let bound = 2.0 * (values as f64).log2() + 2.0;
                prop_assert!(calls as f64 <= bound, "{calls} calls on {values} values");
            }
        }

        /// The digit sort is the stable comparison sort: every unsigned
        /// key type, runs on both sides of the short-run cutoff, narrow
        /// key ranges (duplicates) and wide ones (three digit passes),
        /// `u64` keys below, across and above 2^32 — and keys that never
        /// pack still sort.
        #[test]
        fn sort_run_is_the_stable_sort(
            raw in proptest::collection::vec(any::<u64>(), 0..1400),
            modulus in 1u64..700,
        ) {
            let narrow = |r: &u64| r % modulus;
            sorts_like_the_stable_sort(raw.iter().map(|r| narrow(r) as u8));
            sorts_like_the_stable_sort(raw.iter().map(|r| narrow(r) as u16));
            sorts_like_the_stable_sort(raw.iter().map(|r| narrow(r) as u32));
            sorts_like_the_stable_sort(raw.iter().map(|r| *r as u32));
            sorts_like_the_stable_sort(raw.iter().map(|r| narrow(r) as usize));
            for base in [0, (1 << 32) - modulus / 2, 1 << 32, u64::MAX - modulus] {
                sorts_like_the_stable_sort(raw.iter().map(|r| base + narrow(r)));
            }
            sorts_like_the_stable_sort(raw.iter().map(|r| format!("k{}", narrow(r))));
            sorts_like_the_stable_sort(raw.iter().map(|r| (narrow(r) as u32 % 7, (r >> 32) as u32 % 5)));
        }

        /// The streaming reduce side is the materialised one: merging
        /// straight off the decode cursors hands out the groups, value
        /// orders, record count and cost charges of decode → stable sort
        /// in source order → group, with any number of sources, empty
        /// ones included. A segment cut anywhere but between two records
        /// is an error, never a panic.
        #[test]
        fn shuffle_in_streams_what_decode_merge_group_materialised(
            mut runs in proptest::collection::vec(
                proptest::collection::vec((0u64..40, any::<u32>()), 0..60), 0..7),
            pick in any::<usize>(),
        ) {
            for run in &mut runs {
                run.sort_by_key(|&(k, _)| k);
            }
            let segments: Vec<_> = runs.iter().map(|run| encode_pairs(run)).collect();

            let mut all: Vec<(u64, u32)> = runs.iter().flatten().copied().collect();
            all.sort_by_key(|&(k, _)| k);
            let mut want: Vec<(u64, Vec<u32>)> = Vec::new();
            for (k, v) in all {
                match want.last_mut() {
                    Some((open, values)) if *open == k => values.push(v),
                    _ => want.push((k, vec![v])),
                }
            }
            let decoded: Vec<Vec<(u64, u32)>> =
                segments.iter().map(|seg| decode_pairs(seg.clone()).unwrap()).collect();
            prop_assert_eq!(&group_sorted(merge_runs(decoded)), &want);

            let mut got = Vec::new();
            let mut calls = ReduceCalls::default();
            let records =
                shuffle_in(segments.clone(), |k, values| got.push((k, values)), &mut calls).unwrap();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(records, runs.iter().map(|run| run.len() as u64).sum::<u64>());
            prop_assert_eq!(calls.0, want.iter().map(|(_, vs)| vs.len() as u64).collect::<Vec<_>>());

            if let Some(victim) = pick.checked_rem(runs.len()) {
                let mut boundary = 0;
                let mut boundaries = vec![0];
                for (k, v) in &runs[victim] {
                    boundary += k.encoded_len() + v.encoded_len();
                    boundaries.push(boundary);
                }
                for cut in 0..segments[victim].len() {
                    let mut cut_segments = segments.clone();
                    cut_segments[victim] = segments[victim].slice(..cut);
                    let mut merged = 0u64;
                    let result =
                        shuffle_in(cut_segments, |_: u64, values: Vec<u32>| merged += values.len() as u64, &mut ());
                    match boundaries.iter().position(|&b| b == cut) {
                        Some(kept) => {
                            let lost = (runs[victim].len() - kept) as u64;
                            prop_assert_eq!(result, Ok(records - lost));
                        }
                        None => prop_assert!(result.is_err(), "cut {cut} of source {victim}"),
                    }
                }
            }
        }

        /// group_sorted preserves multiplicity.
        #[test]
        fn grouping_preserves_counts(mut pairs in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..200)) {
            sort_run(&mut pairs);
            let n = pairs.len();
            let grouped = group_sorted(pairs);
            let total: usize = grouped.iter().map(|(_, vs)| vs.len()).sum();
            prop_assert_eq!(total, n);
            // Group keys strictly increase.
            for w in grouped.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
        }
    }
}
