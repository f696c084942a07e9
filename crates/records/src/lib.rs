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
//!   ([`ShuffleScratch`], [`FoldTable`], [`shuffle_in`]) — the one
//!   sort/fold/encode → decode/merge/fold path every engine drives.
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
    merge_into, shuffle_in, shuffle_in_groups, FoldTable, ShuffleCost, ShuffleError, ShuffleOut,
    ShuffleScratch,
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

    /// A key's values folded once, in order: the first seeds the
    /// accumulator, each later one is folded in.
    fn left_fold<V>(values: Vec<V>, fold: impl Fn(&mut V, V)) -> V {
        let mut values = values.into_iter();
        let mut acc = values.next().expect("a group has a value");
        for v in values {
            fold(&mut acc, v);
        }
        acc
    }

    /// The map side with a combiner, materialised: route every record,
    /// sort each destination stably, then fold all of each key's values
    /// once, in emission order.
    fn group_then_fold<V: Value>(
        pairs: &[(u32, V)],
        n: usize,
        route: impl Fn(&u32, usize) -> usize,
        fold: impl Fn(&mut V, V),
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
            let mut folded = Vec::new();
            for (k, values) in group_sorted(dest) {
                cost.combined(values.len() as u64);
                folded.push((k, left_fold(values, &fold)));
            }
            segments.push(encode_pairs(&folded));
        }
        segments
    }

    /// The streaming map side on the same input, absorbed `chunk`
    /// records at a time (a map call's worth).
    fn fold_table<V: Value>(
        pairs: &[(u32, V)],
        chunk: usize,
        n: usize,
        route: impl Fn(&u32, usize) -> usize,
        fold: impl Fn(&mut V, V),
        cost: &mut MapCharges,
    ) -> Vec<bytes::Bytes> {
        let mut table = FoldTable::default();
        let mut fold = |_: &u32, acc: &mut V, v: V| fold(acc, v);
        for batch in pairs.chunks(chunk) {
            assert_eq!(
                table.absorb(&mut batch.to_vec(), &mut fold),
                batch.len() as u64
            );
        }
        let out = table
            .finish(&mut ShuffleScratch::default(), n, route, cost)
            .unwrap();
        assert_eq!(
            out.bytes,
            out.segments.iter().map(|s| s.len() as u64).sum::<u64>()
        );
        out.segments
    }

    /// `v`, or a signed zero for one `pick` in four each.
    fn signed_zero_or(pick: u8, v: f64) -> f64 {
        match pick % 8 {
            0 | 1 => 0.0,
            2 | 3 => -0.0,
            _ => v,
        }
    }

    /// The reduce side, materialised: decode every segment, stable-sort
    /// all records by key in source order, group, and fold each key's
    /// values once, in that order.
    fn decode_group_fold<V: Value>(
        segments: &[bytes::Bytes],
        fold: impl Fn(&mut V, V),
    ) -> Vec<(u64, V)> {
        let mut all: Vec<(u64, V)> = Vec::new();
        for seg in segments {
            all.extend(decode_pairs::<u64, V>(seg.clone()).unwrap());
        }
        all.sort_by_key(|&(k, _)| k);
        let mut groups: Vec<(u64, Vec<V>)> = Vec::new();
        for (k, v) in all {
            match groups.last_mut() {
                Some((open, values)) if *open == k => values.push(v),
                _ => groups.push((k, vec![v])),
            }
        }
        groups
            .into_iter()
            .map(|(k, values)| (k, left_fold(values, &fold)))
            .collect()
    }

    /// [`shuffle_in`] with `fold`, collecting each key's accumulator.
    fn fold_in<V: Value>(segments: &[bytes::Bytes], fold: impl Fn(&mut V, V)) -> Vec<(u64, V)> {
        let mut got = Vec::new();
        shuffle_in(
            segments.to_vec(),
            |_: &u64, acc: &mut V, v| fold(acc, v),
            |k, acc| got.push((k, acc)),
            &mut (),
        )
        .unwrap();
        got
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
            // The fold concatenates a key's list values, so order stays
            // observable on both sides of the shuffle.
            let mut concat = |_: &u32, acc: &mut Vec<u32>, v: Vec<u32>| acc.extend(v);
            let mut segments = Vec::new();
            let mut want: std::collections::BTreeMap<u32, Vec<u32>> = Default::default();
            for pairs in &mappers {
                for (k, v) in pairs {
                    want.entry(*k).or_default().push(*v);
                }
                let mut lifted = pairs.iter().map(|&(k, v)| (k, vec![v])).collect();
                let mut scratch = ShuffleScratch::default();
                let out = if combine {
                    let mut table = FoldTable::default();
                    table.absorb(&mut lifted, &mut concat);
                    table.finish(&mut scratch, n, route, &mut ()).unwrap()
                } else {
                    scratch.shuffle_out(&mut lifted, n, route, &mut ()).unwrap()
                };
                prop_assert_eq!(out.segments.len(), n);
                prop_assert_eq!(out.bytes, out.segments.iter().map(|s| s.len() as u64).sum::<u64>());
                segments.push(out.segments);
            }
            let mut got: Vec<(u32, Vec<u32>)> = Vec::new();
            for q in 0..n {
                let inbound = segments.iter().map(|from| from[q].clone()).collect();
                let before = got.len();
                shuffle_in(inbound, &mut concat, |k, vals| got.push((k, vals)), &mut ()).unwrap();
                prop_assert!(got[before..].iter().all(|(k, _)| route(k, n) == q));
                prop_assert!(got[before..].windows(2).all(|w| w[0].0 < w[1].0));
            }
            got.sort();
            prop_assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        }

        /// The map-side table is group-then-fold: each key's values
        /// folded once, in emission order, absorbed a few records at a
        /// time. A left-fold `f64` sum — signed zeros included, as seeds
        /// and as later values — gives bit-identical segments, and the
        /// cost hook sees the identical call sequence; a concatenating
        /// fold, whose result spells out the order it saw, gives
        /// identical segments too.
        #[test]
        fn fold_table_is_group_then_fold(
            raw in proptest::collection::vec((any::<u32>(), any::<u8>(), -1e6..1e6), 0..3000),
            keys in 1u32..8,
            n in 1usize..6,
            chunk in 1usize..8,
        ) {
            let route = |k: &u32, n: usize| (k.wrapping_mul(0x9E37_79B9) >> 7) as usize % n;
            let sums: Vec<(u32, f64)> =
                raw.iter().map(|&(k, pick, v)| (k % keys, signed_zero_or(pick, v))).collect();
            let sum = |acc: &mut f64, v: f64| *acc += v;
            let (mut want_cost, mut got_cost) = (MapCharges::default(), MapCharges::default());
            let want = group_then_fold(&sums, n, route, sum, &mut want_cost);
            let got = fold_table(&sums, chunk, n, route, sum, &mut got_cost);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&got_cost, &want_cost);

            let lists: Vec<(u32, Vec<u32>)> =
                raw.iter().enumerate().map(|(i, &(k, ..))| (k % keys, vec![i as u32])).collect();
            let concat = |acc: &mut Vec<u32>, v: Vec<u32>| acc.extend(v);
            let want = group_then_fold(&lists, n, route, concat, &mut MapCharges::default());
            let got = fold_table(&lists, chunk, n, route, concat, &mut MapCharges::default());
            prop_assert_eq!(&got, &want);
        }

        /// The reduce side is group-then-fold: folding straight off the
        /// decode cursors gives, per key, the bit-identical result of
        /// folding the key's values once in merge order — source by
        /// source, emission order within one — for an `f64` sum with
        /// signed zeros and for an order-revealing concatenation; and it
        /// charges each key's value count in key order.
        #[test]
        fn shuffle_in_is_group_then_fold(
            runs in proptest::collection::vec(
                proptest::collection::vec((0u64..40, any::<u8>(), -1e6..1e6), 0..60), 0..7),
        ) {
            let mut runs: Vec<Vec<(u64, f64)>> = runs
                .iter()
                .map(|run| run.iter().map(|&(k, pick, v)| (k, signed_zero_or(pick, v))).collect())
                .collect();
            for run in &mut runs {
                run.sort_by_key(|&(k, _)| k);
            }
            let sum = |acc: &mut f64, v: f64| *acc += v;
            let segments: Vec<_> = runs.iter().map(|run| encode_pairs(run)).collect();
            let bits = |folded: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
                folded.into_iter().map(|(k, v)| (k, v.to_bits())).collect()
            };
            let want = decode_group_fold(&segments, sum);
            prop_assert_eq!(bits(fold_in(&segments, sum)), bits(want.clone()));

            let mut calls = ReduceCalls::default();
            let records = shuffle_in(
                segments.clone(),
                |_: &u64, acc: &mut f64, v| *acc += v,
                |_, _| {},
                &mut calls,
            )
            .unwrap();
            prop_assert_eq!(records, runs.iter().map(|run| run.len() as u64).sum::<u64>());
            let mut counts: std::collections::BTreeMap<u64, u64> = Default::default();
            for (k, _) in runs.iter().flatten() {
                *counts.entry(*k).or_default() += 1;
            }
            prop_assert_eq!(calls.0, counts.into_values().collect::<Vec<_>>());

            let tagged: Vec<Vec<(u64, Vec<u32>)>> = runs
                .iter()
                .enumerate()
                .map(|(r, run)| {
                    let tag = |(i, &(k, _)): (usize, &(u64, f64))| (k, vec![(r * 100 + i) as u32]);
                    run.iter().enumerate().map(tag).collect()
                })
                .collect();
            let segments: Vec<_> = tagged.iter().map(|run| encode_pairs(run)).collect();
            let concat = |acc: &mut Vec<u32>, v: Vec<u32>| acc.extend(v);
            prop_assert_eq!(fold_in(&segments, concat), decode_group_fold(&segments, concat));
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
                shuffle_in_groups(segments.clone(), |k, values| got.push((k, values)), &mut calls).unwrap();
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
                        shuffle_in_groups(cut_segments, |_: u64, values: Vec<u32>| merged += values.len() as u64, &mut ());
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
