//! The shuffle kernel: the one copy of the path between map output and
//! reduce input that every engine drives.
//!
//! [`shuffle_out`] is the map side (partition → sort → optional combine
//! → encode, one segment per destination); [`shuffle_in`] is the reduce
//! side (decode → k-way merge in source order → group → reduce). The
//! user functions arrive as closures, so the baseline `MrJob`, the
//! iterative `IterativeJob` and the multi-phase `PhaseJob` all run this
//! code, and the value order a reducer sees for one key — source run
//! first, arrival order within a run — is decided here and nowhere else.

use crate::codec::{decode_pairs, encode_pairs, CodecResult, Key, Value};
use crate::sorted::{group_sorted, merge_runs, sort_run};
use bytes::Bytes;

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

/// What [`shuffle_out`] produced.
pub struct ShuffleOut {
    /// One encoded segment per destination, in destination order.
    pub segments: Vec<Bytes>,
    /// Records in the segments (after any combiner).
    pub records: u64,
    /// Total encoded size of the segments.
    pub bytes: u64,
}

/// Map side: routes `pairs` to `n` destinations with `partition`, sorts
/// each run by key (stable), folds each key group through `combine` if
/// there is one, and encodes one segment per destination.
pub fn shuffle_out<K: Key, V: Value>(
    pairs: Vec<(K, V)>,
    n: usize,
    partition: impl Fn(&K, usize) -> usize,
    mut combine: Option<impl FnMut(&K, Vec<V>) -> Vec<V>>,
    cost: &mut impl ShuffleCost,
) -> ShuffleOut {
    let mut runs: Vec<Vec<(K, V)>> = (0..n).map(|_| Vec::new()).collect();
    for (k, v) in pairs {
        let dest = partition(&k, n);
        runs[dest].push((k, v));
    }
    let (mut records, mut bytes) = (0u64, 0u64);
    let segments = runs
        .into_iter()
        .map(|mut run| {
            sort_run(&mut run);
            cost.sorted(run.len() as u64);
            if let Some(combine) = combine.as_mut() {
                let mut combined = Vec::new();
                for (k, vals) in group_sorted(run) {
                    cost.combined(vals.len() as u64);
                    for v in combine(&k, vals) {
                        combined.push((k.clone(), v));
                    }
                }
                run = combined;
            }
            records += run.len() as u64;
            let segment = encode_pairs(&run);
            bytes += segment.len() as u64;
            segment
        })
        .collect();
    ShuffleOut {
        segments,
        records,
        bytes,
    }
}

/// Reduce side: decodes one segment per source, merges them by key
/// (ties keep source order, then arrival order), and hands every key
/// group to `reduce` in key order. Returns the number of records merged.
pub fn shuffle_in<K: Key, V: Value>(
    segments: Vec<Bytes>,
    mut reduce: impl FnMut(K, Vec<V>),
    cost: &mut impl ShuffleCost,
) -> CodecResult<u64> {
    let runs = segments
        .into_iter()
        .map(decode_pairs)
        .collect::<CodecResult<Vec<Vec<(K, V)>>>>()?;
    let records = runs.iter().map(|r| r.len() as u64).sum();
    for (k, vals) in group_sorted(merge_runs(runs)) {
        cost.reduced(vals.len() as u64);
        reduce(k, vals);
    }
    Ok(records)
}
