//! The iteration kernel: what one persistent map/reduce pair computes
//! in one iteration, written once.
//!
//! [`MapScratch::map_side`] joins the pair's state with its static
//! partition, runs the user map and hands the output to the shuffle
//! kernel ([`imr_records::ShuffleScratch::shuffle_out`]);
//! [`reduce_side`] merges the pair's inbound segments, folding each value
//! into its key's accumulator with the user `fold` as it arrives
//! ([`imr_records::shuffle_in`]), finishes each key, carries forward
//! keys that received nothing and measures the distance to the previous
//! snapshot. Only the pair loop calls these two functions, on every
//! engine; each engine supplies only its own clock (through the
//! [`ShuffleCost`] hook), transport and supervision. Cross-engine
//! bit-identity therefore follows from shared code. Under one2all,
//! [`merge_broadcast`] is the one reassembly of the broadcast state from
//! the pairs' reduce outputs, at every hand-off and every restore from a
//! snapshot.
//!
//! A pair is persistent, so its buffers are too: the emit buffer, the
//! shuffle's index buffers and the combiner's key table live in the
//! [`MapScratch`] the loop owns and are emptied, not reallocated,
//! between iterations. The index buffers also keep their order: a map
//! side whose emitted keys are, index for index, the last one's (a
//! graph job's, from the second iteration on) replays that stable
//! (key, emission) order instead of partitioning and sorting again —
//! exact, since every key is compared, and only for the order a plain
//! `shuffle_out` built. With a combiner the emit buffer never holds more
//! than one map call's output: it is drained into one accumulator per
//! key ([`imr_records::FoldTable`]), each value folded in as it comes.
//! The reduce side needs no buffer either — one accumulator for the
//! open key, each finished key streamed straight into the next state.
//!
//! The barrier-free accumulative mode's ⊕ delta round (DESIGN.md §11)
//! is the same kernel with `extract` as the map and `fold` as ⊕, in two
//! halves around the exchange: [`MapScratch::delta_out`] selects and
//! applies pending deltas, extracts into the pair's emit buffer, routes
//! with its index buffers and encodes one segment per peer, folding
//! equal keys as it goes ([`ShuffleScratch::shuffle_folded`]), and
//! charges the hook for it; [`delta_in`] merges what every peer sent,
//! straight off the decode cursors, into the key-sorted store in one
//! walk ([`imr_records::merge_into`]) and returns how many deltas it
//! merged. Only the pair loop's `delta_loop` calls them, on every
//! engine (the simulator's through its virtual-clock `SimEnv`).

use crate::accum::{Accumulative, DeltaStore};
use crate::api::{Emitter, IterativeJob, StateInput};
use crate::static_part::{check_counts, diverged_at, StaticPart};
use bytes::Bytes;
use imr_mapreduce::EngineError;
use imr_records::{
    merge_into, shuffle_in, sort_run, FoldTable, Key, ShuffleCost, ShuffleScratch, Value,
};
use imr_simcluster::Metrics;

/// What a pair's map side keeps between iterations (or delta rounds):
/// the buffer the user map emits into, the shuffle's index buffers, the
/// combiner's accumulators and a delta round's ranking of its pending
/// keys. Between calls all but the index buffers are empty, and what
/// persists of them is their capacity; the index buffers keep the last
/// order `shuffle_out` built, which the next map side replays if it
/// emits the same keys.
pub struct MapScratch<K, S> {
    emitter: Emitter<K, S>,
    shuffle: ShuffleScratch,
    table: FoldTable<K, S>,
    rank: Vec<(f64, usize)>,
}

impl<K, S> Default for MapScratch<K, S> {
    fn default() -> Self {
        MapScratch {
            emitter: Emitter::new(),
            shuffle: ShuffleScratch::default(),
            table: FoldTable::default(),
            rank: Vec::new(),
        }
    }
}

/// The state a pair's map task consumes this iteration.
#[derive(Clone, Copy)]
pub enum MapState<'a, K, S> {
    /// One2one: the pair's own state partition, co-partitioned and
    /// key-aligned with its static partition.
    Own(&'a [(K, S)]),
    /// One2all: the full broadcast state, sorted by key.
    Broadcast(&'a [(K, S)]),
}

/// What [`MapScratch::map_side`] produced.
pub struct MapOutput {
    /// One encoded shuffle segment per destination pair.
    pub segments: Vec<Bytes>,
    /// Total encoded size of the segments.
    pub spill_bytes: u64,
    /// Records the map consumed.
    pub records_in: u64,
    /// Records the map emitted (before any combiner).
    pub emitted: u64,
}

/// What [`reduce_side`] produced.
pub struct ReduceOutput<K, S> {
    /// The pair's next state, sorted by key.
    pub state: Vec<(K, S)>,
    /// Local distance to the previous snapshot (0 without one).
    pub distance: f64,
    /// Whether a previous snapshot existed to measure against.
    pub has_prev: bool,
    /// Records merged from the inbound segments.
    pub records: u64,
}

impl<K: Key, S: Value> MapScratch<K, S> {
    /// Map side of one iteration of pair `pair`: the sorted state/static
    /// join (§3.2.2), each static record decoded just before its map
    /// call, the user map, then partition → sort → encode into `n`
    /// segments — with a combiner, each map call's output is folded
    /// into its keys' accumulators before the next call. A state
    /// partition that does not line up key for key with the static
    /// partition, or a `partition` that names a destination outside
    /// `0..n`, is a [`EngineError::Config`].
    #[allow(clippy::too_many_arguments)]
    pub fn map_side<J: IterativeJob<K = K, S = S>>(
        &mut self,
        job: &J,
        state: MapState<'_, K, S>,
        stat: &mut StaticPart<K, J::T>,
        n: usize,
        pair: usize,
        metrics: &Metrics,
        cost: &mut impl ShuffleCost,
    ) -> Result<MapOutput, EngineError> {
        let MapScratch {
            emitter,
            shuffle,
            table,
            ..
        } = self;
        // A failed call may have left emits or accumulators behind.
        emitter.pairs_mut().clear();
        table.clear();
        let combiner = job.has_combiner();
        let mut fold = |k: &K, acc: &mut S, v| job.fold(k, acc, v);
        let mut emitted = 0u64;
        let records_in = stat.len() as u64;
        // Without a combiner the emit buffer takes the whole map output.
        // Grown by doubling on the pair's first map side it would leave
        // behind as much garbage as it keeps, so once a sixteenth of the
        // records are mapped it is sized for all of them, extrapolated,
        // with an eighth to spare.
        let first = !combiner && emitter.pairs_mut().capacity() == 0;
        let size_at = first.then(|| (records_in as usize).div_ceil(16));
        let mut calls = 0;
        let mut collect = |emitter: &mut Emitter<K, S>| {
            if combiner {
                emitted += table.absorb(emitter.pairs_mut(), &mut fold);
                return;
            }
            calls += 1;
            if Some(calls) == size_at {
                let so_far = emitter.len();
                let all = so_far.saturating_mul(records_in as usize) / calls;
                let pairs = emitter.pairs_mut();
                pairs.reserve_exact((all + all / 8).saturating_sub(so_far));
            }
        };
        let mut records = stat.records();
        match state {
            MapState::Broadcast(global) => {
                while let Some(record) = records.next() {
                    let (k, t) = record?;
                    job.map(k, StateInput::All(global), t, emitter);
                    collect(emitter);
                }
            }
            MapState::Own(state) => {
                check_counts(pair, state.len(), records_in as usize)?;
                for (ks, s) in state {
                    let Some(record) = records.next() else { break };
                    let (k, t) = record?;
                    if k != ks {
                        return Err(diverged_at(pair));
                    }
                    job.map(k, StateInput::One(s), t, emitter);
                    collect(emitter);
                }
            }
        }
        metrics.map_input_records.add(records_in);
        let partition = |k: &K, n| job.partition(k, n);
        let out = if combiner {
            table.finish(shuffle, n, partition, cost)?
        } else {
            emitted = emitter.len() as u64;
            shuffle.shuffle_out(emitter.pairs_mut(), n, partition, cost)?
        };
        Ok(MapOutput {
            segments: out.segments,
            spill_bytes: out.bytes,
            records_in,
            emitted,
        })
    }

    /// First half of one ⊕ delta round on one pair: applies the
    /// ⌈pending / `share`⌉ highest-priority pending deltas of `store`
    /// against the key-aligned `stat` (1 = all pending), ranked in the
    /// kept ranking buffer, each applied key's static record decoded
    /// just before its extract, extracting into the emit buffer; routes
    /// what they emit to `n` destinations and encodes one segment per
    /// peer — every peer, every round, so the send-all /
    /// recv-all exchange cannot deadlock — each key once, its deltas
    /// folded in emission order. Counts `deltas_sent` and
    /// `priority_preemptions`; charges `cost` a sort of each segment,
    /// then the applied and emitted records and the encoded bytes. A
    /// `partition` that names a destination outside `0..n` is a
    /// [`EngineError::Config`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn delta_out<J: Accumulative<K = K, S = S>>(
        &mut self,
        job: &J,
        store: &mut DeltaStore<K, S>,
        stat: &mut StaticPart<K, J::T>,
        n: usize,
        share: u32,
        metrics: &Metrics,
        cost: &mut impl ShuffleCost,
    ) -> Result<DeltaOutput, EngineError> {
        let MapScratch {
            emitter,
            shuffle,
            rank,
            ..
        } = self;
        // A failed call may have left emits behind.
        emitter.pairs_mut().clear();
        let batch = store.select_batch(job, stat, share, rank, emitter)?;
        let emitted = emitter.len() as u64;
        let partition = |k: &K, n| job.partition(k, n);
        let fold = |k: &K, acc: &mut S, d| job.fold(k, acc, d);
        let out = shuffle.shuffle_folded(emitter.pairs_mut(), n, partition, fold, cost)?;
        cost.processed(batch.applied as u64 + emitted, out.bytes);
        metrics.deltas_sent.add(out.records);
        metrics.priority_preemptions.add(batch.deferred as u64);
        Ok(DeltaOutput {
            segments: out.segments,
            sent: out.records,
        })
    }
}

/// Reduce side of one iteration: merges `segments` (one per source
/// pair, in task order), folding each key's values with the job's
/// `fold` as they arrive and finishing each key, and — under one2one —
/// carries forward from `prev` the keys that received no value. When
/// `measure` is set and `prev` exists, also sums the job's per-key
/// distance from `prev` to the new state (§3.1.2). Charges `cost` the
/// merge and the distance pass.
///
/// `prev` is the pair's current state under one2one, and its previous
/// reduce output (if any) under one2all, where the state space is
/// whatever the reducers produce.
pub fn reduce_side<J: IterativeJob>(
    job: &J,
    segments: Vec<Bytes>,
    prev: Option<&[(J::K, J::S)]>,
    one2all: bool,
    measure: bool,
    metrics: &Metrics,
    cost: &mut impl ShuffleCost,
) -> Result<ReduceOutput<J::K, J::S>, EngineError> {
    // Under one2one every reduced key is merged with the carried-forward
    // previous state as it is produced; one2all keeps only what the
    // reducers produce.
    let carried: &[(J::K, J::S)] = if one2all { &[] } else { prev.unwrap_or(&[]) };
    let mut next = CarryForward::over(carried);
    let runs = segments.len();
    let records = shuffle_in(
        segments,
        |k, acc, v| job.fold(k, acc, v),
        |k, acc| {
            let s = job.finish(&k, acc);
            next.push(k, s);
        },
        cost,
    )?;
    cost.merged(records, runs);
    metrics.reduce_input_records.add(records);
    let state = next.finish();
    let (distance, has_prev) = match prev {
        Some(prev) if measure => {
            // The distance pass runs job code over every new record.
            cost.processed(state.len() as u64, 0);
            (distance_sorted(job, prev, &state), true)
        }
        _ => (0.0, false),
    };
    Ok(ReduceOutput {
        state,
        distance,
        has_prev,
        records,
    })
}

/// The one2all state every map task reads: the pairs' reduce outputs
/// (`outs[q]` from pair `q`) concatenated in task order, then stably
/// key-sorted. The one definition of that reassembly: both engines'
/// hand-offs and restores call it, so the broadcast state cannot differ.
pub(crate) fn merge_broadcast<K: Key, S: Value>(outs: &[Vec<(K, S)>]) -> Vec<(K, S)> {
    let mut global: Vec<(K, S)> = outs.iter().flatten().cloned().collect();
    sort_run(&mut global);
    global
}

/// A sorted merge of reduce output, pushed key by key, with the sorted
/// previous state: keys the reducers did not produce keep their old
/// value.
struct CarryForward<'a, K, S> {
    previous: &'a [(K, S)],
    out: Vec<(K, S)>,
}

impl<'a, K: Ord + Clone, S: Clone> CarryForward<'a, K, S> {
    fn over(previous: &'a [(K, S)]) -> Self {
        CarryForward {
            previous,
            out: Vec::with_capacity(previous.len()),
        }
    }

    /// Adds the next reduced key (keys arrive ascending), after the
    /// previous keys below it.
    fn push(&mut self, k: K, s: S) {
        let below = self.previous.iter().take_while(|(pk, _)| *pk < k).count();
        let (carried, rest) = self.previous.split_at(below);
        self.out.extend_from_slice(carried);
        self.previous = match rest.first() {
            Some((pk, _)) if *pk == k => &rest[1..],
            _ => rest,
        };
        self.out.push((k, s));
    }

    fn finish(mut self) -> Vec<(K, S)> {
        self.out.extend_from_slice(self.previous);
        self.out
    }
}

/// Sums the job's per-key distance over two sorted snapshots (keys
/// present in only one snapshot contribute nothing). Summation order is
/// key order, which keeps floating-point accumulation identical across
/// engines.
pub(crate) fn distance_sorted<J: IterativeJob>(
    job: &J,
    prev: &[(J::K, J::S)],
    cur: &[(J::K, J::S)],
) -> f64 {
    let mut total = 0.0;
    let mut pi = 0usize;
    for (k, s) in cur {
        while pi < prev.len() && prev[pi].0 < *k {
            pi += 1;
        }
        if pi < prev.len() && prev[pi].0 == *k {
            total += job.distance(k, &prev[pi].1, s);
        }
    }
    total
}

/// What [`MapScratch::delta_out`] produced.
pub(crate) struct DeltaOutput {
    /// One encoded delta segment per destination pair: key-sorted, with
    /// duplicate keys pre-merged by ⊕, possibly empty.
    pub(crate) segments: Vec<Bytes>,
    /// Deltas on the wire this round, over all destinations.
    pub(crate) sent: u64,
}

/// Second half of the round: folds the segment received from every
/// peer into `store`'s pending deltas in one sorted walk — per key,
/// pending ⊕ the delta from pair 0 ⊕ the delta from pair 1 …
/// (`segments[p]` came from pair `p`). Deltas for keys the store does
/// not hold are skipped. Returns the number of deltas merged.
pub(crate) fn delta_in<J: Accumulative>(
    job: &J,
    store: &mut DeltaStore<J::K, J::S>,
    segments: Vec<Bytes>,
) -> Result<u64, EngineError> {
    let fold = |k: &J::K, (_, pending): &mut (J::S, J::S), d| job.fold(k, pending, d);
    Ok(merge_into(segments, &mut store.entries, fold)?)
}

/// Folds the pairs' termination votes — one `(local distance, had a
/// previous snapshot)` per pair, **in task order** — into the global
/// `(distance, any pair had a previous snapshot)` of §3.1.2. The one
/// definition of that sum: every engine and the native supervisor's
/// final stitch call it, so the float accumulation order cannot differ.
pub fn fold_votes(votes: impl IntoIterator<Item = (f64, bool)>) -> (f64, bool) {
    let mut total = 0.0f64;
    let mut any_prev = false;
    for (d, has_prev) in votes {
        if has_prev {
            any_prev = true;
            total += d;
        }
    }
    (total, any_prev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_votes_skips_pairs_without_a_previous_snapshot() {
        assert_eq!(
            fold_votes([(9.0, false), (0.5, true), (0.25, true)]),
            (0.75, true)
        );
        assert_eq!(fold_votes([(9.0, false)]), (0.0, false));
    }

    // Merges `reduced` into `previous` through `CarryForward`, as the
    // reduce side does: keys absent from `reduced` keep their old value.
    fn carry_forward(reduced: Vec<(u32, i32)>, previous: &[(u32, i32)]) -> Vec<(u32, i32)> {
        let mut next = CarryForward::over(previous);
        for (k, s) in reduced {
            next.push(k, s);
        }
        next.finish()
    }

    #[test]
    fn carry_forward_fills_gaps() {
        let prev = vec![(1u32, 10), (2, 20), (3, 30), (5, 50)];
        let reduced = vec![(2u32, 99), (4, 44)];
        let merged = carry_forward(reduced, &prev);
        assert_eq!(merged, vec![(1, 10), (2, 99), (3, 30), (4, 44), (5, 50)]);
    }

    #[test]
    fn carry_forward_with_empty_sides() {
        let prev = vec![(1u32, 1)];
        assert_eq!(carry_forward(vec![], &prev), prev);
        let merged = carry_forward(vec![(2u32, 2)], &[]);
        assert_eq!(merged, vec![(2, 2)]);
    }
}
