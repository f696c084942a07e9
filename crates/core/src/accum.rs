//! Barrier-free delta-accumulative execution (Maiter-style).
//!
//! The synchronous and §3.3 asynchronous engines both re-shuffle every
//! key's *full* state each iteration. For algorithms whose update is an
//! associative + commutative operator ⊕ (PageRank's `+`, SSSP's `min`),
//! a task can instead keep a per-key `(value, delta)` pair, fold
//! arriving deltas into the pending delta with ⊕, and propagate only
//! the *change* — no iteration barrier, no full-state shuffle, and
//! work can be prioritised towards the keys with the largest pending
//! delta. Termination becomes a global detector over accumulated
//! progress: when the sum of every task's pending |delta| falls below
//! the configured distance threshold, no future update can change any
//! value materially and the job stops.
//!
//! This module holds the [`Accumulative`] job contract and the
//! per-task [`DeltaStore`] with its priority batch selection; the round
//! built from them is `kernel::{delta_out, delta_in}`. Only the
//! exchange between the two halves and the termination check live in
//! each engine (`engine.rs` for the simulator, `imr-native` for the
//! thread/TCP backends), so they can reuse the engine's own
//! collectives and checkpoint plumbing.

use crate::api::{Emitter, IterativeJob};
use bytes::Bytes;
use imr_mapreduce::EngineError;
use imr_records::{
    decode_pairs, encode_pairs, is_sorted_by_key, CodecResult, PairCursor, ShuffleScratch,
};

/// An iterative job whose state update is a delta accumulation.
///
/// The contract: for every key, the fixpoint state is
/// `value ⊕ delta₁ ⊕ delta₂ ⊕ …` where ⊕
/// ([`combine_delta`](Accumulative::combine_delta)) is associative and
/// commutative with identity [`identity`](Accumulative::identity), and
/// applying a delta to a key produces new deltas for its neighbours via
/// [`extract`](Accumulative::extract). Because ⊕ is order-insensitive,
/// deltas may arrive in any order — and in particular without any
/// barrier between "iterations" — and still converge to the same
/// fixpoint.
pub trait Accumulative: IterativeJob {
    /// The identity element of ⊕ (`0` for `+`, `+∞` for `min`). A key
    /// whose pending delta is the identity has nothing to propagate.
    fn identity(&self) -> Self::S;

    /// The accumulation operator ⊕: associative, commutative, with
    /// [`identity`](Accumulative::identity) as identity element.
    fn combine_delta(&self, a: &Self::S, b: &Self::S) -> Self::S;

    /// Split a key's loaded initial state into the starting
    /// `(value, delta)` pair. The starting delta carries the key's
    /// whole initial contribution so the first rounds propagate it.
    fn seed(&self, key: &Self::K, loaded: &Self::S) -> (Self::S, Self::S);

    /// Apply `delta` at `key`: emit the induced deltas for downstream
    /// keys (routed with [`IterativeJob::partition`]). The framework
    /// has already folded `delta` into the key's value before calling
    /// this.
    fn extract(
        &self,
        key: &Self::K,
        delta: &Self::S,
        stat: &Self::T,
        out: &mut Emitter<Self::K, Self::S>,
    );

    /// Scheduling priority *and* termination contribution of the key's
    /// pending delta: `0.0` exactly when the delta is (effectively) the
    /// identity, positive otherwise. The engine schedules the
    /// largest-progress keys first and terminates when the global sum
    /// drops below the distance threshold.
    fn progress(&self, key: &Self::K, value: &Self::S, delta: &Self::S) -> f64;
}

/// What one priority round produced on one task.
#[derive(Debug)]
pub struct BatchOutcome<K, S> {
    /// Deltas emitted by [`Accumulative::extract`], in emission order
    /// (not yet partitioned or ⊕-merged).
    pub emitted: Vec<(K, S)>,
    /// Keys whose pending delta was applied this round.
    pub applied: usize,
    /// Pending keys deferred to a later round by the batch limit — the
    /// per-round increment of the `priority_preemptions` counter.
    pub deferred: usize,
}

/// One task's per-key `(value, delta)` state under accumulative mode.
///
/// Entries stay key-sorted and co-partitioned with the task's static
/// part (same keys, same order), so delta application can walk the two
/// slices in lock step. Deltas for keys this task does not own are
/// dropped on merge: the partition function routes every emitted delta
/// to the owning task, so a foreign key is a partitioning bug upstream
/// and cannot be applied meaningfully here.
#[derive(Debug, Clone)]
pub struct DeltaStore<K, S> {
    entries: Vec<(K, (S, S))>,
}

impl<K: imr_records::Key, S: imr_records::Value> DeltaStore<K, S> {
    /// Seed a store from the key-sorted initial state part.
    pub fn seed<J>(job: &J, loaded: &[(K, S)]) -> DeltaStore<K, S>
    where
        J: Accumulative<K = K, S = S>,
    {
        debug_assert!(is_sorted_by_key(loaded));
        DeltaStore {
            entries: loaded
                .iter()
                .map(|(k, s)| (k.clone(), job.seed(k, s)))
                .collect(),
        }
    }

    /// Rebuild a store from checkpointed `(key, (value, delta))`
    /// entries (see [`DeltaStore::encode`]).
    pub fn restore(entries: Vec<(K, (S, S))>) -> DeltaStore<K, S> {
        debug_assert!(is_sorted_by_key(&entries));
        DeltaStore { entries }
    }

    /// Number of keys this task owns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the task owns no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `(key, (value, delta))` entries, key-sorted.
    pub fn entries(&self) -> &[(K, (S, S))] {
        &self.entries
    }

    /// Encode the full store for a checkpoint part.
    pub fn encode(&self) -> Bytes {
        encode_pairs(&self.entries)
    }

    /// Decode a checkpoint part written by [`DeltaStore::encode`].
    pub fn decode(bytes: Bytes) -> CodecResult<DeltaStore<K, S>> {
        Ok(DeltaStore::restore(decode_pairs(bytes)?))
    }

    /// Fold a received delta segment into the pending deltas with ⊕.
    /// Returns the number of deltas applied (foreign keys are skipped).
    pub fn merge_segment<J>(&mut self, job: &J, pairs: &[(K, S)]) -> usize
    where
        J: Accumulative<K = K, S = S>,
    {
        pairs.iter().filter(|(k, d)| self.fold(job, k, d)).count()
    }

    /// [`merge_segment`](Self::merge_segment) straight off an encoded
    /// segment's decode cursor.
    pub fn merge_encoded<J>(&mut self, job: &J, segment: Bytes) -> CodecResult<usize>
    where
        J: Accumulative<K = K, S = S>,
    {
        let mut applied = 0;
        for pair in PairCursor::new(segment) {
            let (k, d) = pair?;
            applied += usize::from(self.fold(job, &k, &d));
        }
        Ok(applied)
    }

    /// ⊕-folds one delta into its key's pending delta; false for a key
    /// this task does not own.
    fn fold<J>(&mut self, job: &J, k: &K, d: &S) -> bool
    where
        J: Accumulative<K = K, S = S>,
    {
        let Ok(i) = self.entries.binary_search_by(|(ek, _)| ek.cmp(k)) else {
            return false;
        };
        let (_, (_, delta)) = &mut self.entries[i];
        *delta = job.combine_delta(delta, d);
        true
    }

    /// Run one priority round: pick the up-to-`batch` pending keys with
    /// the largest [`Accumulative::progress`] (ties broken by ascending
    /// key index; `batch == 0` selects all pending keys), fold each
    /// selected key's delta into its value, extract the induced deltas
    /// against the co-partitioned static slice, and reset the key's
    /// delta to the identity.
    ///
    /// Selected keys are *processed* in ascending key order — the
    /// priority only chooses membership; ⊕-commutativity makes the
    /// application order irrelevant to the result, and a fixed order
    /// keeps the emitted stream deterministic.
    pub fn select_batch<J>(
        &mut self,
        job: &J,
        stat: &[(K, J::T)],
        batch: usize,
    ) -> BatchOutcome<K, S>
    where
        J: Accumulative<K = K, S = S>,
    {
        assert_eq!(
            self.entries.len(),
            stat.len(),
            "delta store and static part must be co-partitioned"
        );
        let mut pending: Vec<(f64, usize)> = self
            .entries
            .iter()
            .enumerate()
            .filter_map(|(i, (k, (v, d)))| {
                let score = job.progress(k, v, d);
                (score > 0.0).then_some((score, i))
            })
            .collect();
        let total = pending.len();
        let take = if batch == 0 { total } else { batch.min(total) };
        // Largest score first, ties by ascending index: sort the whole
        // pending set (it is small relative to the store for sparse
        // workloads) then keep the head, re-sorted by index for the
        // deterministic application sweep.
        pending.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let mut chosen: Vec<usize> = pending[..take].iter().map(|&(_, i)| i).collect();
        chosen.sort_unstable();

        let mut out = Emitter::new();
        for i in chosen {
            let (k, (v, d)) = &mut self.entries[i];
            debug_assert!(*k == stat[i].0, "static part not aligned with state");
            let applied = std::mem::replace(d, job.identity());
            *v = job.combine_delta(v, &applied);
            job.extract(k, &applied, &stat[i].1, &mut out);
        }
        BatchOutcome {
            emitted: out.into_pairs(),
            applied: take,
            deferred: total - take,
        }
    }

    /// This task's accumulated pending progress — its local term of the
    /// global termination sum. Summed in key order for bit-stable
    /// results across engines.
    pub fn pending_progress<J>(&self, job: &J) -> f64
    where
        J: Accumulative<K = K, S = S>,
    {
        self.entries
            .iter()
            .map(|(k, (v, d))| job.progress(k, v, d))
            .sum()
    }

    /// Consume the store into the final `(key, value)` records,
    /// folding any still-pending delta into the value first so the
    /// output equals the fixpoint the detector certified.
    pub fn final_values<J>(self, job: &J) -> Vec<(K, S)>
    where
        J: Accumulative<K = K, S = S>,
    {
        self.entries
            .into_iter()
            .map(|(k, (v, d))| {
                let folded = job.combine_delta(&v, &d);
                (k, folded)
            })
            .collect()
    }
}

/// Partition emitted deltas into `n` per-destination segments, each
/// key-sorted with duplicate keys pre-merged by ⊕ — one segment per
/// peer, every round, so receivers can merge with a single sorted walk
/// and the wire carries each key at most once per round. A job whose
/// `partition` names a destination that does not exist is a
/// [`EngineError::Config`].
pub(crate) fn partition_deltas<J: Accumulative>(
    job: &J,
    emitted: Vec<(J::K, J::S)>,
    n: usize,
) -> Result<Vec<Vec<(J::K, J::S)>>, EngineError> {
    // Sort indices, not records, and ⊕-fold by gathering through them:
    // the only copy made is the pre-merged output itself.
    let mut routes = ShuffleScratch::default();
    routes.route(&emitted, n, |k, n| job.partition(k, n))?;
    let premerge = |dest| {
        // Grown, not pre-sized: a destination receives many deltas for
        // few keys, and room for every delta outweighs the index buffers.
        let mut merged: Vec<(J::K, J::S)> = Vec::new();
        for i in routes.order(dest) {
            let (k, d) = &emitted[i];
            match merged.last_mut() {
                Some((lk, ld)) if lk == k => *ld = job.combine_delta(ld, d),
                _ => merged.push((k.clone(), d.clone())),
            }
        }
        merged
    };
    Ok((0..n).map(premerge).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StateInput;

    /// Toy accumulative job: ⊕ = `+` over f64, each applied delta
    /// forwards half of itself to `key + 1` (mod 4).
    struct HalfFwd;
    impl IterativeJob for HalfFwd {
        type K = u32;
        type S = f64;
        type T = ();
        fn map(&self, k: &u32, s: StateInput<'_, u32, f64>, _t: &(), out: &mut Emitter<u32, f64>) {
            out.emit(*k, *s.one());
        }
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc += v;
        }
        fn partition(&self, key: &u32, n: usize) -> usize {
            *key as usize % n
        }
    }
    impl Accumulative for HalfFwd {
        fn identity(&self) -> f64 {
            0.0
        }
        fn combine_delta(&self, a: &f64, b: &f64) -> f64 {
            a + b
        }
        fn seed(&self, _k: &u32, loaded: &f64) -> (f64, f64) {
            (0.0, *loaded)
        }
        fn extract(&self, k: &u32, delta: &f64, _t: &(), out: &mut Emitter<u32, f64>) {
            out.emit((k + 1) % 4, delta / 2.0);
        }
        fn progress(&self, _k: &u32, _v: &f64, d: &f64) -> f64 {
            d.abs()
        }
    }

    fn seeded() -> DeltaStore<u32, f64> {
        let loaded: Vec<(u32, f64)> = vec![(0, 8.0), (1, 4.0), (2, 2.0), (3, 0.0)];
        DeltaStore::seed(&HalfFwd, &loaded)
    }

    fn stat() -> Vec<(u32, ())> {
        (0..4).map(|k| (k, ())).collect()
    }

    #[test]
    fn seed_splits_value_and_delta() {
        let store = seeded();
        assert_eq!(store.len(), 4);
        assert_eq!(store.entries()[0], (0, (0.0, 8.0)));
        assert!((store.pending_progress(&HalfFwd) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn batch_prefers_largest_delta_and_defers_rest() {
        let mut store = seeded();
        let out = store.select_batch(&HalfFwd, &stat(), 2);
        // Keys 0 (delta 8) and 1 (delta 4) win; key 2 (delta 2) defers;
        // key 3 has identity delta and is not pending at all.
        assert_eq!(out.applied, 2);
        assert_eq!(out.deferred, 1);
        assert_eq!(out.emitted, vec![(1, 4.0), (2, 2.0)]);
        assert_eq!(store.entries()[0], (0, (8.0, 0.0)));
        assert_eq!(store.entries()[1], (1, (4.0, 0.0)));
        assert_eq!(store.entries()[2], (2, (0.0, 2.0)));
    }

    #[test]
    fn batch_zero_takes_every_pending_key() {
        let mut store = seeded();
        let out = store.select_batch(&HalfFwd, &stat(), 0);
        assert_eq!(out.applied, 3);
        assert_eq!(out.deferred, 0);
    }

    #[test]
    fn merge_folds_with_oplus_and_skips_foreign_keys() {
        let mut store = seeded();
        let applied = store.merge_segment(&HalfFwd, &[(1, 1.0), (1, 2.0), (9, 5.0)]);
        assert_eq!(applied, 2);
        assert_eq!(store.entries()[1], (1, (0.0, 7.0)));
    }

    #[test]
    fn arrival_order_does_not_change_the_store() {
        let mut a = seeded();
        let mut b = seeded();
        a.merge_segment(&HalfFwd, &[(0, 1.0), (2, 3.0)]);
        a.merge_segment(&HalfFwd, &[(0, 2.0)]);
        b.merge_segment(&HalfFwd, &[(0, 2.0)]);
        b.merge_segment(&HalfFwd, &[(2, 3.0), (0, 1.0)]);
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn checkpoint_round_trips() {
        let mut store = seeded();
        store.select_batch(&HalfFwd, &stat(), 1);
        let restored: DeltaStore<u32, f64> = DeltaStore::decode(store.encode()).unwrap();
        assert_eq!(restored.entries(), store.entries());
    }

    #[test]
    fn partition_deltas_sorts_and_premerges() {
        let emitted = vec![(3u32, 1.0), (1, 2.0), (3, 4.0), (0, 8.0)];
        let dests = partition_deltas(&HalfFwd, emitted, 2).unwrap();
        assert_eq!(dests[0], vec![(0, 8.0)]);
        assert_eq!(dests[1], vec![(1, 2.0), (3, 5.0)]);
    }

    #[test]
    fn final_values_fold_pending_deltas() {
        let mut store = seeded();
        let out = store.select_batch(&HalfFwd, &stat(), 0);
        // Route the emitted deltas back (single-task topology), leaving
        // them *pending*; final_values must fold them into the values.
        store.merge_segment(&HalfFwd, &out.emitted);
        let finals = store.final_values(&HalfFwd);
        assert_eq!(finals[1], (1, 4.0 + 4.0)); // own 4 + half of key 0's 8
        assert_eq!(finals[3], (3, 1.0)); // half of key 2's 2
    }
}
