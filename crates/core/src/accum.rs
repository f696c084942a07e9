//! Barrier-free delta-accumulative execution (Maiter-style).
//!
//! The synchronous and §3.3 asynchronous engines both re-shuffle every
//! key's *full* state each iteration. For algorithms whose fold is an
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
//! per-task [`DeltaStore`] with its priority batch selection. ⊕ is the
//! job's [`IterativeJob::fold`], so a delta round is the iteration
//! kernel's shuffle with `extract` as the map: `MapScratch::delta_out`
//! and `kernel::delta_in`. The exchange between the two halves and the
//! termination check are the pair loop's `delta_loop` (`pair.rs`), which
//! every engine runs over its own `PairEnv`: its collective, checkpoint
//! plumbing and clock.

use crate::api::{Emitter, IterativeJob};
use crate::static_part::StaticPart;
use bytes::Bytes;
use imr_records::{decode_pairs, encode_pairs, CodecError, CodecResult};

/// An iterative job whose state update is a delta accumulation.
///
/// The contract: for every key, the fixpoint state is
/// `value ⊕ delta₁ ⊕ delta₂ ⊕ …` where ⊕ is the job's
/// [`fold`](IterativeJob::fold) — `fold(k, a, b)` sets `a` to `a ⊕ b` —
/// associative and commutative with identity
/// [`identity`](Accumulative::identity), and applying a delta to a key
/// produces new deltas for its neighbours via
/// [`extract`](Accumulative::extract). Because ⊕ is order-insensitive,
/// deltas may arrive in any order — and in particular without any
/// barrier between "iterations" — and still converge to the same
/// fixpoint.
pub trait Accumulative: IterativeJob {
    /// The identity element of ⊕ (`0` for `+`, `+∞` for `min`). A key
    /// whose pending delta is the identity has nothing to propagate.
    fn identity(&self) -> Self::S;

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

/// What one priority round did on one task.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Keys whose pending delta was applied this round.
    pub applied: usize,
    /// Pending keys deferred to a later round by the batch limit — the
    /// per-round increment of the `priority_preemptions` counter.
    pub deferred: usize,
}

/// One task's per-key `(value, delta)` state under accumulative mode.
///
/// Entries are sorted by strictly ascending key — every constructor
/// checks it — and the engines check, as they load the task's static
/// part ([`StaticPart::load_aligned`]), that it holds the same keys in
/// the same order, so delta application reads the static record of
/// entry `i` as record `i`, and a round's arriving deltas are merged in
/// one sorted walk. Deltas for keys this task does not own are dropped
/// on merge: the partition function routes every emitted delta to the
/// owning task, so a foreign key is a partitioning bug upstream and
/// cannot be applied meaningfully here.
#[derive(Debug, Clone)]
pub struct DeltaStore<K, S> {
    /// The receive half of a round folds into these; keys never change.
    pub(crate) entries: Vec<(K, (S, S))>,
}

impl<K: imr_records::Key, S: imr_records::Value> DeltaStore<K, S> {
    /// Seed a store from the initial state part; keys that are not
    /// strictly ascending are an error.
    pub fn seed<J>(job: &J, loaded: &[(K, S)]) -> CodecResult<DeltaStore<K, S>>
    where
        J: Accumulative<K = K, S = S>,
    {
        let seeded = loaded.iter().map(|(k, s)| (k.clone(), job.seed(k, s)));
        DeltaStore::restore(seeded.collect())
    }

    /// Rebuild a store from checkpointed `(key, (value, delta))`
    /// entries (see [`DeltaStore::encode`]). Keys that are not strictly
    /// ascending are an error.
    pub fn restore(entries: Vec<(K, (S, S))>) -> CodecResult<DeltaStore<K, S>> {
        if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(CodecError::Corrupt(
                "delta store keys not strictly ascending",
            ));
        }
        Ok(DeltaStore { entries })
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

    /// Decode a checkpoint part written by [`DeltaStore::encode`]; an
    /// unsorted or duplicate-key part is an error.
    pub fn decode(bytes: Bytes) -> CodecResult<DeltaStore<K, S>> {
        DeltaStore::restore(decode_pairs(bytes)?)
    }

    /// Run one priority round: pick the up-to-`batch` pending keys with
    /// the largest [`Accumulative::progress`] (ties broken by ascending
    /// key index; `batch == 0` selects all pending keys), fold each
    /// selected key's delta into its value, extract the induced deltas
    /// into `out` against the key-aligned static part, and reset the
    /// key's delta to the identity. A static record that does not
    /// decode is an error.
    ///
    /// Selected keys are *processed* in ascending key order — the
    /// priority only chooses membership; ⊕-commutativity makes the
    /// application order irrelevant to the result, and a fixed order
    /// keeps the emitted stream deterministic.
    ///
    /// The keys are applied in one index-order walk over the store,
    /// which reads the static value of each key it applies and skips the
    /// rest ([`StaticPart::values`]). A batch that takes every pending
    /// key (the default `batch == 0`, under which a dense workload such
    /// as PageRank applies nearly the whole store each round) ranks
    /// nothing; a smaller one finds the last key it takes with a
    /// linear-time selection, and the walk applies exactly the keys that
    /// rank at or above it.
    pub fn select_batch<J>(
        &mut self,
        job: &J,
        stat: &mut StaticPart<K, J::T>,
        batch: usize,
        out: &mut Emitter<K, S>,
    ) -> CodecResult<BatchOutcome>
    where
        J: Accumulative<K = K, S = S>,
    {
        let score = |(k, (v, d)): &(K, (S, S))| job.progress(k, v, d);
        // Largest score first, ties by ascending index. Only scores
        // above 0.0 are ranked, so there is no NaN: a total order.
        let rank = |a: &(f64, usize), b: &(f64, usize)| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1));
        let total = match batch {
            0 => None,
            _ => Some(self.entries.iter().filter(|e| score(e) > 0.0).count()),
        };
        // The last key the batch takes, when it cannot take them all.
        let cut = match total {
            Some(total) if batch < total => {
                let mut pending: Vec<(f64, usize)> = self
                    .entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (score(e), i))
                    .filter(|&(s, _)| s > 0.0)
                    .collect();
                Some(*pending.select_nth_unstable_by(batch - 1, rank).1)
            }
            _ => None,
        };

        let mut applied = 0;
        let mut values = stat.values();
        for (i, entry) in self.entries.iter_mut().enumerate() {
            let s = score(entry);
            let taken = s > 0.0 && cut.is_none_or(|c| rank(&(s, i), &c).is_le());
            if taken {
                let t = values.at(i)?;
                let (k, (v, d)) = entry;
                let delta = std::mem::replace(d, job.identity());
                job.fold(k, v, delta.clone());
                job.extract(k, &delta, t, out);
                applied += 1;
            }
        }
        Ok(BatchOutcome {
            applied,
            deferred: total.map_or(0, |total| total - applied),
        })
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
            .map(|(k, (mut v, d))| {
                job.fold(&k, &mut v, d);
                (k, v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::StateInput;
    use crate::kernel::{delta_in, MapScratch};
    use imr_records::ShuffleScratch;
    use imr_simcluster::Metrics;
    use std::collections::btree_map::{BTreeMap, Entry};

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
        DeltaStore::seed(&HalfFwd, &loaded).unwrap()
    }

    fn stat() -> StaticPart<u32, ()> {
        let rows: Vec<(u32, ())> = (0..4).map(|k| (k, ())).collect();
        let keys = rows.iter().map(|(k, _)| k);
        StaticPart::load_aligned(0, encode_pairs(&rows), keys).unwrap()
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
        let mut emitted = Emitter::new();
        let out = store
            .select_batch(&HalfFwd, &mut stat(), 2, &mut emitted)
            .unwrap();
        // Keys 0 (delta 8) and 1 (delta 4) win; key 2 (delta 2) defers;
        // key 3 has identity delta and is not pending at all.
        assert_eq!(out.applied, 2);
        assert_eq!(out.deferred, 1);
        assert_eq!(emitted.into_pairs(), vec![(1, 4.0), (2, 2.0)]);
        assert_eq!(store.entries()[0], (0, (8.0, 0.0)));
        assert_eq!(store.entries()[1], (1, (4.0, 0.0)));
        assert_eq!(store.entries()[2], (2, (0.0, 2.0)));
    }

    #[test]
    fn batch_zero_takes_every_pending_key() {
        let mut store = seeded();
        let out = store
            .select_batch(&HalfFwd, &mut stat(), 0, &mut Emitter::new())
            .unwrap();
        assert_eq!(out.applied, 3);
        assert_eq!(out.deferred, 0);
    }

    /// One encoded delta segment.
    fn segment(pairs: &[(u32, f64)]) -> Bytes {
        encode_pairs(pairs)
    }

    #[test]
    fn merge_folds_with_oplus_and_skips_foreign_keys() {
        let mut store = seeded();
        let inbound = vec![segment(&[(1, 1.0), (1, 2.0), (9, 5.0)])];
        let applied = delta_in(&HalfFwd, &mut store, inbound).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(store.entries()[1], (1, (0.0, 7.0)));
    }

    #[test]
    fn arrival_order_does_not_change_the_store() {
        // Segments are key-sorted; what varies is which source sent what.
        let mut a = seeded();
        let mut b = seeded();
        let inbound = vec![segment(&[(0, 1.0), (2, 3.0)]), segment(&[(0, 2.0)])];
        delta_in(&HalfFwd, &mut a, inbound).unwrap();
        let inbound = vec![segment(&[(0, 2.0)]), segment(&[(0, 1.0), (2, 3.0)])];
        delta_in(&HalfFwd, &mut b, inbound).unwrap();
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn checkpoint_round_trips() {
        let mut store = seeded();
        store
            .select_batch(&HalfFwd, &mut stat(), 1, &mut Emitter::new())
            .unwrap();
        let restored: DeltaStore<u32, f64> = DeltaStore::decode(store.encode()).unwrap();
        assert_eq!(restored.entries(), store.entries());
    }

    #[test]
    fn unsorted_or_duplicate_keys_are_a_decode_error() {
        let unsorted = encode_pairs(&[(2u32, (0.0, 1.0)), (1, (0.0, 1.0))]);
        let duplicate = encode_pairs(&[(1u32, (0.0, 1.0)), (1, (0.0, 2.0))]);
        for part in [unsorted, duplicate] {
            let decoded = DeltaStore::<u32, f64>::decode(part);
            assert!(
                matches!(decoded, Err(CodecError::Corrupt(_))),
                "{decoded:?}"
            );
        }
    }

    #[test]
    fn partition_deltas_sorts_and_premerges() {
        let emitted = vec![(3u32, 1.0), (1, 2.0), (3, 4.0), (0, 8.0)];
        let partition = |k: &u32, n| HalfFwd.partition(k, n);
        let fold = |k: &u32, acc: &mut f64, v| HalfFwd.fold(k, acc, v);
        let out = ShuffleScratch::default()
            .shuffle_folded(&mut emitted.clone(), 2, partition, fold, &mut ())
            .unwrap();
        let dests: Vec<Vec<(u32, f64)>> = out
            .segments
            .into_iter()
            .map(|seg| decode_pairs(seg).unwrap())
            .collect();
        assert_eq!(dests[0], vec![(0, 8.0)]);
        assert_eq!(dests[1], vec![(1, 2.0), (3, 5.0)]);
    }

    #[test]
    fn final_values_fold_pending_deltas() {
        let mut store = seeded();
        // Route the emitted deltas back (single-task topology), leaving
        // them *pending*; final_values must fold them into the values.
        let metrics = Metrics::default();
        let out = MapScratch::default()
            .delta_out(&HalfFwd, &mut store, &mut stat(), 1, 0, &metrics, &mut ())
            .unwrap();
        delta_in(&HalfFwd, &mut store, out.segments).unwrap();
        let finals = store.final_values(&HalfFwd);
        assert_eq!(finals[1], (1, 4.0 + 4.0)); // own 4 + half of key 0's 8
        assert_eq!(finals[3], (3, 1.0)); // half of key 2's 2
    }

    /// Accumulative job whose fold reveals its order: ⊕ is f64 `+` over
    /// values of mixed magnitude, and each key's static row is the list
    /// of deltas its extract emits.
    #[derive(Clone, Copy)]
    struct Ordered;
    impl IterativeJob for Ordered {
        type K = u32;
        type S = f64;
        type T = Vec<(u32, f64)>;
        fn map(
            &self,
            _: &u32,
            _: StateInput<'_, u32, f64>,
            _: &Self::T,
            _: &mut Emitter<u32, f64>,
        ) {
        }
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc += v;
        }
        fn partition(&self, key: &u32, n: usize) -> usize {
            *key as usize % n
        }
    }
    impl Accumulative for Ordered {
        fn identity(&self) -> f64 {
            0.0
        }
        fn seed(&self, _k: &u32, loaded: &f64) -> (f64, f64) {
            (0.0, *loaded)
        }
        fn extract(&self, _k: &u32, _delta: &f64, row: &Self::T, out: &mut Emitter<u32, f64>) {
            for &(t, d) in row {
                out.emit(t, d);
            }
        }
        fn progress(&self, _k: &u32, _v: &f64, d: &f64) -> f64 {
            d.abs()
        }
    }

    /// The ⊕ order of a round, materialised: each source's deltas are
    /// routed stably and left-folded per key in emission order, then
    /// every key's pending delta is folded with the sources in pair
    /// order. Holds for 1–4 pairs, with a batch limit so that pending
    /// deltas survive the send half.
    #[test]
    fn delta_round_is_premerge_then_source_order_fold() {
        const KEYS: u32 = 24;
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        // A 53-bit mantissa at a magnitude within 1e±4: sums round.
        let mut value = || {
            let r = next();
            let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
            let mantissa = (r >> 11) as f64 / (1u64 << 53) as f64;
            sign * mantissa * 10f64.powi((r % 9) as i32 - 4)
        };
        let keys: Vec<(u32, f64, Vec<(u32, f64)>)> = (0..KEYS)
            .map(|k| {
                let pending = value();
                let row = (0..6)
                    .map(|_| ((value().to_bits() % 24) as u32, value()))
                    .collect();
                (k, pending, row)
            })
            .collect();
        let job = Ordered;
        let metrics = Metrics::default();
        for n in 1..=4usize {
            let owned = |p: usize| keys.iter().filter(move |(k, ..)| job.partition(k, n) == p);
            let loaded = |p| owned(p).map(|&(k, d, _)| (k, d)).collect::<Vec<_>>();
            let stat = |p| {
                let rows: Vec<_> = owned(p).map(|(k, _, r)| (*k, r.clone())).collect();
                let keys = rows.iter().map(|(k, _)| k);
                StaticPart::load_aligned(p, encode_pairs(&rows), keys).unwrap()
            };
            let mut stores: Vec<_> = (0..n)
                .map(|p| DeltaStore::seed(&job, &loaded(p)).unwrap())
                .collect();
            // Half of each pair's keys apply; the rest keep pending.
            let batch = KEYS as usize / n / 2;

            // Reference: apply on a copy, then fold by hand.
            let mut expected = Vec::with_capacity(n);
            let mut premerged: Vec<Vec<BTreeMap<u32, f64>>> = Vec::with_capacity(n);
            for (p, store) in stores.iter().enumerate() {
                let mut applied = store.clone();
                let mut em = Emitter::new();
                applied
                    .select_batch(&job, &mut stat(p), batch, &mut em)
                    .unwrap();
                let mut per_dest = vec![BTreeMap::new(); n];
                for (k, d) in em.into_pairs() {
                    match per_dest[job.partition(&k, n)].entry(k) {
                        Entry::Vacant(first) => _ = first.insert(d),
                        Entry::Occupied(mut acc) => job.fold(&k, acc.get_mut(), d),
                    }
                }
                premerged.push(per_dest);
                expected.push(applied);
            }
            for (q, store) in expected.iter_mut().enumerate() {
                for (k, (_, pending)) in &mut store.entries {
                    for src in &premerged {
                        if let Some(&d) = src[q].get(k) {
                            job.fold(k, pending, d);
                        }
                    }
                }
            }

            // The round as the engines run it.
            let mut outgoing = Vec::with_capacity(n);
            for (p, store) in stores.iter_mut().enumerate() {
                let out = MapScratch::default()
                    .delta_out(&job, store, &mut stat(p), n, batch, &metrics, &mut ())
                    .unwrap();
                for (q, seg) in out.segments.iter().enumerate() {
                    let sent: Vec<(u32, f64)> = premerged[p][q].clone().into_iter().collect();
                    assert_eq!(decode_pairs::<u32, f64>(seg.clone()).unwrap(), sent);
                }
                outgoing.push(out.segments);
            }
            for (q, store) in stores.iter_mut().enumerate() {
                let inbound = outgoing.iter().map(|segs| segs[q].clone()).collect();
                delta_in(&job, store, inbound).unwrap();
                let bits = |s: &DeltaStore<u32, f64>| -> Vec<(u32, u64, u64)> {
                    let entry = |(k, (v, d)): &(u32, (f64, f64))| (*k, v.to_bits(), d.to_bits());
                    s.entries().iter().map(entry).collect()
                };
                assert_eq!(bits(store), bits(&expected[q]), "{n} pairs, pair {q}");
            }
        }
    }

    /// The batch as a full score sort picks it: every pending key
    /// ranked, the first `batch` kept, applied in index order.
    fn select_by_sort(
        store: &mut DeltaStore<u32, f64>,
        stat: &[(u32, Vec<(u32, f64)>)],
        batch: usize,
        out: &mut Emitter<u32, f64>,
    ) -> (usize, usize) {
        let job = Ordered;
        let mut pending: Vec<(f64, usize)> = (store.entries.iter().enumerate())
            .map(|(i, (k, (v, d)))| (job.progress(k, v, d), i))
            .filter(|&(s, _)| s > 0.0)
            .collect();
        pending.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        let take = if batch == 0 {
            pending.len()
        } else {
            batch.min(pending.len())
        };
        let mut chosen: Vec<usize> = pending[..take].iter().map(|&(_, i)| i).collect();
        chosen.sort_unstable();
        for i in chosen {
            let (k, (v, d)) = &mut store.entries[i];
            let delta = std::mem::replace(d, 0.0);
            job.fold(k, v, delta);
            job.extract(k, &delta, &stat[i].1, out);
        }
        (take, pending.len() - take)
    }

    #[test]
    fn the_cut_takes_what_a_full_sort_takes() {
        // Ten pending keys ranked by |delta|: five tied at 5, two at 3,
        // two at 2, one at 1; keys 3 and 8 hold the identity.
        let deltas = [
            3.0, -5.0, 5.0, 0.0, 2.0, 5.0, 1.0, -5.0, 0.0, -2.0, 5.0, 3.0,
        ];
        let loaded: Vec<(u32, f64)> = (0..).zip(deltas).collect();
        // Each applied key emits its own key: the stream is the order
        // of application.
        let stat: Vec<(u32, Vec<(u32, f64)>)> = (0..12).map(|k| (k, vec![(k, 1.0)])).collect();
        let bits = |s: &DeltaStore<u32, f64>| -> Vec<(u32, u64, u64)> {
            let entry = |(k, (v, d)): &(u32, (f64, f64))| (*k, v.to_bits(), d.to_bits());
            s.entries().iter().map(entry).collect()
        };
        // 3 and 6 cut inside a tie; 9, 10 and 11 straddle the pending count.
        for batch in [0, 1, 3, 6, 9, 10, 11] {
            let mut cut = DeltaStore::seed(&Ordered, &loaded).unwrap();
            let mut sorted = cut.clone();
            let (mut by_cut, mut by_sort) = (Emitter::new(), Emitter::new());
            let keys = stat.iter().map(|(k, _)| k);
            let part = &mut StaticPart::load_aligned(0, encode_pairs(&stat), keys).unwrap();
            let outcome = cut
                .select_batch(&Ordered, part, batch, &mut by_cut)
                .unwrap();
            let want = select_by_sort(&mut sorted, &stat, batch, &mut by_sort);
            assert_eq!((outcome.applied, outcome.deferred), want, "batch {batch}");
            assert_eq!(bits(&cut), bits(&sorted), "batch {batch}");
            assert_eq!(by_cut.into_pairs(), by_sort.into_pairs(), "batch {batch}");
        }
    }
}
