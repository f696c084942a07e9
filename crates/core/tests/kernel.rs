//! The iteration kernel against a naive oracle: `MapScratch::map_side →
//! reduce_side` over arbitrary small inputs must produce, for every key,
//! the same values in the same order as a `BTreeMap` group-by over the
//! map output taken in source-pair order — the merge tie-break the
//! cross-engine suites depend on.

use imapreduce::{
    reduce_side, Emitter, EngineError, IterativeJob, MapScratch, MapState, StateInput, StaticPart,
};
use imr_records::encode_pairs;
use imr_simcluster::Metrics;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Every key forwards a tagged value to each of its static targets; the
/// fold concatenates what it receives, so a key's next state spells
/// out exactly which values reached it and in which order.
struct Trace {
    combiner: bool,
}

impl IterativeJob for Trace {
    type K = u32;
    type S = Vec<u32>;
    type T = Vec<u32>;
    fn map(
        &self,
        k: &u32,
        state: StateInput<'_, u32, Vec<u32>>,
        targets: &Vec<u32>,
        out: &mut Emitter<u32, Vec<u32>>,
    ) {
        let salt = match state {
            StateInput::One(s) => s.len() as u32,
            StateInput::All(all) => all.len() as u32,
        };
        for (i, dst) in targets.iter().enumerate() {
            out.emit(*dst, vec![k * 1000 + i as u32 * 10 + salt]);
        }
    }
    fn fold(&self, _k: &u32, acc: &mut Vec<u32>, v: Vec<u32>) {
        acc.extend(v);
    }
    fn distance(&self, _k: &u32, prev: &Vec<u32>, cur: &Vec<u32>) -> f64 {
        prev.len().abs_diff(cur.len()) as f64
    }
    fn has_combiner(&self) -> bool {
        self.combiner
    }
    fn partition(&self, k: &u32, n: usize) -> usize {
        *k as usize % n
    }
}

/// One pair's key-sorted partition of list-valued records.
type Part = Vec<(u32, Vec<u32>)>;

/// Splits `(key, targets, state)` rows into `n` co-partitioned,
/// key-sorted state and static parts (keys are unique by construction).
fn partitioned(rows: &BTreeMap<u32, (Vec<u32>, Vec<u32>)>, n: usize) -> (Vec<Part>, Vec<Part>) {
    let mut state = vec![Vec::new(); n];
    let mut stat = vec![Vec::new(); n];
    for (k, (targets, s)) in rows {
        state[*k as usize % n].push((*k, s.clone()));
        stat[*k as usize % n].push((*k, targets.clone()));
    }
    (state, stat)
}

/// Naive group-by over the map output of every pair, pair 0 first, each
/// pair's rows in key order: `key → values in arrival order`.
fn oracle(stat: &[Part], salt: impl Fn(usize, usize) -> u32) -> BTreeMap<u32, Vec<u32>> {
    let mut groups: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (p, part) in stat.iter().enumerate() {
        for (row, (k, targets)) in part.iter().enumerate() {
            for (i, dst) in targets.iter().enumerate() {
                groups
                    .entry(*dst)
                    .or_default()
                    .push(k * 1000 + i as u32 * 10 + salt(p, row));
            }
        }
    }
    groups
}

fn rows_strategy() -> impl Strategy<Value = Vec<(u32, Vec<u32>, Vec<u32>)>> {
    proptest::collection::vec(
        (
            0u32..24,
            proptest::collection::vec(0u32..24, 0..5),
            proptest::collection::vec(any::<u32>(), 0..3),
        ),
        0..16,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One2one: reduced keys carry the oracle's values in the oracle's
    /// order; keys that received nothing keep their previous state; the
    /// distance is the key-ordered sum over keys present before.
    #[test]
    fn one2one_matches_the_group_by_oracle(
        rows in rows_strategy(),
        n in 1usize..5,
        combiner in any::<bool>(),
    ) {
        let rows: BTreeMap<u32, (Vec<u32>, Vec<u32>)> =
            rows.into_iter().map(|(k, t, s)| (k, (t, s))).collect();
        let job = Trace { combiner };
        let metrics = Metrics::default();
        let (state, stat) = partitioned(&rows, n);

        let mut segments = Vec::new();
        for p in 0..n {
            let out = MapScratch::default().map_side(&job, MapState::Own(&state[p]), &mut StaticPart::load(encode_pairs(&stat[p])).unwrap(), n, p, &metrics, &mut ())
                .unwrap();
            prop_assert_eq!(out.segments.len(), n);
            prop_assert_eq!(out.records_in, stat[p].len() as u64);
            segments.push(out.segments);
        }
        let expected = oracle(&stat, |p, row| state[p][row].1.len() as u32);

        for q in 0..n {
            let inbound = segments.iter().map(|from| from[q].clone()).collect();
            let out = reduce_side(&job, inbound, Some(&state[q]), false, true, &metrics, &mut ())
                .unwrap();
            let mut want: BTreeMap<u32, Vec<u32>> = state[q].iter().cloned().collect();
            for (k, vals) in expected.iter().filter(|(k, _)| **k as usize % n == q) {
                want.insert(*k, vals.clone());
            }
            let want: Vec<(u32, Vec<u32>)> = want.into_iter().collect();
            let distance: f64 = want
                .iter()
                .filter_map(|(k, cur)| rows.get(k).map(|(_, prev)| job.distance(k, prev, cur)))
                .sum();
            prop_assert_eq!(out.state, want);
            prop_assert!(out.has_prev);
            prop_assert_eq!(out.distance, distance);
        }
    }

    /// One2all: every map sees the whole broadcast state, and the next
    /// state is exactly what the reducers produced — nothing is carried
    /// forward, and without a previous output nothing is measured.
    #[test]
    fn one2all_matches_the_group_by_oracle(
        rows in rows_strategy(),
        n in 1usize..5,
        combiner in any::<bool>(),
    ) {
        let rows: BTreeMap<u32, (Vec<u32>, Vec<u32>)> =
            rows.into_iter().map(|(k, t, s)| (k, (t, s))).collect();
        let job = Trace { combiner };
        let metrics = Metrics::default();
        let (_, stat) = partitioned(&rows, n);
        let global: Vec<(u32, Vec<u32>)> =
            rows.iter().map(|(k, (_, s))| (*k, s.clone())).collect();

        let mut segments = Vec::new();
        for (p, part) in stat.iter().enumerate() {
            let input = MapState::Broadcast(&global);
            segments.push(MapScratch::default().map_side(&job, input, &mut StaticPart::load(encode_pairs(part)).unwrap(), n, p, &metrics, &mut ()).unwrap().segments);
        }
        let expected = oracle(&stat, |_, _| global.len() as u32);

        for q in 0..n {
            let inbound = segments.iter().map(|from| from[q].clone()).collect();
            let out = reduce_side(&job, inbound, None, true, true, &metrics, &mut ()).unwrap();
            let want: Vec<(u32, Vec<u32>)> = expected
                .iter()
                .filter(|(k, _)| **k as usize % n == q)
                .map(|(k, v)| (*k, v.clone()))
                .collect();
            prop_assert_eq!(out.state, want);
            prop_assert!(!out.has_prev);
        }
    }
}

#[test]
fn a_state_part_that_does_not_line_up_with_its_static_part_is_a_config_error() {
    let job = Trace { combiner: false };
    let metrics = Metrics::default();
    let stat = vec![(1u32, vec![1]), (2, vec![2])];
    let cases = [
        (vec![(1u32, vec![])], "co-partitioning broken at pair 3"),
        (vec![(1, vec![]), (5, vec![])], "keys diverged at pair 3"),
    ];
    for (state, needle) in cases {
        match MapScratch::default().map_side(
            &job,
            MapState::Own(&state),
            &mut StaticPart::load(encode_pairs::<u32, Vec<u32>>(&stat)).unwrap(),
            2,
            3,
            &metrics,
            &mut (),
        ) {
            Err(EngineError::Config(msg)) => assert!(msg.contains(needle), "{msg}"),
            Err(other) => panic!("expected a Config error, got {other}"),
            Ok(_) => panic!("expected a Config error, got Ok"),
        }
    }
}
