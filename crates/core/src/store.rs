//! Partitioned data loading (paper §3.2).
//!
//! iMapReduce partitions the static data with the *same* partition
//! function used for the state shuffle, so state records always arrive
//! at the reduce task whose paired map task holds the matching static
//! records. The loaders here write key-sorted, co-partitioned part
//! files to the DFS; at job start each persistent map task pulls its
//! own part onto its local store once.

use crate::api::Mapping;
use crate::config::{IterConfig, Mode};
use imr_dfs::Dfs;
use imr_mapreduce::io::{num_parts, write_encoded_parts};
use imr_mapreduce::EngineError;
use imr_records::{Codec, ShuffleScratch};
use imr_simcluster::TaskClock;
use std::fmt::Debug;

/// Routes `pairs` to `n` parts with `partition` and sorts each part by
/// key, without moving a record (the map side's
/// [`ShuffleScratch::route`]). Zero parts, a part index outside `0..n`
/// and a duplicate key are errors: iMapReduce's data model is keyed
/// records (one state record and one static record per key), and a
/// duplicate would silently corrupt the sorted join.
fn route_parts<K: Codec + Ord + Debug, V>(
    pairs: &[(K, V)],
    n: usize,
    partition: impl Fn(&K, usize) -> usize,
) -> Result<ShuffleScratch, String> {
    if n == 0 {
        return Err("cannot partition into zero parts".into());
    }
    let mut scratch = ShuffleScratch::default();
    scratch
        .route(pairs, n, partition)
        .map_err(|e| e.to_string())?;
    for p in 0..n {
        let order = scratch.order(p);
        if let Some((i, _)) = order
            .clone()
            .zip(order.skip(1))
            .find(|&(a, b)| pairs[a].0 == pairs[b].0)
        {
            return Err(format!("duplicate key {:?} in input", pairs[i].0));
        }
    }
    Ok(scratch)
}

/// Partitions `pairs` into `n` key-sorted parts using `partition`.
/// Zero parts, a part index outside `0..n` and duplicate keys are
/// rejected.
pub(crate) fn partition_sorted<K: Codec + Ord + Debug, V>(
    pairs: Vec<(K, V)>,
    n: usize,
    partition: impl Fn(&K, usize) -> usize,
) -> Result<Vec<Vec<(K, V)>>, String> {
    let scratch = route_parts(&pairs, n, partition)?;
    // Each index is in exactly one part's order, so every take finds
    // its record.
    let mut records: Vec<Option<(K, V)>> = pairs.into_iter().map(Some).collect();
    Ok((0..n)
        .map(|p| {
            let order = scratch.order(p);
            let mut part = Vec::with_capacity(order.len());
            part.extend(order.filter_map(|i| records[i].take()));
            part
        })
        .collect())
}

/// Partitions `pairs` and writes them as `<dir>/part-XXXXX` files,
/// charging `clock` for the load. Each part is encoded straight from
/// `pairs` through the sorted indices: the input is never copied. Zero
/// parts, a `partition` outside `0..n` and a duplicate key are
/// [`EngineError::Config`].
pub fn load_partitioned<K, V>(
    dfs: &Dfs,
    dir: &str,
    pairs: impl AsRef<[(K, V)]>,
    n: usize,
    partition: impl Fn(&K, usize) -> usize,
    clock: &mut TaskClock,
) -> Result<(), EngineError>
where
    K: Codec + Ord + Debug,
    V: Codec,
{
    let pairs = pairs.as_ref();
    let scratch = route_parts(pairs, n, partition)
        .map_err(|e| EngineError::Config(format!("loading {dir}: {e}")))?;
    let parts = (0..n).map(|p| scratch.encode(pairs, p));
    Ok(write_encoded_parts(dfs, dir, parts, clock)?)
}

/// Rejects a dataset directory that is not split into exactly `n` parts
/// (`rule` says why that many).
fn check_parts(dfs: &Dfs, dir: &str, n: usize, what: &str, rule: &str) -> Result<(), EngineError> {
    let found = num_parts(dfs, dir);
    if found == n {
        return Ok(());
    }
    Err(EngineError::Config(format!(
        "{what} {dir} has {found} parts: it must be pre-partitioned into {rule} = {n} parts"
    )))
}

/// The input check every engine runs before launching pairs, for a job
/// of `phases` phases ([`IterativeJob::phases`](crate::IterativeJob::phases)):
/// the static data has one part per pair and phase and, under one2one,
/// the state one part per pair (one2all state may be split any way —
/// every map loads all of it). A phased job runs one2one, by iteration
/// count, on the map/reduce loop, for whole rounds of phases: each
/// phase's state is only what its reduce produced, so there is no
/// broadcast state, no distance and no delta store across a phase.
pub fn check_inputs(
    dfs: &Dfs,
    cfg: &IterConfig<dyn Mode>,
    phases: usize,
    state_dir: &str,
    static_dir: &str,
) -> Result<(), EngineError> {
    let one2all = cfg
        .mode
        .iterative()
        .is_some_and(|m| m.mapping == Mapping::One2All);
    let refusal = match phases {
        0 => Some("a job needs at least one phase"),
        1 => None,
        _ if cfg.mode.delta().is_some() => Some("accumulative mode runs a single phase"),
        _ if one2all => Some("it needs one2one mapping"),
        _ if cfg.termination.distance_threshold.is_some() => {
            Some("it ends by iteration count, not by a distance threshold")
        }
        _ if !cfg.termination.max_iterations.is_multiple_of(phases) => {
            Some("max_iterations must be a whole number of rounds of phases")
        }
        _ => None,
    };
    if let Some(why) = refusal {
        return Err(EngineError::Config(format!(
            "a job of {phases} phases: {why}"
        )));
    }
    let n = cfg.num_tasks;
    let rule = if phases == 1 {
        "num_tasks"
    } else {
        "phases × num_tasks"
    };
    check_parts(dfs, static_dir, phases * n, "static data", rule)?;
    if !one2all {
        check_parts(dfs, state_dir, n, "one2one state", "num_tasks")?;
    }
    Ok(())
}

/// Persistent tasks hold their slots for the whole run (§3.1.1), so a
/// job needing more pairs than the cluster has pair slots cannot start.
pub(crate) fn check_slots(pairs: usize, capacity: usize) -> Result<(), EngineError> {
    if pairs <= capacity {
        return Ok(());
    }
    Err(EngineError::Config(format!(
        "persistent tasks need dedicated slots: {pairs} pairs > capacity {capacity}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imr_mapreduce::io::{part_path, read_part};
    use imr_records::{is_sorted_by_key, ModPartitioner, Partitioner};
    use imr_simcluster::{ClusterSpec, Metrics, NodeId};
    use std::sync::Arc;

    fn dfs() -> Dfs {
        Dfs::with_block_size(
            Arc::new(ClusterSpec::local(3)),
            Arc::new(Metrics::default()),
            2,
            1 << 16,
        )
    }

    #[test]
    fn partitions_are_sorted_and_disjoint() {
        let pairs: Vec<(u32, u32)> = (0..100).rev().map(|i| (i, i * 2)).collect();
        let parts = partition_sorted(pairs, 4, |k, n| ModPartitioner.partition(k, n)).unwrap();
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 100);
        for (p, part) in parts.iter().enumerate() {
            assert!(is_sorted_by_key(part));
            assert!(part.iter().all(|(k, _)| (*k as usize) % 4 == p));
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let pairs = vec![(1u32, 'a'), (1, 'b')];
        assert!(partition_sorted(pairs, 2, |k, n| ModPartitioner.partition(k, n)).is_err());
    }

    #[test]
    fn a_bad_partition_at_load_time_is_a_config_error() {
        let fs = dfs();
        let mut clock = TaskClock::default();
        let pairs: Vec<(u32, f64)> = (0..20).map(|i| (i, f64::from(i))).collect();
        let err = load_partitioned(
            &fs,
            "/bad",
            pairs.clone(),
            3,
            |k, _| *k as usize % 4,
            &mut clock,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("invalid configuration"), "{err}");
        assert!(err.contains("returned 3 for 3 parts"), "{err}");
        let err = load_partitioned(&fs, "/none", pairs, 0, |k, n| *k as usize % n, &mut clock)
            .unwrap_err()
            .to_string();
        assert!(err.contains("zero parts"), "{err}");
        assert_eq!(num_parts(&fs, "/bad") + num_parts(&fs, "/none"), 0);
    }

    #[test]
    fn load_partitioned_round_trips_by_partition() {
        let fs = dfs();
        let mut clock = TaskClock::default();
        let pairs: Vec<(u32, f64)> = (0..20).map(|i| (i, f64::from(i))).collect();
        load_partitioned(
            &fs,
            "/static",
            pairs,
            3,
            |k, n| ModPartitioner.partition(k, n),
            &mut clock,
        )
        .unwrap();
        let mut total = 0;
        for p in 0..3 {
            let part: Vec<(u32, f64)> =
                read_part(&fs, "/static", p, NodeId(0), &mut clock).unwrap();
            assert!(is_sorted_by_key(&part));
            assert!(part.iter().all(|(k, _)| (*k as usize) % 3 == p));
            total += part.len();
            assert!(fs.len(&part_path("/static", p)).unwrap() > 0);
        }
        assert_eq!(total, 20);
    }
}
