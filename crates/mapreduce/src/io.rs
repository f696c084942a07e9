//! Part-file conventions over the DFS.
//!
//! A dataset is a directory of part files (`<dir>/part-00000`, …), one
//! per task that produced it — exactly Hadoop's output layout. Each part
//! is a contiguous segment of encoded key/value pairs.

use crate::EngineError;
use bytes::Bytes;
use imr_dfs::{Dfs, DfsError};
use imr_records::{decode_pairs, encode_pairs, Codec};
use imr_simcluster::{NodeId, TaskClock};
use std::ops::Range;

/// The DFS path of part `i` inside `dir`.
pub fn part_path(dir: &str, i: usize) -> String {
    format!("{}/part-{:05}", dir.trim_end_matches('/'), i)
}

/// Number of parts in a dataset directory.
pub fn num_parts(dfs: &Dfs, dir: &str) -> usize {
    let prefix = format!("{}/part-", dir.trim_end_matches('/'));
    dfs.list(&prefix).len()
}

/// Writes `parts[i]` as part `i` of `dir`: [`write_encoded_parts`] of
/// their encodings.
pub fn write_parts<K: Codec, V: Codec>(
    dfs: &Dfs,
    dir: &str,
    parts: &[Vec<(K, V)>],
    clock: &mut TaskClock,
) -> Result<(), DfsError> {
    write_encoded_parts(dfs, dir, parts.iter().map(|part| encode_pairs(part)), clock)
}

/// Writes the `i`-th encoded segment of `parts` as part `i` of `dir`,
/// spreading the writes round-robin over the cluster nodes (as a
/// distributed loader would). Each segment is taken as it is written,
/// so a lazy `parts` holds one encoding at a time. Charges the provided
/// clock for the slowest node's writes, which is when the dataset is
/// fully available.
pub fn write_encoded_parts(
    dfs: &Dfs,
    dir: &str,
    parts: impl IntoIterator<Item = Bytes>,
    clock: &mut TaskClock,
) -> Result<(), DfsError> {
    let n = dfs.cluster().len();
    let mut node_clocks: Vec<TaskClock> = vec![TaskClock::starting_at(clock.now()); n];
    for (i, payload) in parts.into_iter().enumerate() {
        let node = NodeId((i % n) as u32);
        dfs.write(
            &part_path(dir, i),
            payload,
            node,
            &mut node_clocks[node.index()],
        )?;
    }
    clock.barrier(node_clocks.iter().map(|c| c.now()));
    Ok(())
}

/// Reads and decodes one part. The read is charged to `clock` from the
/// perspective of `reader`. A part that does not decode is
/// [`EngineError::Codec`], as on the native engines: its blocks were
/// read, so nothing was lost.
pub fn read_part<K: Codec, V: Codec>(
    dfs: &Dfs,
    dir: &str,
    i: usize,
    reader: NodeId,
    clock: &mut TaskClock,
) -> Result<Vec<(K, V)>, EngineError> {
    let raw: Bytes = dfs.read(&part_path(dir, i), reader, clock)?;
    Ok(decode_pairs(raw)?)
}

/// Reads every part of a dataset into one vector (small datasets,
/// verification, and driver-side aggregation).
pub fn read_all<K: Codec, V: Codec>(
    dfs: &Dfs,
    dir: &str,
    reader: NodeId,
    clock: &mut TaskClock,
) -> Result<Vec<(K, V)>, EngineError> {
    let mut out = Vec::new();
    for i in 0..num_parts(dfs, dir) {
        out.extend(read_part(dfs, dir, i, reader, clock)?);
    }
    Ok(out)
}

/// Deletes all parts of a dataset directory (ignores absent parts).
pub fn delete_dir(dfs: &Dfs, dir: &str) {
    let prefix = format!("{}/", dir.trim_end_matches('/'));
    for path in dfs.list(&prefix) {
        let _ = dfs.delete(&path);
    }
}

/// The index ranges of `n` parts of `len` contiguous records — the
/// layout a sequential loader produces (keys are *not* co-partitioned):
/// chunks of `⌈len / n⌉` (at least one), trailing parts empty.
pub(crate) fn contiguous_ranges(len: usize, n: usize) -> impl Iterator<Item = Range<usize>> {
    let per = len.div_ceil(n.max(1)).max(1);
    (0..n).map(move |i| (i * per).min(len)..((i + 1) * per).min(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imr_simcluster::{ClusterSpec, Metrics};
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
    fn parts_round_trip() {
        let fs = dfs();
        let mut clock = TaskClock::default();
        let parts: Vec<Vec<(u32, f64)>> = vec![vec![(1, 1.0), (2, 2.0)], vec![(3, 3.0)], vec![]];
        write_parts(&fs, "/data/in", &parts, &mut clock).unwrap();
        assert_eq!(num_parts(&fs, "/data/in"), 3);
        let mut rc = TaskClock::default();
        for (i, expected) in parts.iter().enumerate() {
            let got: Vec<(u32, f64)> = read_part(&fs, "/data/in", i, NodeId(0), &mut rc).unwrap();
            assert_eq!(&got, expected);
        }
        let all: Vec<(u32, f64)> = read_all(&fs, "/data/in", NodeId(1), &mut rc).unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn delete_dir_removes_every_part() {
        let fs = dfs();
        let mut clock = TaskClock::default();
        let parts: Vec<Vec<(u32, u32)>> = vec![vec![(1, 1)], vec![(2, 2)]];
        write_parts(&fs, "/tmp/x", &parts, &mut clock).unwrap();
        delete_dir(&fs, "/tmp/x");
        assert_eq!(num_parts(&fs, "/tmp/x"), 0);
    }

    #[test]
    fn part_paths_are_zero_padded_and_sorted() {
        assert_eq!(part_path("/d", 0), "/d/part-00000");
        assert_eq!(part_path("/d/", 12), "/d/part-00012");
        assert!(part_path("/d", 2) < part_path("/d", 10));
    }
}
