//! The user-facing job abstraction of the baseline engine: Hadoop's
//! `Mapper`/`Reducer`/`Combiner` contract.

use imr_records::{HashPartitioner, Key, Partitioner, Value};

/// Collects the key/value pairs a map or reduce function emits.
#[derive(Debug)]
pub struct Emitter<K, V> {
    pairs: Vec<(K, V)>,
}

impl<K, V> Emitter<K, V> {
    /// An empty emitter.
    pub fn new() -> Self {
        Emitter { pairs: Vec::new() }
    }

    /// Emits one pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.pairs.push((key, value));
    }

    /// Number of pairs emitted so far.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Consumes the emitter, returning the emitted pairs in order.
    pub fn into_pairs(self) -> Vec<(K, V)> {
        self.pairs
    }

    /// The emitted pairs in order, for a shuffle that drains them and
    /// leaves the buffer to the next iteration's emits.
    pub fn pairs_mut(&mut self) -> &mut Vec<(K, V)> {
        &mut self.pairs
    }
}

impl<K, V> Default for Emitter<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A classic MapReduce job: `map: (InK, InV) → [(MidK, MidV)]`,
/// `reduce: (MidK, [MidV]) → [(OutK, OutV)]`, with an optional
/// map-side combiner.
///
/// Implementations hold only configuration (they are shared across
/// simulated tasks), so `&self` methods must be pure with respect to
/// the job state.
pub trait MrJob: Send + Sync {
    /// Map input key.
    type InK: Key;
    /// Map input value.
    type InV: Value;
    /// Intermediate (shuffle) key.
    type MidK: Key;
    /// Intermediate (shuffle) value.
    type MidV: Value;
    /// Reduce output key.
    type OutK: Key;
    /// Reduce output value.
    type OutV: Value;

    /// The map function, applied to each input record.
    fn map(&self, key: &Self::InK, value: &Self::InV, out: &mut Emitter<Self::MidK, Self::MidV>);

    /// The reduce function, applied to each intermediate key group.
    fn reduce(
        &self,
        key: &Self::MidK,
        values: Vec<Self::MidV>,
        out: &mut Emitter<Self::OutK, Self::OutV>,
    );

    /// Whether the map side runs the combiner before shuffling.
    fn has_combiner(&self) -> bool {
        false
    }

    /// Map-side combiner (Hadoop `Combiner`) as a left fold: folds
    /// `value` into `acc`, the key's accumulator in this map task. The
    /// key's first value seeds `acc`; every later one is folded in, in
    /// emission order, and one value per key and map task is shuffled
    /// (the contract `IterativeJob::fold` states and
    /// `imr_records::FoldTable` implements). Only called when
    /// [`has_combiner`](MrJob::has_combiner) is true.
    ///
    /// # Panics
    /// The default panics: a job that turns the combiner on must say how
    /// it folds.
    fn combine(&self, _key: &Self::MidK, _acc: &mut Self::MidV, _value: Self::MidV) {
        unimplemented!("has_combiner() is true but combine() is not implemented")
    }

    /// Routes an intermediate key to one of `n` reduce partitions.
    /// Defaults to deterministic hash partitioning.
    fn partition(&self, key: &Self::MidK, n: usize) -> usize {
        HashPartitioner.partition(key, n)
    }
}

/// Per-job engine configuration (a slice of Hadoop's `JobConf`).
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Job name, used in DFS paths and reports.
    pub name: String,
    /// Number of reduce tasks (and thus output partitions).
    pub num_reduces: usize,
    /// Bytes of side input (Hadoop distributed cache) each map task
    /// loads at start — e.g. the current centroid file in the baseline
    /// K-means implementation. Charged as a remote DFS read per task.
    pub side_input_bytes: u64,
}

impl JobConfig {
    /// A config with the given name and reduce count.
    pub fn new(name: impl Into<String>, num_reduces: usize) -> Self {
        assert!(num_reduces > 0, "a job needs at least one reduce task");
        JobConfig {
            name: name.into(),
            num_reduces,
            side_input_bytes: 0,
        }
    }

    /// Sets the per-map-task side-input (distributed cache) size.
    pub fn with_side_input_bytes(mut self, bytes: u64) -> Self {
        self.side_input_bytes = bytes;
        self
    }
}

/// Per-job counter totals reported after a run (Hadoop job counters).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JobCounters {
    /// Records read by all map tasks.
    pub map_input_records: u64,
    /// Records emitted by all map tasks (before combining).
    pub map_output_records: u64,
    /// Records shipped to reducers (after combining).
    pub shuffle_records: u64,
    /// Key groups processed by all reduce tasks.
    pub reduce_input_groups: u64,
    /// Records emitted by all reduce tasks.
    pub reduce_output_records: u64,
    /// Bytes of encoded map output shuffled.
    pub shuffle_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    struct WordCount;
    impl MrJob for WordCount {
        type InK = u32;
        type InV = String;
        type MidK = String;
        type MidV = u64;
        type OutK = String;
        type OutV = u64;

        fn map(&self, _k: &u32, line: &String, out: &mut Emitter<String, u64>) {
            for word in line.split_whitespace() {
                out.emit(word.to_owned(), 1);
            }
        }

        fn reduce(&self, key: &String, values: Vec<u64>, out: &mut Emitter<String, u64>) {
            out.emit(key.clone(), values.into_iter().sum());
        }

        fn has_combiner(&self) -> bool {
            true
        }

        fn combine(&self, _key: &String, acc: &mut u64, v: u64) {
            *acc += v;
        }
    }

    #[test]
    fn emitter_collects_in_order() {
        let mut e = Emitter::new();
        assert!(e.is_empty());
        WordCount.map(&0, &"a b a".to_string(), &mut e);
        assert_eq!(e.len(), 3);
        assert_eq!(
            e.into_pairs(),
            vec![("a".into(), 1), ("b".into(), 1), ("a".into(), 1)]
        );
    }

    #[test]
    fn combiner_contract() {
        assert!(WordCount.has_combiner());
        let mut acc = 1;
        for v in [1, 1] {
            WordCount.combine(&"a".into(), &mut acc, v);
        }
        assert_eq!(acc, 3);
    }

    #[test]
    fn default_partition_is_stable_and_bounded() {
        let p1 = WordCount.partition(&"hello".to_string(), 7);
        let p2 = WordCount.partition(&"hello".to_string(), 7);
        assert_eq!(p1, p2);
        assert!(p1 < 7);
    }

    #[test]
    #[should_panic(expected = "at least one reduce")]
    fn zero_reduces_rejected() {
        let _ = JobConfig::new("bad", 0);
    }
}
