//! The user-facing iMapReduce programming interface (paper §3.5).
//!
//! An iterative algorithm is expressed with three functions, mirroring
//! the paper's API verbatim:
//!
//! * `map(Key, StateValue, StaticValue)` — the framework joins the
//!   iterated *state* record with the locally-held *static* record of
//!   the same key before every map invocation;
//! * `reduce(Key, StateValue)` — consumes only state values and
//!   produces the key's next state;
//! * `distance(Key, PrevState, CurrState)` — the per-key contribution
//!   to the global distance used for threshold-based termination.

pub use imr_mapreduce::Emitter;
use imr_records::{HashPartitioner, Key, Partitioner, Value};

/// How reduce output maps back onto map input (paper §5.1): the default
/// one-to-one correspondence of graph algorithms, or the one-to-all
/// broadcast "K-means-like" algorithms need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mapping {
    /// Each reduce task feeds exactly its paired map task
    /// (`mapred.iterjob.mapping = one2one`).
    One2One,
    /// Every reduce task broadcasts its output to all map tasks
    /// (`mapred.iterjob.mapping = one2all`). Forces synchronous maps.
    One2All,
}

/// The state the framework hands to a map invocation.
///
/// Under [`Mapping::One2One`] this is the single state record joined
/// with the key's static record; under [`Mapping::One2All`] it is the
/// full list of broadcast state records (e.g. all cluster centroids),
/// matching the paper's extension of `StateValue` to a list.
#[derive(Debug, Clone, Copy)]
pub enum StateInput<'a, K, S> {
    /// The key's own current state.
    One(&'a S),
    /// All keys' current states, sorted by key.
    All(&'a [(K, S)]),
}

impl<'a, K, S> StateInput<'a, K, S> {
    /// The single state under one2one mapping; panics under one2all
    /// (a programming error in the job: it declared the wrong mapping).
    pub fn one(&self) -> &'a S {
        match self {
            StateInput::One(s) => s,
            StateInput::All(_) => panic!("job declared one2all mapping but read a single state"),
        }
    }

    /// The broadcast state list under one2all mapping; panics under
    /// one2one.
    pub fn all(&self) -> &'a [(K, S)] {
        match self {
            StateInput::All(list) => list,
            StateInput::One(_) => panic!("job declared one2one mapping but read the state list"),
        }
    }
}

/// An iterative algorithm in iMapReduce's model.
///
/// `K` is the shared key space of state and static data (node id), `S`
/// the iterated state value, `T` the static value joined in at map
/// time.
pub trait IterativeJob: Send + Sync {
    /// Key type shared by state and static data.
    type K: Key;
    /// The iterated state value.
    type S: Value;
    /// The static value (adjacency list, link weights, coordinates).
    type T: Value;

    /// The map function. Emits `(key, state)` pairs that are shuffled
    /// to reduce tasks by [`partition`](IterativeJob::partition).
    fn map(
        &self,
        key: &Self::K,
        state: StateInput<'_, Self::K, Self::S>,
        stat: &Self::T,
        out: &mut Emitter<Self::K, Self::S>,
    );

    /// The reduce function: folds the shuffled state values for `key`
    /// into the key's next state.
    fn reduce(&self, key: &Self::K, values: Vec<Self::S>) -> Self::S;

    /// Per-key distance between consecutive iterations, accumulated
    /// into the global termination metric (paper `distance()`); only
    /// consulted when the job sets a distance threshold.
    fn distance(&self, _key: &Self::K, _prev: &Self::S, _cur: &Self::S) -> f64 {
        0.0
    }

    /// Whether a map-side combiner runs before the shuffle (used by the
    /// paper's K-means-with-Combiner experiment).
    fn has_combiner(&self) -> bool {
        false
    }

    /// The map-side combiner: a partial reduce of one key's values.
    ///
    /// It may run any number of times per key and map task, each time
    /// on consecutive values of the key in emission order, the key's
    /// previous combine output first; what it returns for the last run
    /// is shuffled. The map side combines as the map emits (a run is
    /// combined once it holds 64 values, or twice its previous output),
    /// so no buffer of the whole map output exists. A left fold — every
    /// combiner shipped here — gives the bit-identical result of one call
    /// on all of the key's values (`imr-records`'
    /// `combine_runs_is_group_then_combine` holds it).
    fn combine(&self, _key: &Self::K, values: Vec<Self::S>) -> Vec<Self::S> {
        values
    }

    /// Routes keys to the `n` map/reduce task pairs. The same function
    /// partitions the static data at load time and the state shuffle at
    /// run time, which is what makes the local join sound (§3.2.1).
    fn partition(&self, key: &Self::K, n: usize) -> usize {
        HashPartitioner.partition(key, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;
    impl IterativeJob for Noop {
        type K = u32;
        type S = f64;
        type T = u32;
        fn map(
            &self,
            k: &u32,
            state: StateInput<'_, u32, f64>,
            _t: &u32,
            out: &mut Emitter<u32, f64>,
        ) {
            out.emit(*k, *state.one());
        }
        fn reduce(&self, _k: &u32, values: Vec<f64>) -> f64 {
            values.into_iter().sum()
        }
    }

    #[test]
    fn state_input_accessors() {
        let s = 1.5f64;
        let one = StateInput::<u32, f64>::One(&s);
        assert_eq!(*one.one(), 1.5);
        let list = vec![(1u32, 2.0f64)];
        let all = StateInput::All(&list);
        assert_eq!(all.all().len(), 1);
    }

    #[test]
    #[should_panic(expected = "one2all")]
    fn reading_one_from_all_panics() {
        let list: Vec<(u32, f64)> = vec![];
        let all = StateInput::All(&list);
        let _ = all.one();
    }

    #[test]
    #[should_panic(expected = "one2one")]
    fn reading_all_from_one_panics() {
        let s = 0.0f64;
        let one = StateInput::<u32, f64>::One(&s);
        let _ = one.all();
    }

    #[test]
    fn defaults_are_inert() {
        let j = Noop;
        assert!(!j.has_combiner());
        assert_eq!(j.combine(&1, vec![1.0, 2.0]), vec![1.0, 2.0]);
        assert_eq!(j.distance(&1, &1.0, &2.0), 0.0);
        assert!(j.partition(&7, 4) < 4);
    }
}
