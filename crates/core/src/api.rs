//! The user-facing iMapReduce programming interface (paper §3.5).
//!
//! An iterative algorithm is expressed with three functions, mirroring
//! the paper's API verbatim:
//!
//! * `map(Key, StateValue, StaticValue)` — the framework joins the
//!   iterated *state* record with the locally-held *static* record of
//!   the same key before every map invocation;
//! * `reduce(Key, StateValue)` — consumes only state values and
//!   produces the key's next state. Here it is a fold: [`IterativeJob::fold`]
//!   folds each value into the key's accumulator as the shuffle delivers
//!   it, and [`IterativeJob::finish`] turns the accumulator into the
//!   state;
//! * `distance(Key, PrevState, CurrState)` — the per-key contribution
//!   to the global distance used for threshold-based termination.

pub use imr_mapreduce::Emitter;
use imr_records::{HashPartitioner, Key, Partitioner, Value};

/// How reduce output maps back onto map input (paper §5.1): the default
/// one-to-one correspondence of graph algorithms, or the one-to-all
/// broadcast "K-means-like" algorithms need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mapping {
    /// Each reduce task feeds exactly its paired map task
    /// (`mapred.iterjob.mapping = one2one`).
    #[default]
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

    /// The reduce function, as a left fold: folds `value` into `acc`,
    /// the accumulator of the state values `key` received so far.
    ///
    /// The contract, on both sides of the shuffle: a key's first value
    /// seeds `acc` (it is never folded into an identity), and every later
    /// one is folded in, in order. On the reduce side that order is merge
    /// order — source pair by source pair in task order, each pair's
    /// values in emission order; on the map side of a job with a
    /// combiner it is emission order. `imr-records`' proptests
    /// `shuffle_in_is_group_then_fold` and `fold_table_is_group_then_fold`
    /// hold the kernel to it, bit for bit.
    fn fold(&self, key: &Self::K, acc: &mut Self::S, value: Self::S);

    /// Turns a key's accumulator, once every value is folded in, into
    /// its next state (K-means divides its sum here). Runs on the reduce
    /// side only. Defaults to the accumulator itself.
    fn finish(&self, _key: &Self::K, acc: Self::S) -> Self::S {
        acc
    }

    /// The whole reduce over a materialised list: [`fold`](Self::fold)
    /// in list order, then [`finish`](Self::finish). No engine calls it;
    /// it serves callers that hold a key's values in a `Vec`.
    ///
    /// # Panics
    /// On an empty `values`: a key with no value has no state.
    fn reduce(&self, key: &Self::K, values: Vec<Self::S>) -> Self::S {
        let mut values = values.into_iter();
        let mut acc = values.next().expect("reduce needs at least one value");
        for value in values {
            self.fold(key, &mut acc, value);
        }
        self.finish(key, acc)
    }

    /// Per-key distance between consecutive iterations, accumulated
    /// into the global termination metric (paper `distance()`); only
    /// consulted when the job sets a distance threshold.
    fn distance(&self, _key: &Self::K, _prev: &Self::S, _cur: &Self::S) -> f64 {
        0.0
    }

    /// Whether the map side folds each key's values with
    /// [`fold`](Self::fold) before the shuffle (the paper's
    /// K-means-with-Combiner experiment), so one value per key and map
    /// task crosses it. Off by default: for floating-point state a
    /// map-side fold changes the order of the additions.
    fn has_combiner(&self) -> bool {
        false
    }

    /// Routes keys to the `n` map/reduce task pairs. The same function
    /// partitions the static data at load time and the state shuffle at
    /// run time, which is what makes the local join sound (§3.2.1).
    fn partition(&self, key: &Self::K, n: usize) -> usize {
        HashPartitioner.partition(key, n)
    }

    /// How many map/reduce phases one round of the algorithm chains
    /// (§5.2: matrix power has two). Each phase is one iteration of the
    /// pair loop: iteration `it` maps against phase `(it − 1) mod
    /// phases`'s static data — part `phase · n + q` of the static
    /// directory for pair `q` of `n` — and a phased job's reduce carries
    /// nothing forward and measures no distance, so a phase's state is
    /// exactly what its reduce produced. One by default.
    fn phases(&self) -> usize {
        1
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
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc += v;
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
        assert_eq!(j.finish(&1, 2.0), 2.0);
        assert_eq!(j.distance(&1, &1.0, &2.0), 0.0);
        assert!(j.partition(&7, 4) < 4);
    }
}
