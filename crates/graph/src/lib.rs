//! # imr-graph — graph types, generators, and the paper's data sets
//!
//! * [`Graph`] — CSR-backed directed graphs, weighted or not;
//! * [`gen`] — log-normal synthetic generation with the paper's §4.1.2
//!   parameters (plus K-means point clouds and dense matrices for the
//!   §5 experiments);
//! * [`catalog`] — the ten data-set rows of Tables 1 and 2,
//!   regenerable at any scale.
//!
//! Graphs are generated in memory and reach the engines as record
//! parts on the DFS; no text format is read or written.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod gen;
mod types;

pub use catalog::{dataset, pagerank_datasets, sssp_datasets, DatasetSpec, Workload};
pub use gen::{
    degree_sequence, generate_graph, generate_matrix, generate_points, generate_weighted_graph,
    pagerank_degree_dist, sssp_degree_dist, sssp_weight_dist, LogNormal,
};
pub use types::Graph;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Generated graphs are structurally sound for any seed.
        #[test]
        fn generated_graphs_are_sound(seed in any::<u64>(), n in 10usize..200, avg in 1u64..6) {
            let g = generate_graph(n, n as u64 * avg, pagerank_degree_dist(), seed);
            prop_assert_eq!(g.num_nodes(), n);
            for u in 0..n as u32 {
                let nbrs = g.neighbors(u);
                prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted/dup");
                prop_assert!(!nbrs.contains(&u), "self loop");
                prop_assert!(nbrs.iter().all(|&t| (t as usize) < n), "target oob");
            }
        }

        /// Degree sequences always sum to the requested edge budget
        /// when it is feasible.
        #[test]
        fn degree_sequence_total(seed in any::<u64>(), n in 10usize..300) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let target = (n as u64) * 3;
            let deg = degree_sequence(n, sssp_degree_dist(), target, &mut rng);
            let total: u64 = deg.iter().map(|&d| u64::from(d)).sum();
            prop_assert_eq!(total, target);
        }
    }
}
