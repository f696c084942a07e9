//! # imr-algorithms — the paper's evaluated workloads on both engines
//!
//! Every algorithm the paper measures, each in three forms:
//!
//! 1. an **iMapReduce** job ([`imapreduce::IterativeJob`], matrix
//!    power's of two phases),
//! 2. a **baseline Hadoop** implementation
//!    ([`imr_mapreduce::MrJob`] chains, with the exact inefficiencies
//!    §2.2 describes — bundled state+static values, per-iteration jobs,
//!    separate termination-check jobs, distributed-cache side inputs),
//! 3. a **sequential reference** used by the tests to verify both
//!    engines bit-for-bit (or within float-summation tolerance).
//!
//! | Module | Algorithm | Paper section | Mapping |
//! |---|---|---|---|
//! | [`sssp`] | Single-Source Shortest Path | §2.1.1, Figs. 4–5, 8, 12 | one2one, async |
//! | [`pagerank`] | PageRank | §2.1.2, Figs. 6–7, 9, 13 | one2one, async |
//! | [`kmeans`] | K-means (+Combiner, +aux detection) | §5.1, §5.3, Figs. 16, 20 | one2all, sync |
//! | [`matpower`] | Matrix power | §5.2, Fig. 18 | one2one, two phases |
//! | [`jacobi`] | Jacobi iteration | §5.1 | one2all, sync |
//! | [`concomp`] | Connected components (HashMin) | §2.2's graph class | one2one, async |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concomp;
pub mod incremental;
pub mod jacobi;
pub mod kmeans;
pub mod matpower;
pub mod pagerank;
pub mod sssp;
pub mod testutil;

#[cfg(test)]
mod proptests {
    use crate::testutil::{imr_runner, mr_runner};
    use crate::{concomp, pagerank, sssp};
    use imapreduce::{IterConfig, IterativeJob};
    use imr_graph::{
        generate_graph, generate_weighted_graph, pagerank_degree_dist, sssp_degree_dist,
        sssp_weight_dist,
    };
    use proptest::prelude::*;

    /// A float from raw bits, or one of the values a fold must not
    /// mistreat: ±0, ±∞ and NaN.
    fn float(pick: u8, bits: u64) -> f64 {
        match pick % 8 {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            _ => f64::from_bits(bits),
        }
    }

    /// Folds `b` into `a` with the job's `fold`.
    fn fold<J: IterativeJob<K = u32>>(job: &J, mut a: J::S, b: J::S) -> J::S {
        job.fold(&0, &mut a, b);
        a
    }

    proptest! {
        /// ⊕ is the fold: for each accumulative job, folding `b` into
        /// `a` gives the operator its doc names — PageRank `+`, SSSP
        /// `f64::min`, connected components `u32::min` — bit for bit,
        /// signed zeros, infinities and NaN included. This is what lets
        /// the delta round fold with `fold`.
        #[test]
        fn fold_is_the_accumulative_oplus(
            (pa, a) in (any::<u8>(), any::<u64>()),
            (pb, b) in (any::<u8>(), any::<u64>()),
        ) {
            let (a, b) = (float(pa, a), float(pb, b));
            let pr = pagerank::PageRankIter::new(100);
            prop_assert_eq!(fold(&pr, a, b).to_bits(), (a + b).to_bits());
            let sp = sssp::SsspIter;
            prop_assert_eq!(fold(&sp, a, b).to_bits(), f64::min(a, b).to_bits());
            let inc = sssp::SsspInc { source: 0 };
            prop_assert_eq!(fold(&inc, a, b).to_bits(), f64::min(a, b).to_bits());
            let (la, lb) = (a.to_bits() as u32, b.to_bits() as u32);
            let cc = concomp::ConCompIter;
            prop_assert_eq!(fold(&cc, la, lb), u32::min(la, lb));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Engine equivalence on random weighted graphs: the
        /// iMapReduce SSSP result equals the synchronous reference for
        /// any seed/size/iteration count.
        #[test]
        fn sssp_engine_equivalence(seed in any::<u64>(), n in 20usize..80, iters in 1usize..5) {
            let g = generate_weighted_graph(n, n as u64 * 4, sssp_degree_dist(), sssp_weight_dist(), seed);
            let r = imr_runner(3);
            let cfg = IterConfig::new("sssp", 3, iters);
            let out = sssp::run_sssp_imr(&r, &g, 0, &cfg).unwrap();
            let expect = sssp::reference_sssp_rounds(&g, 0, iters);
            for (k, d) in &out.final_state {
                let e = expect[*k as usize];
                prop_assert!((d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()));
            }
        }

        /// PageRank: both engines agree with the reference on random
        /// graphs.
        #[test]
        fn pagerank_engine_equivalence(seed in any::<u64>(), n in 20usize..60) {
            let g = generate_graph(n, n as u64 * 3, pagerank_degree_dist(), seed);
            let iters = 4;
            let r = imr_runner(2);
            let cfg = IterConfig::new("pr", 2, iters);
            let a = pagerank::run_pagerank_imr(&r, &g, &cfg).unwrap();
            let expect = pagerank::reference_pagerank(&g, 0.85, iters);
            for (k, v) in &a.final_state {
                prop_assert!((v - expect[*k as usize]).abs() < 1e-12);
            }
            let mr = mr_runner(2);
            let b = pagerank::run_pagerank_mr(&mr, &g, 2, iters, None).unwrap();
            prop_assert!(a.report.finished < b.report.finished);
        }
    }
}
