//! # imr-bench — the experiment harness
//!
//! One binary per table/figure of the paper (`table1`, `table2`,
//! `fig4` … `fig14`, `fig16`, `fig18`, `fig20`, and `all`), plus
//! `ablation` and `trace_timeline`. Each prints the paper-style series,
//! annotates measured-vs-paper ratios, and drops a JSON artifact under
//! `results/`.
//!
//! Everything runs on the deterministic virtual-time cluster; real
//! seconds on the host are unrelated to the reported virtual seconds
//! and are measured elsewhere — by `benchmark/` at the repository root,
//! and only there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod result;

pub use result::{report_metrics, FigureResult, Series};

use std::path::PathBuf;

/// Minimal CLI options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Scale factor applied to the paper's dataset sizes.
    pub scale: Option<f64>,
    /// Iteration override.
    pub iters: Option<usize>,
    /// Where `results/` is written (default: current directory).
    pub out_root: PathBuf,
}

impl BenchOpts {
    /// Parses `--scale <f>` and `--iters <n>` from `std::env::args`.
    pub fn from_args() -> Self {
        let mut opts = BenchOpts {
            scale: None,
            iters: None,
            out_root: PathBuf::from("."),
        };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    opts.scale = args.get(i + 1).and_then(|s| s.parse().ok());
                    i += 2;
                }
                "--iters" => {
                    opts.iters = args.get(i + 1).and_then(|s| s.parse().ok());
                    i += 2;
                }
                "--out" => {
                    if let Some(p) = args.get(i + 1) {
                        opts.out_root = PathBuf::from(p);
                    }
                    i += 2;
                }
                _ => i += 1,
            }
        }
        opts
    }

    /// The scale to use, falling back to the figure's default.
    pub fn scale_or(&self, default: f64) -> f64 {
        self.scale.unwrap_or(default)
    }

    /// The iteration count to use, falling back to the default.
    pub fn iters_or(&self, default: usize) -> usize {
        self.iters.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::experiments;
    use imr_graph::Workload;

    /// Smoke-run every experiment at micro scale: the harness must
    /// produce the paper's qualitative shape end to end.
    #[test]
    fn fig4_shape_holds_at_micro_scale() {
        // Large enough that per-iteration work dominates iMapReduce's
        // one-time initialization (as at the paper's full scale).
        let fig = experiments::fig_sssp_local("fig4", "DBLP", 0.03, 12);
        assert_eq!(fig.series.len(), 4);
        let last = |label: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label)
                .map(|s| s.points.last().unwrap().1)
                .unwrap()
        };
        let mr = last("MapReduce");
        let ex = last("MapReduce (ex. init.)");
        let sync = last("iMapReduce (sync.)");
        let imr = last("iMapReduce");
        assert!(mr > ex, "init overhead must cost time");
        assert!(ex > sync, "static shuffle avoidance must cost time");
        assert!(sync >= imr, "async must not slow things down");
        assert!(mr / imr > 1.4, "headline speedup missing: {}", mr / imr);
    }

    #[test]
    fn fig9_ratio_ordering_matches_paper() {
        let fig = experiments::fig_synthetic_sizes("fig9", Workload::PageRank, 0.001, 3);
        assert_eq!(fig.series.len(), 2);
        let mr = &fig.series[0].points;
        let imr = &fig.series[1].points;
        for (a, b) in mr.iter().zip(imr) {
            assert!(b.1 < a.1, "iMapReduce slower at x={}", a.0);
        }
    }

    #[test]
    fn fig11_communication_is_cut_hard() {
        let fig = experiments::fig_comm_cost(0.0005, 3);
        let mr = &fig.series[0].points;
        let imr = &fig.series[1].points;
        for (a, b) in mr.iter().zip(imr) {
            // Paper: ~12%. Our binary varint adjacency encoding narrows
            // the static/dynamic byte gap vs 2011 Hadoop's on-wire
            // format, so the reduction is ~17% (SSSP) and ~45%
            // (PageRank) — still a hard cut, asserted here.
            let ratio = b.1 / a.1;
            assert!(
                ratio < 0.55,
                "communication ratio {ratio} too high at x={}",
                a.0
            );
        }
    }

    #[test]
    fn fig14_efficiency_favors_imapreduce() {
        let fig = experiments::fig_parallel_efficiency(0.0005, 3);
        assert_eq!(fig.series.len(), 4);
        for pair in fig.series.chunks(2) {
            for (a, b) in pair[0].points.iter().zip(&pair[1].points) {
                assert!(b.1 > a.1, "iMapReduce efficiency not higher at n={}", a.0);
            }
        }
    }

    #[test]
    fn fig18_and_fig20_run_at_micro_scale() {
        let f18 = experiments::fig_matpower(10, 2);
        assert_eq!(f18.series.len(), 2);
        let f20 = experiments::fig_kmeans_convergence(120, 3, 3, 12);
        assert_eq!(f20.series.len(), 2);
        // The auxiliary phase must beat the extra sequential job.
        let mr = f20.series[0].points.last().unwrap().1;
        let imr = f20.series[1].points.last().unwrap().1;
        assert!(imr < mr);
    }

    #[test]
    fn tables_render_rows() {
        let fig = experiments::table_datasets("table1", &imr_graph::sssp_datasets(), 0.0005);
        assert_eq!(fig.notes.len(), 7);
        assert!(fig.notes[0].contains("DBLP"));
        assert!(fig.notes[5].contains("fault counters"));
        assert!(fig.notes[6].contains("counters ["));
    }

    /// Every figure artifact carries the uniform fault-counter note
    /// (migrations / stalls_detected / recoveries), satellite of the
    /// tracing work: the note must survive the JSON round-trip.
    #[test]
    fn figures_carry_fault_counter_note() {
        let fig = experiments::fig_matpower(8, 2);
        let note = fig
            .notes
            .iter()
            .find(|n| n.contains("fault counters"))
            .expect("fault counter note");
        assert!(note.contains("migrations=") && note.contains("recoveries="));
        assert!(note.contains("corrupt_frames=") && note.contains("reconnect_attempts="));
        assert!(note.contains("retries_exhausted="));
        assert!(note.contains("chaos_injections=") && note.contains("hellos_rejected="));
        let back = crate::FigureResult::from_json_str(&fig.to_json().to_string_pretty()).unwrap();
        assert!(back.notes.iter().any(|n| n.contains("stalls_detected=")));
    }
}
