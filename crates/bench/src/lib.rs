//! # imr-bench — the experiment harness
//!
//! Every table and figure of the paper's evaluation (Tables 1–2,
//! Figs. 4–14, 16, 18, 20), plus the Jacobi extra and the design-choice
//! ablation, is one entry of [`EXPERIMENTS`]: its artifact id, its
//! default scale and iteration count, and the function that runs it.
//! The `all` binary runs the table (`--only <id>` runs one entry);
//! each entry prints the paper-style series, annotates
//! measured-vs-paper ratios, and drops `results/<id>.json`. The
//! `trace_timeline` binary draws the §3.3 pipeline from a trace.
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

use experiments::*;
use imr_graph::{
    pagerank_datasets, sssp_datasets,
    Workload::{PageRank, Sssp},
};
use std::path::PathBuf;

/// One entry of the paper's evaluation.
pub struct Experiment {
    /// Artifact id: the entry writes `results/<id>.json`.
    pub id: &'static str,
    /// Default scale factor applied to the paper's data-set sizes.
    pub scale: f64,
    /// Default iteration count.
    pub iters: usize,
    /// Runs the entry as `run(id, scale, iters)`.
    pub run: fn(&str, f64, usize) -> FigureResult,
}

const fn row(
    id: &'static str,
    scale: f64,
    iters: usize,
    run: fn(&str, f64, usize) -> FigureResult,
) -> Experiment {
    Experiment {
        id,
        scale,
        iters,
        run,
    }
}

/// The evaluation in the order `all` runs it: id, default scale,
/// default iteration count, function. Each default is written here
/// and nowhere else. Tables run no iterations; Jacobi's system size
/// is fixed.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    row("table1",   0.01,   0, |id, s, _| table_datasets(id, &sssp_datasets(), s)),
    row("table2",   0.01,   0, |id, s, _| table_datasets(id, &pagerank_datasets(), s)),
    row("fig4",     0.05,  16, |id, s, n| fig_local(id, "DBLP", s, n)),
    row("fig5",     0.02,  16, |id, s, n| fig_local(id, "Facebook", s, n)),
    row("fig6",     0.02,  20, |id, s, n| fig_local(id, "Google", s, n)),
    row("fig7",     0.02,  20, |id, s, n| fig_local(id, "Berk-Stan", s, n)),
    row("fig8",     0.004, 10, |id, s, n| fig_synthetic_sizes(id, Sssp, s, n)),
    row("fig9",     0.004, 10, |id, s, n| fig_synthetic_sizes(id, PageRank, s, n)),
    row("fig10",    0.004, 10, |_, s, n| fig_factors(s, n)),
    row("fig11",    0.002, 10, |_, s, n| fig_comm_cost(s, n)),
    row("fig12",    0.002, 10, |id, s, n| fig_scaling(id, Sssp, s, n)),
    row("fig13",    0.002, 10, |id, s, n| fig_scaling(id, PageRank, s, n)),
    row("fig14",    0.001, 10, |_, s, n| fig_parallel_efficiency(s, n)),
    row("fig16",    0.01,  10, |_, s, n| fig_kmeans(lastfm_sample(s), 24, 10, n)),
    row("fig18",    0.12,   5, |_, s, n| fig_matpower(((1000.0 * s) as usize).max(8), n)),
    row("fig20",    0.005, 12, |_, s, n| fig_kmeans_convergence(lastfm_sample(s), 24, 10, n)),
    row("jacobi",   1.0,   30, |_, _, n| fig_jacobi(2_000, 8, n)),
    row("ablation", 0.02,  12, |_, s, n| ablation(s, n)),
];

/// The flags the harness binaries take, printed after a bad argument.
const USAGE: &str = "[--only <id>] [--scale <f>] [--iters <n>] [--out <dir>]";

/// The harness binaries' command line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchOpts {
    /// Scale factor overriding every entry's default.
    pub scale: Option<f64>,
    /// Iteration count overriding every entry's default.
    pub iters: Option<usize>,
    /// Where `results/` is written (default: current directory).
    pub out_root: PathBuf,
    /// The one [`EXPERIMENTS`] entry to run (default: all of them).
    pub only: Option<String>,
}

impl BenchOpts {
    /// Parses `--scale <f> --iters <n> --out <dir> --only <id>`, the
    /// arguments after the program name. An unknown flag, a missing
    /// or unparsable value, a scale that is not positive and finite,
    /// or an `--only` id not in [`EXPERIMENTS`] is an error.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = BenchOpts {
            scale: None,
            iters: None,
            out_root: PathBuf::from("."),
            only: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    let v = value()?;
                    match v.parse::<f64>() {
                        Ok(s) if s.is_finite() && s > 0.0 => opts.scale = Some(s),
                        _ => return Err(format!("--scale {v:?} is not a positive number")),
                    }
                }
                "--iters" => {
                    let v = value()?;
                    let n = v.parse().ok().filter(|&n: &usize| n > 0);
                    let n = n.ok_or_else(|| format!("--iters {v:?} is not a positive count"))?;
                    opts.iters = Some(n);
                }
                "--out" => opts.out_root = PathBuf::from(value()?),
                "--only" => opts.only = Some(value()?.clone()),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if let Some(id) = &opts.only {
            if !EXPERIMENTS.iter().any(|e| e.id == id) {
                let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
                return Err(format!(
                    "--only {id:?} names no experiment; known ids: {}",
                    known.join(" ")
                ));
            }
        }
        Ok(opts)
    }

    /// Parses the process arguments; on an error, prints it with a
    /// usage line and exits with status 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        Self::parse(args.get(1..).unwrap_or_default()).unwrap_or_else(|e| {
            let prog = args.first().map_or("all", String::as_str);
            eprintln!("{e}\nusage: {prog} {USAGE}");
            std::process::exit(2)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{experiments, BenchOpts, EXPERIMENTS};
    use imr_graph::Workload;
    use std::path::PathBuf;

    fn parse(args: &[&str]) -> Result<BenchOpts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        BenchOpts::parse(&args)
    }

    #[test]
    fn parse_reads_every_flag() {
        let opts = parse(&[
            "--scale", "0.5", "--iters", "3", "--out", "/o", "--only", "fig11",
        ]);
        assert_eq!(
            opts,
            Ok(BenchOpts {
                scale: Some(0.5),
                iters: Some(3),
                out_root: PathBuf::from("/o"),
                only: Some("fig11".into()),
            })
        );
        let none = parse(&[]).unwrap();
        assert_eq!((none.scale, none.iters, none.only), (None, None, None));
    }

    #[test]
    fn parse_refuses_unknown_flags_and_missing_values() {
        assert!(parse(&["--sclae", "0.5"])
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse(&["0.5"]).unwrap_err().contains("unknown argument"));
        for flag in ["--scale", "--iters", "--out", "--only"] {
            let err = parse(&["--iters", "2", flag]).unwrap_err();
            assert!(err.contains("needs a value"), "{flag}: {err}");
        }
    }

    #[test]
    fn parse_refuses_values_that_do_not_parse() {
        for args in [
            ["--scale", "0,5"],
            ["--scale", "-1"],
            ["--scale", "nan"],
            ["--iters", "2.5"],
            ["--iters", "-3"],
            ["--iters", "0"],
        ] {
            let err = parse(&args).unwrap_err();
            assert!(err.starts_with(args[0]), "{args:?}: {err}");
        }
    }

    #[test]
    fn parse_refuses_an_unknown_only_id_and_lists_the_known_ones() {
        let err = parse(&["--only", "fig99"]).unwrap_err();
        for e in EXPERIMENTS {
            assert!(err.contains(e.id), "{err} lacks {}", e.id);
            assert_eq!(
                parse(&["--only", e.id]).unwrap().only.as_deref(),
                Some(e.id)
            );
        }
    }

    /// Smoke-run every experiment at micro scale: the harness must
    /// produce the paper's qualitative shape end to end.
    #[test]
    fn fig4_shape_holds_at_micro_scale() {
        // Large enough that per-iteration work dominates iMapReduce's
        // one-time initialization (as at the paper's full scale).
        let fig = experiments::fig_local("fig4", "DBLP", 0.03, 12);
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
    /// tracing work.
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
    }
}
