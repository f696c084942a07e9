//! The telemetry pipeline end to end: sampled series are
//! bit-reproducible on the virtual-time engine, every engine agrees on
//! the cumulative per-phase observation counts, and a kill/rollback
//! leaves exactly one generation gap in each worker's series.

use imapreduce::{FaultEvent, IterConfig, IterEngine};
use imr_algorithms::sssp::{self, SsspIter};
use imr_algorithms::testutil::{imr_runner, native_runner, tcp_runner};
use imr_graph::dataset;
use imr_simcluster::NodeId;
use imr_telemetry::{Phase, Sample, Telemetry, TelemetryHandle};
use std::sync::Arc;

fn handle() -> TelemetryHandle {
    Arc::new(Telemetry::default())
}

/// Virtual-time stamps make the sim series part of the deterministic
/// contract: two identical runs must produce bit-identical samples and
/// histograms, not merely similar ones.
#[test]
fn sim_sampled_series_is_bit_identical_across_runs() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let cfg = IterConfig::new("sssp", 4, 6)
        .with_sync_maps()
        .with_checkpoint_interval(2);
    let mut runs = Vec::new();
    for _ in 0..2 {
        let tel = handle();
        let r = imr_runner(4).with_telemetry(Arc::clone(&tel));
        sssp::run_sssp_imr(&r, &g, 0, &cfg).unwrap();
        runs.push((tel.samples(), tel.hist_snapshots()));
    }
    assert_eq!(runs[0].0.len(), 4 * 6, "one sample per pair per iteration");
    assert_eq!(runs[0].0, runs[1].0, "sampled series must be bit-identical");
    assert_eq!(runs[0].1, runs[1].1, "histograms must be bit-identical");
    // Checkpoint interval 2 over 6 iterations: the checkpoint phase was
    // actually observed, not just defined.
    assert!(runs[0].1[Phase::CheckpointWrite.index()].count() > 0);
}

/// All three engines agree on the cumulative values the pipeline
/// defines per run: one sample and one map/reduce observation per pair
/// per iteration, counters nondecreasing along every worker's series.
#[test]
fn engines_agree_on_cumulative_phase_counts() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let cfg = IterConfig::new("sssp", 4, 6)
        .with_sync_maps()
        .with_checkpoint_interval(2);

    let sim_tel = handle();
    let sim = imr_runner(4).with_telemetry(Arc::clone(&sim_tel));
    sssp::run_sssp_imr(&sim, &g, 0, &cfg).unwrap();

    let chan_tel = handle();
    let chan = native_runner(4).with_telemetry(Arc::clone(&chan_tel));
    sssp::run_sssp_imr(&chan, &g, 0, &cfg).unwrap();

    let tcp_tel = handle();
    let tcp = tcp_runner(4, env!("CARGO_BIN_EXE_imr-worker"), &["sssp"])
        .with_telemetry(Arc::clone(&tcp_tel));
    sssp::run_sssp_imr(&tcp, &g, 0, &cfg).unwrap();

    for (label, tel) in [("sim", &sim_tel), ("channel", &chan_tel), ("tcp", &tcp_tel)] {
        let samples = tel.samples();
        assert_eq!(samples.len(), 4 * 6, "{label}: samples = pairs x iters");
        let hists = tel.hist_snapshots();
        assert_eq!(hists[Phase::Map.index()].count(), 4 * 6, "{label}: map");
        assert_eq!(
            hists[Phase::Reduce.index()].count(),
            4 * 6,
            "{label}: reduce"
        );
        assert_eq!(hists[Phase::Handoff.index()].count(), 4 * 6, "{label}");
        let workers: std::collections::BTreeSet<u32> = samples.iter().map(|s| s.worker).collect();
        assert_eq!(workers.len(), 4, "{label}: every pair sampled");
        let max_iter = samples.iter().map(|s| s.iteration).max().unwrap();
        assert_eq!(max_iter, 6, "{label}: final iteration (1-based)");
        assert_monotone_counters(label, &samples);
        assert_eq!(tel.dropped_samples(), 0, "{label}: ring never overflowed");
    }
}

/// Counters are cumulative registry snapshots: along any one worker's
/// time-ordered series every counter column must be nondecreasing.
fn assert_monotone_counters(label: &str, samples: &[Sample]) {
    let workers: std::collections::BTreeSet<u32> = samples.iter().map(|s| s.worker).collect();
    for w in workers {
        let series: Vec<&Sample> = samples.iter().filter(|s| s.worker == w).collect();
        for pair in series.windows(2) {
            for (i, (a, b)) in pair[0].counters.iter().zip(&pair[1].counters).enumerate() {
                assert!(
                    b >= a,
                    "{label}: worker {w} counter {i} regressed ({a} -> {b})"
                );
            }
        }
    }
}

/// A scripted kill rolls every pair back to the last checkpoint in a
/// new generation: each worker's time-ordered series must show exactly
/// one generation transition (the gap), on both in-process engines.
#[test]
fn kill_rollback_leaves_exactly_one_generation_gap() {
    let g = dataset("DBLP").unwrap().generate(0.005);
    let cfg = IterConfig::new("sssp", 4, 6).with_checkpoint_interval(2);
    let failures = [FaultEvent::Kill {
        node: NodeId(0),
        at_iteration: 3,
    }];

    let runs: Vec<(&str, TelemetryHandle)> = vec![
        ("sim", {
            let tel = handle();
            let r = imr_runner(4).with_telemetry(Arc::clone(&tel));
            sssp::load_sssp_imr(&r, &g, 0, 4, "/s", "/t").unwrap();
            r.run_faults(&SsspIter, &cfg, "/s", "/t", "/o", &failures)
                .unwrap();
            tel
        }),
        ("native", {
            let tel = handle();
            let r = native_runner(4).with_telemetry(Arc::clone(&tel));
            sssp::load_sssp_imr(&r, &g, 0, 4, "/s", "/t").unwrap();
            r.run_faults(&SsspIter, &cfg, "/s", "/t", "/o", &failures)
                .unwrap();
            tel
        }),
    ];
    for (label, tel) in runs {
        let samples = tel.samples();
        let workers: std::collections::BTreeSet<u32> = samples.iter().map(|s| s.worker).collect();
        assert_eq!(workers.len(), 4, "{label}: every pair sampled");
        for w in workers {
            let series: Vec<&Sample> = samples.iter().filter(|s| s.worker == w).collect();
            let gaps = series
                .windows(2)
                .filter(|p| p[1].generation != p[0].generation)
                .count();
            assert_eq!(
                gaps, 1,
                "{label}: worker {w} must have exactly one generation gap"
            );
            // The gap is a rollback: the first post-gap sample restarts
            // at or before the last pre-gap iteration.
            let gap_at = series
                .windows(2)
                .position(|p| p[1].generation != p[0].generation)
                .unwrap();
            assert!(
                series[gap_at + 1].iteration <= series[gap_at].iteration,
                "{label}: worker {w} generation gap must rewind the iteration"
            );
        }
    }
}
