//! Reproducibility: the virtual timeline is a pure function of the
//! inputs — identical across repeated runs, engines included — and the
//! metrics snapshots match exactly.

use imapreduce::{FaultEvent, IterConfig, IterEngine, WatchdogConfig};
use imr_algorithms::pagerank::PageRankIter;
use imr_algorithms::testutil::{imr_runner_on, mr_runner_on};
use imr_algorithms::{pagerank, sssp};
use imr_graph::dataset;
use imr_simcluster::{ClusterSpec, MetricsSnapshot, NodeId, VInstant};

fn imr_run() -> (VInstant, Vec<VInstant>, MetricsSnapshot) {
    let g = dataset("Google").unwrap().generate(0.002);
    let r = imr_runner_on(ClusterSpec::ec2(10));
    let cfg = IterConfig::new("pr", 10, 5).with_distance_threshold(1e-7);
    let out = pagerank::run_pagerank_imr(&r, &g, &cfg).unwrap();
    (
        out.report.finished,
        out.report.iteration_done,
        out.report.metrics,
    )
}

fn mr_run() -> (VInstant, Vec<VInstant>, MetricsSnapshot) {
    let g = dataset("Google").unwrap().generate(0.002);
    let r = mr_runner_on(ClusterSpec::ec2(10));
    let out = pagerank::run_pagerank_mr(&r, &g, 10, 5, None).unwrap();
    (
        out.report.finished,
        out.report.iteration_done,
        out.report.metrics,
    )
}

#[test]
fn imapreduce_timeline_is_bit_reproducible() {
    assert_eq!(imr_run(), imr_run());
}

#[test]
fn mapreduce_timeline_is_bit_reproducible() {
    assert_eq!(mr_run(), mr_run());
}

/// The fault timeline is part of the pure function: a schedule mixing a
/// delay, a watchdog-detected hang and a kill shifts virtual time in a
/// bit-reproducible way — and strictly costs more virtual time than the
/// undisturbed run.
#[test]
fn faulted_timeline_is_bit_reproducible() {
    fn faulted_run(faults: &[FaultEvent]) -> (VInstant, Vec<VInstant>, MetricsSnapshot) {
        let g = dataset("Google").unwrap().generate(0.002);
        let r = imr_runner_on(ClusterSpec::ec2(10));
        let cfg = IterConfig::new("pr", 10, 6)
            .with_checkpoint_interval(2)
            .with_watchdog(WatchdogConfig::default());
        pagerank::load_pagerank_imr(&r, &g, 10, "/s", "/t").unwrap();
        let job = PageRankIter::new(g.num_nodes() as u64);
        let out = r.run_faults(&job, &cfg, "/s", "/t", "/o", faults).unwrap();
        (
            out.report.finished,
            out.report.iteration_done,
            out.report.metrics,
        )
    }
    let faults = [
        FaultEvent::Delay {
            node: NodeId(2),
            at_iteration: 2,
            millis: 40,
        },
        FaultEvent::Hang {
            node: NodeId(5),
            at_iteration: 3,
        },
        FaultEvent::Kill {
            node: NodeId(1),
            at_iteration: 5,
        },
    ];
    let a = faulted_run(&faults);
    let b = faulted_run(&faults);
    assert_eq!(a, b);
    let clean = faulted_run(&[]);
    assert!(a.0 > clean.0, "faults must cost virtual time");
}

#[test]
fn sssp_results_do_not_depend_on_cluster_size() {
    // Timing depends on the cluster; *data* must not.
    let g = dataset("DBLP").unwrap().generate(0.003);
    let mut results = Vec::new();
    for n in [2usize, 4, 8] {
        let r = imr_runner_on(ClusterSpec::local(n));
        let cfg = IterConfig::new("sssp", n, 5);
        let out = sssp::run_sssp_imr(&r, &g, 0, &cfg).unwrap();
        results.push(out.final_state);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}

#[test]
fn sync_and_async_runs_share_straggler_patterns() {
    // The straggler model is keyed by (iteration, task), not wall
    // time, so the sync/async comparison is a paired experiment: the
    // async run can never be slower than sync by more than the hand-off
    // overhead.
    let g = dataset("DBLP").unwrap().generate(0.005);
    let run = |sync: bool| {
        let r = imr_runner_on(ClusterSpec::local(4));
        let mut cfg = IterConfig::new("sssp", 4, 8);
        if sync {
            cfg = cfg.with_sync_maps();
        }
        sssp::run_sssp_imr(&r, &g, 0, &cfg).unwrap().report.finished
    };
    let sync_t = run(true);
    let async_t = run(false);
    assert!(
        async_t <= sync_t,
        "async {async_t} slower than sync {sync_t}"
    );
}
