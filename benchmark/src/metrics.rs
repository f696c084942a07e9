//! The names every later issue uses: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is
//! rendered from these tables (a unit test keeps the committed file in
//! step), so a name, unit or bound is stated exactly once.

use crate::json::Json;
use crate::stats::Better::{self, Higher, Lower};

/// How long one run measures, as recorded in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 8;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "pagerank_threads",
        why: "shuffle-heavy map/reduce on the channel fabric: records codec/sort/merge and the native pair loop do the work; net, dfs, jobs idle",
    },
    WorkloadDef {
        name: "pagerank_tcp",
        why: "same job and data over imr-worker processes and localhost TCP: only the fabric differs, so the gap to pagerank_threads is net + spawn",
    },
    WorkloadDef {
        name: "pagerank_ckpt_kill",
        why: "pagerank_threads + checkpoint every 2 + one scripted kill: dfs put_atomic and supervisor rollback/replay show only here",
    },
    WorkloadDef {
        name: "pagerank_delta",
        why: "same pair runtime used barrier-free (delta-accumulative to 1e-7): a map/reduce-path gain that costs the delta path shows as one moving",
    },
    WorkloadDef {
        name: "kmeans_broadcast",
        why: "compute-heavy map, k-record shuffle, barrier + one2all broadcast: prediction for any shuffle/codec optimisation is no change",
    },
    WorkloadDef {
        name: "jobs_mixed",
        why: "multi-tenant service draining a mixed batch of small jobs: catalog journaling, admission, per-job setup; engine gains barely move it",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_wall_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "iter_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate directory name. A value of 0 in a run means "not read
/// from this workload" (see README.md for which workload each is read
/// from); micro probes are measured in every traced run.
pub const PER_LAYER: [PerLayer; 47] = [
    layer("graph.generate_edges_per_s", "1/s", Higher),
    layer("core.load_partitioned_mb_per_s", "MB/s", Higher),
    layer("core.sim_host_ms_per_iter", "ms", Lower),
    layer("core.delta_epochs", "count", Lower),
    layer("core.delta_deltas_sent", "count", Lower),
    layer("mapreduce.baseline_host_ms_per_iter", "ms", Lower),
    layer("records.encode_mb_per_s", "MB/s", Higher),
    layer("records.decode_mb_per_s", "MB/s", Higher),
    layer("records.sort_ns_per_rec", "ns", Lower),
    layer("records.merge_ns_per_rec", "ns", Lower),
    layer("records.group_ns_per_rec", "ns", Lower),
    layer("records.partition_ns_per_rec", "ns", Lower),
    layer("records.shuffle_bytes_per_iter", "bytes", Lower),
    layer("records.reduce_input_records_per_iter", "count", Lower),
    layer("algorithms.pagerank_map_ns_per_edge", "ns", Lower),
    layer("algorithms.pagerank_reduce_ns_per_rec", "ns", Lower),
    layer("algorithms.kmeans_map_ns_per_point", "ns", Lower),
    layer("net.crc_mb_per_s", "MB/s", Higher),
    layer("net.frame_encode_mb_per_s", "MB/s", Higher),
    layer("net.loopback_frame_mb_per_s", "MB/s", Higher),
    layer("net.loopback_rtt_us", "us", Lower),
    layer("net.channel_hop_us", "us", Lower),
    layer("net.tcp_extra_ms_per_iter", "ms", Lower),
    layer("dfs.put_atomic_mb_per_s", "MB/s", Higher),
    layer("dfs.read_mb_per_s", "MB/s", Higher),
    layer("dfs.checkpoint_bytes", "bytes", Lower),
    layer("dfs.put_atomic_small_us", "us", Lower),
    layer("native.iter_ms_p90", "ms", Lower),
    layer("native.map_ms_mean", "ms", Lower),
    layer("native.reduce_ms_mean", "ms", Lower),
    layer("native.handoff_ms_mean", "ms", Lower),
    layer("native.barrier_wait_ms_mean", "ms", Lower),
    layer("native.checkpoint_write_ms_mean", "ms", Lower),
    layer("native.shuffle_wait_ms_mean", "ms", Lower),
    layer("native.busy_share", "ratio", Higher),
    layer("native.pair_skew", "ratio", Lower),
    layer("native.async_overlap", "ratio", Higher),
    layer("native.remote_startup_ms", "ms", Lower),
    layer("native.recovery_ms", "ms", Lower),
    layer("native.recoveries", "count", Lower),
    layer("native.scaling_eff_2p", "ratio", Higher),
    layer("jobs.submit_us", "us", Lower),
    layer("jobs.result_read_us", "us", Lower),
    layer("jobs.recover_ms", "ms", Lower),
    layer("jobs.drain_empty_jobs_per_s", "1/s", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("telemetry.dropped_samples", "count", Lower),
];

/// The committed `BENCHMARK.json`, one key per line.
pub fn benchmark_json() -> String {
    let list = |items: Vec<Json>| {
        let rows: Vec<String> = items
            .iter()
            .map(|j| format!("    {}", j.render()))
            .collect();
        format!("[\n{}\n  ]", rows.join(",\n"))
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: imr-benchmark --print-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn names_units_and_bounds_obey_the_contract() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
