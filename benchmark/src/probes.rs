//! Micro probes: one layer's public function at a time, on inputs
//! captured from the workload (a real PageRank map output for the
//! workload graph, split into `pairs` runs), timed as the median of
//! `probe_batches` batches of at least `probe_batch_ms` each.

use crate::adapter::{self, Bytes, JobAlgo, JobDesc, Loopback, Pairs, ProbeDfs, Service};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{guarded_rep, Reference, Sizes, Variant, Workload};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FRAME_BYTES: usize = 256 * 1024;
const MB: f64 = 1e6;

struct Harness<'a> {
    batches: usize,
    batch: Duration,
    spans: &'a mut Spans,
    parent: usize,
    out: Vec<(&'static str, f64)>,
}

impl Harness<'_> {
    /// Median seconds per `op` call; the first failing call ends the
    /// probe. `setup` builds the input an op consumes and is not timed.
    fn time<I>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut op: impl FnMut(I) -> Result<(), String>,
    ) -> Result<f64, String> {
        let mut per_call = Vec::with_capacity(self.batches);
        for _ in 0..self.batches {
            let (mut spent, mut calls) = (Duration::ZERO, 0u32);
            while spent < self.batch {
                let input = setup();
                let t = Instant::now();
                let done = op(input);
                spent += t.elapsed();
                done?;
                calls += 1;
            }
            per_call.push(spent.as_secs_f64() / f64::from(calls));
        }
        Ok(median(&per_call))
    }

    /// Opens the span of one probe.
    fn span(&mut self, metric: &str) -> usize {
        self.spans
            .open(&format!("probe:{metric}"), Some(self.parent), 0)
    }

    /// Runs one probe that calls something fallible (a socket, the job
    /// service) inside its own span and records `value(secs)`.
    fn try_probe<I>(
        &mut self,
        metric: &'static str,
        setup: impl FnMut() -> I,
        op: impl FnMut(I) -> Result<(), String>,
        value: impl FnOnce(f64) -> f64,
    ) -> Result<(), String> {
        let id = self.span(metric);
        let secs = self.time(setup, op);
        self.spans.close(id);
        self.out
            .push((metric, value(secs.map_err(|e| format!("{metric}: {e}"))?)));
        Ok(())
    }

    /// [`Harness::try_probe`] for an op that cannot fail.
    fn probe<I>(
        &mut self,
        metric: &'static str,
        setup: impl FnMut() -> I,
        mut op: impl FnMut(I),
        value: impl FnOnce(f64) -> f64,
    ) {
        let infallible = |input| {
            op(input);
            Ok(())
        };
        self.try_probe(metric, setup, infallible, value)
            .expect("the op never returns an error");
    }
}

/// Runs every micro probe; returns `(metric, value)` pairs. A probe that
/// cannot run at all (a loopback socket that will not open, a failed
/// service call) is an `Err` and fails the traced run.
pub fn run_all(
    sz: &Arc<Sizes>,
    seed: u64,
    spans: &mut Spans,
) -> Result<Vec<(&'static str, f64)>, String> {
    let parent = spans.open("probes", None, 0);
    let mut h = Harness {
        batches: sz.probe_batches,
        batch: Duration::from_secs_f64(sz.probe_batch_ms / 1e3),
        spans,
        parent,
        out: Vec::new(),
    };
    let pairs = sz.pairs;

    // ---- graph, core ---------------------------------------------------
    let (nodes, edges) = (sz.pr_nodes, sz.pr_edges);
    h.probe(
        "graph.generate_edges_per_s",
        || (),
        |()| {
            black_box(adapter::generate_pagerank_graph(nodes, edges, seed));
        },
        |s| edges as f64 / s,
    );
    let g = adapter::generate_pagerank_graph(nodes, edges, seed);
    let loaded_bytes = {
        let runner = adapter::fresh_runner(pairs, None);
        adapter::load_pagerank(&runner, &g, pairs)?;
        adapter::loaded_bytes(&runner) as f64
    };
    h.probe(
        "core.load_partitioned_mb_per_s",
        || adapter::fresh_runner(pairs, None),
        |runner| adapter::load_pagerank(&runner, &g, pairs).expect("the same load just succeeded"),
        |s| loaded_bytes / MB / s,
    );

    // The sim and the baseline run whole jobs: a few single calls each.
    let macro_batches = h.batches.min(3);
    type WholeJob = fn(&adapter::Graph, usize, usize) -> Result<usize, String>;
    let macro_probe = |h: &mut Harness<'_>, metric, f: WholeJob, iters: usize| {
        let id = h.span(metric);
        let mut per_iter = Vec::new();
        for _ in 0..macro_batches {
            let t = Instant::now();
            let iters = f(&g, pairs, iters)?;
            per_iter.push(t.elapsed().as_secs_f64() * 1e3 / iters.max(1) as f64);
        }
        h.spans.close(id);
        h.out.push((metric, median(&per_iter)));
        Ok::<(), String>(())
    };
    macro_probe(
        &mut h,
        "core.sim_host_ms_per_iter",
        adapter::sim_pagerank,
        sz.sim_iters,
    )?;
    macro_probe(
        &mut h,
        "mapreduce.baseline_host_ms_per_iter",
        adapter::baseline_pagerank,
        sz.baseline_iters,
    )?;

    // ---- records: the shuffle path on a captured map output -------------
    // Mapper q maps the nodes it owns (id mod pairs); reducer 0 receives,
    // from every mapper, the records whose key it owns.
    let map_out: Vec<Pairs> = (0..pairs)
        .map(|q| adapter::pagerank_map_output(&g, q, pairs))
        .collect();
    let records = map_out[0].len() as f64;
    let parts: Vec<Pairs> = map_out
        .iter()
        .map(|out| {
            out.iter()
                .copied()
                .filter(|&(k, _)| (k as usize).is_multiple_of(pairs))
                .collect()
        })
        .collect();
    let runs: Vec<Pairs> = parts
        .iter()
        .map(|p| {
            let mut p = p.clone();
            adapter::sort(&mut p);
            p
        })
        .collect();
    let run_records: f64 = runs.iter().map(|r| r.len() as f64).sum();
    let merged = adapter::merge(runs.clone());
    let seg: Bytes = adapter::encode(&runs[0]);
    let seg_bytes = seg.len() as f64;

    h.probe(
        "records.encode_mb_per_s",
        || (),
        |()| {
            black_box(adapter::encode(black_box(&runs[0])));
        },
        |s| seg_bytes / MB / s,
    );
    h.probe(
        "records.decode_mb_per_s",
        || seg.clone(),
        |seg| {
            black_box(adapter::decode(seg));
        },
        |s| seg_bytes / MB / s,
    );
    h.probe(
        "records.sort_ns_per_rec",
        || parts[0].clone(),
        |mut p| {
            adapter::sort(&mut p);
            black_box(p);
        },
        |s| s * 1e9 / parts[0].len() as f64,
    );
    h.probe(
        "records.merge_ns_per_rec",
        || runs.clone(),
        |r| {
            black_box(adapter::merge(r));
        },
        |s| s * 1e9 / run_records,
    );
    h.probe(
        "records.group_ns_per_rec",
        || merged.clone(),
        |m| {
            black_box(adapter::group(m));
        },
        |s| s * 1e9 / run_records,
    );
    h.probe(
        "records.partition_ns_per_rec",
        || (),
        |()| {
            let mut acc = 0usize;
            for &(k, _) in &map_out[0] {
                acc += adapter::hash_partition(k, pairs);
            }
            black_box(acc);
        },
        |s| s * 1e9 / records,
    );

    // ---- algorithms: the user functions alone ----------------------------
    let init = 1.0 / nodes as f64;
    let rows: Vec<(u32, f64, Vec<u32>)> = (0..nodes as u32)
        .map(|u| (u, init, g.neighbors(u).to_vec()))
        .collect();
    let graph_edges = g.num_edges() as f64;
    h.probe(
        "algorithms.pagerank_map_ns_per_edge",
        || (),
        |()| {
            black_box(adapter::pagerank_map(nodes as u64, black_box(&rows)));
        },
        |s| s * 1e9 / graph_edges,
    );
    drop(rows);
    h.probe(
        "algorithms.pagerank_reduce_ns_per_rec",
        || adapter::group(merged.clone()),
        |groups| {
            black_box(adapter::pagerank_reduce(nodes as u64, groups));
        },
        |s| s * 1e9 / run_records,
    );
    let points = adapter::generate_points(sz.km_points.min(50_000), sz.km_dim, sz.km_k, seed);
    let centroids = adapter::initial_centroids(&points, sz.km_k);
    h.probe(
        "algorithms.kmeans_map_ns_per_point",
        || (),
        |()| {
            black_box(adapter::kmeans_map(black_box(&points), &centroids));
        },
        |s| s * 1e9 / points.len() as f64,
    );
    drop((points, map_out, parts, runs, merged, g));

    // ---- net ---------------------------------------------------------------
    let payload: Vec<u8> = seg
        .as_slice()
        .iter()
        .copied()
        .cycle()
        .take(FRAME_BYTES)
        .collect();
    h.probe(
        "net.crc_mb_per_s",
        || (),
        |()| {
            black_box(adapter::crc(7, black_box(&payload)));
        },
        |s| FRAME_BYTES as f64 / MB / s,
    );
    h.probe(
        "net.frame_encode_mb_per_s",
        || (),
        |()| {
            black_box(adapter::frame(7, black_box(&payload)));
        },
        |s| FRAME_BYTES as f64 / MB / s,
    );
    {
        let mut lo = Loopback::open()?;
        let mut one_way = payload.clone();
        one_way[0] = 0;
        const FRAMES: usize = 16;
        h.try_probe(
            "net.loopback_frame_mb_per_s",
            || (),
            |()| lo.stream(&one_way, FRAMES),
            |s| (FRAMES * FRAME_BYTES) as f64 / MB / s,
        )?;
        h.try_probe(
            "net.loopback_rtt_us",
            || (),
            |()| lo.ping(&[1u8; 64]).map(|_| ()),
            |s| s * 1e6,
        )?;
    }
    {
        // One hop = half a round trip of a 256 KiB `Bytes` between two
        // threads over the engine's bounded channel links.
        let (mut a, mut b) = adapter::channel_pair();
        let seg = Bytes::from(payload.clone());
        let echo = std::thread::spawn(move || {
            while let Some(seg) = adapter::channel_recv(&mut b, 0) {
                if !adapter::channel_send(&mut b, 0, seg) {
                    break;
                }
            }
        });
        h.probe(
            "net.channel_hop_us",
            || seg.clone(),
            |seg| {
                assert!(
                    adapter::channel_send(&mut a, 1, seg),
                    "echo thread is alive"
                );
                black_box(adapter::channel_recv(&mut a, 1));
            },
            |s| s * 1e6 / 2.0,
        );
        drop(a);
        echo.join().map_err(|_| "channel echo thread panicked")?;
    }

    // ---- dfs -----------------------------------------------------------------
    let mut dfs = ProbeDfs::new();
    let ckpt = Bytes::from(
        seg.as_slice()
            .iter()
            .copied()
            .cycle()
            .take(1 << 20)
            .collect::<Vec<u8>>(),
    );
    h.probe(
        "dfs.put_atomic_mb_per_s",
        || ckpt.clone(),
        |data| dfs.put_atomic("/probe/_ckpt/iter-0002/part-00000", data),
        |s| ckpt.len() as f64 / MB / s,
    );
    h.probe(
        "dfs.read_mb_per_s",
        || (),
        |()| {
            black_box(dfs.read("/probe/_ckpt/iter-0002/part-00000"));
        },
        |s| ckpt.len() as f64 / MB / s,
    );
    let meta = ckpt.slice(..200);
    h.probe(
        "dfs.put_atomic_small_us",
        || meta.clone(),
        |data| dfs.put_atomic("/probe/jobs/7/meta", data),
        |s| s * 1e6,
    );

    // ---- native: what run_remote costs before any work -------------------------
    {
        let reference = Arc::new(Reference::Pagerank(Vec::new()));
        let startup = Variant {
            startup_only: true,
            ..Variant::default()
        };
        let id = h.span("native.remote_startup_ms");
        let walls: Vec<f64> = (0..h.batches)
            .map(|_| {
                guarded_rep(Workload::PagerankTcp, sz, seed, &reference, startup)
                    .map(|r| r.wall_s * 1e3)
            })
            .collect::<Result<_, _>>()?;
        h.spans.close(id);
        h.out.push(("native.remote_startup_ms", median(&walls)));
    }

    // ---- jobs: pure service overhead --------------------------------------------
    let empty = |i: usize| JobDesc {
        algo: JobAlgo::Halve,
        scale: 32,
        tasks: 1,
        iters: 6,
        seed: 900 + i as u64,
    };
    let submit_batch = 20usize;
    h.try_probe(
        "jobs.submit_us",
        || Service::new(pairs),
        |svc| (0..submit_batch).try_for_each(|i| svc.submit(&empty(i)).map(|_| ())),
        |s| s * 1e6 / submit_batch as f64,
    )?;
    let id = h.span("jobs.drain_empty_jobs_per_s");
    let mut rates = Vec::new();
    let mut last = None;
    for _ in 0..macro_batches {
        let svc = Service::new(pairs);
        let ids = (0..sz.empty_jobs)
            .map(|i| svc.submit(&empty(i)))
            .collect::<Result<Vec<u64>, String>>()?;
        let t = Instant::now();
        svc.drain()?;
        rates.push(ids.len() as f64 / t.elapsed().as_secs_f64());
        if !svc.unfinished().is_empty() {
            return Err("an empty job did not complete".to_owned());
        }
        last = Some((svc, ids));
    }
    h.spans.close(id);
    h.out.push(("jobs.drain_empty_jobs_per_s", median(&rates)));
    let (svc, ids) = last.expect("at least one drain");
    h.try_probe(
        "jobs.result_read_us",
        || (),
        |()| ids.iter().try_for_each(|id| svc.result(*id).map(|_| ())),
        |s| s * 1e6 / ids.len() as f64,
    )?;
    h.try_probe(
        "jobs.recover_ms",
        || (),
        |()| svc.recover().map(|_| ()),
        |s| s * 1e3,
    )?;

    let out = h.out;
    spans.close(parent);
    Ok(out)
}
