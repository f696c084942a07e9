//! One function per table/figure of the paper's evaluation. Each
//! builds fresh substrate instances (cluster, DFS, metrics), runs the
//! engines, and returns a [`FigureResult`] with the same series the
//! paper plots.
//!
//! The SSSP/PageRank comparisons (Figs. 4–14) hold the job fixed and
//! vary only the engine: every one of them runs its workload through
//! `run_mr` (the Hadoop-style baseline chain) and `run_imr`
//! (iMapReduce), the only two places that tell the two jobs apart.

use crate::result::{final_y, report_metrics, FigureResult};
use imapreduce::{IterConfig, IterativeRunner, LoadBalance};
use imr_algorithms::testutil::{imr_runner_on, mr_runner_on};
use imr_algorithms::{jacobi, kmeans, matpower, pagerank, sssp};
use imr_graph::{dataset, generate_matrix, generate_points, DatasetSpec, Graph, Workload};
use imr_mapreduce::{CheckSpec, JobRunner};
use imr_simcluster::{ClusterSpec, MetricsSnapshot, RunReport};

/// Users in the paper's Last.fm data set.
const LASTFM_USERS: f64 = 359_347.0;

/// How many Last.fm users Figs. 16 and 20 sample at `scale`.
pub fn lastfm_sample(scale: f64) -> usize {
    ((LASTFM_USERS * scale) as usize).max(100)
}

/// Named running-time curves, one per engine variant.
type Curves = Vec<(String, Vec<(f64, f64)>)>;

/// Converts a report's per-iteration completion instants to cumulative
/// `(iteration, seconds)` points.
fn curve(report: &RunReport) -> Vec<(f64, f64)> {
    report
        .iteration_done
        .iter()
        .enumerate()
        .map(|(i, t)| ((i + 1) as f64, t.as_secs_f64()))
        .collect()
}

/// The paper's name for a workload's algorithm.
fn algo(w: Workload) -> &'static str {
    match w {
        Workload::Sssp => "SSSP",
        Workload::PageRank => "PageRank",
    }
}

/// How far a key's value moved between two iterations of either
/// graph job (state is `(value, adjacency)`).
fn moved<A>(_k: &u32, prev: &(f64, A), cur: &(f64, A)) -> f64 {
    (prev.0 - cur.0).abs()
}

/// The Hadoop-style baseline: `iters` chained MapReduce jobs of
/// workload `w` on `mr`, each re-reading the static data. With
/// `check`, every iteration also runs the termination-check job a
/// Hadoop user needs (iMapReduce's check is built in), so Fig. 11
/// charges the baseline for its communication too.
fn run_mr(
    w: Workload,
    mr: &JobRunner,
    g: &Graph,
    tasks: usize,
    iters: usize,
    check: bool,
) -> RunReport {
    let out = match w {
        Workload::Sssp => {
            let check = check.then(|| CheckSpec::new(moved, -1.0));
            sssp::run_sssp_mr(mr, g, 0, tasks, iters, check.as_ref())
        }
        Workload::PageRank => {
            let check = check.then(|| CheckSpec::new(moved, -1.0));
            pagerank::run_pagerank_mr(mr, g, tasks, iters, check.as_ref())
        }
    };
    out.unwrap().report
}

/// iMapReduce running workload `w` on `imr` with persistent tasks;
/// with `sync`, each map waits for the whole previous iteration.
fn run_imr(
    w: Workload,
    imr: &IterativeRunner,
    g: &Graph,
    tasks: usize,
    iters: usize,
    sync: bool,
) -> RunReport {
    let name = match w {
        Workload::Sssp => "sssp",
        Workload::PageRank => "pr",
    };
    let mut cfg = IterConfig::new(name, tasks, iters);
    if sync {
        cfg = cfg.with_sync_maps();
    }
    let out = match w {
        Workload::Sssp => sssp::run_sssp_imr(imr, g, 0, &cfg),
        Workload::PageRank => pagerank::run_pagerank_imr(imr, g, &cfg),
    };
    out.unwrap().report
}

/// The four running-time curves of Figs. 4–7 and 10 for workload `w`
/// on one graph, plus the iMapReduce run's metrics.
fn four_curves(
    w: Workload,
    g: &Graph,
    cluster: &ClusterSpec,
    tasks: usize,
    iters: usize,
) -> (Curves, MetricsSnapshot) {
    let mr = run_mr(w, &mr_runner_on(cluster.clone()), g, tasks, iters, false);
    let mut ex_init = mr_runner_on(cluster.clone());
    ex_init.charge_init = false;
    let ex = run_mr(w, &ex_init, g, tasks, iters, false);
    let sync = run_imr(w, &imr_runner_on(cluster.clone()), g, tasks, iters, true);
    let imr = run_imr(w, &imr_runner_on(cluster.clone()), g, tasks, iters, false);
    let curves = vec![
        ("MapReduce".to_string(), curve(&mr)),
        ("MapReduce (ex. init.)".to_string(), curve(&ex)),
        ("iMapReduce (sync.)".to_string(), curve(&sync)),
        ("iMapReduce".to_string(), curve(&imr)),
    ];
    (curves, imr.metrics)
}

/// Total running times of both engines on `w`, `tasks` pairs on
/// `cluster`, plus the iMapReduce run's metrics.
fn both_totals(
    w: Workload,
    g: &Graph,
    cluster: &ClusterSpec,
    tasks: usize,
    iters: usize,
) -> (f64, f64, MetricsSnapshot) {
    let a = run_mr(w, &mr_runner_on(cluster.clone()), g, tasks, iters, false);
    let b = run_imr(w, &imr_runner_on(cluster.clone()), g, tasks, iters, false);
    (
        a.finished.as_secs_f64(),
        b.finished.as_secs_f64(),
        b.metrics,
    )
}

fn iteration_figure(id: &str, title: &str, curves: Curves, paper_note: &str) -> FigureResult {
    let mut fig = FigureResult::new(id, title, "iterations", "time (s)");
    for (label, points) in curves {
        fig.push_series(label, points);
    }
    let mr = fig
        .series
        .iter()
        .find(|s| s.label == "MapReduce")
        .map(|s| final_y(&s.points));
    let imr = fig
        .series
        .iter()
        .find(|s| s.label == "iMapReduce")
        .map(|s| final_y(&s.points));
    if let (Some(mr), Some(imr)) = (mr, imr) {
        fig.note(format!(
            "measured speedup iMapReduce vs MapReduce: {:.2}x",
            mr / imr
        ));
    }
    fig.note(paper_note.to_string());
    fig
}

/// Figs. 4–7 — SSSP on the DBLP-like / Facebook-like graphs and
/// PageRank on the Google-like / Berk-Stan-like webgraphs (the data
/// set picks the workload), local 4-node cluster, four curves.
pub fn fig_local(id: &str, dataset_name: &str, scale: f64, iters: usize) -> FigureResult {
    let ds = dataset(dataset_name).expect("dataset");
    let g = ds.generate(scale);
    let cluster = ClusterSpec::local(4).with_sample_scale(scale);
    let (curves, metrics) = four_curves(ds.workload, &g, &cluster, 4, iters);
    let (kind, paper) = match ds.workload {
        Workload::Sssp => (
            "graph",
            "paper: 2-3x speedup; ~20% saved by one-time init, ~15% by async maps, ~20% by no static shuffle",
        ),
        Workload::PageRank => (
            "webgraph",
            "paper: ~2x speedup; ~10% init, ~30% static shuffle, ~10% async",
        ),
    };
    let mut fig = iteration_figure(
        id,
        &format!(
            "{} on {dataset_name}-like {kind} (local-4, scale {scale})",
            algo(ds.workload)
        ),
        curves,
        paper,
    );
    fig.note(format!(
        "graph: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    ));
    report_metrics(&mut fig, "iMapReduce", &metrics);
    fig
}

/// Figs. 8 & 9 — total running time on the synthetic s/m/l graphs,
/// EC2-20, MapReduce vs iMapReduce bars.
pub fn fig_synthetic_sizes(id: &str, workload: Workload, scale: f64, iters: usize) -> FigureResult {
    let (names, paper_ratios, title) = match workload {
        Workload::Sssp => (
            ["SSSP-s", "SSSP-m", "SSSP-l"],
            [23.2, 37.0, 38.6],
            "SSSP running time on synthetic graphs (EC2-20)",
        ),
        Workload::PageRank => (
            ["PageRank-s", "PageRank-m", "PageRank-l"],
            [44.0, 60.0, 60.0],
            "PageRank running time on synthetic graphs (EC2-20)",
        ),
    };
    let cluster = ClusterSpec::ec2(20).with_sample_scale(scale);
    let mut fig = FigureResult::new(
        id,
        format!("{title}, scale {scale}"),
        "dataset (s=1, m=2, l=3)",
        "time (s)",
    );
    let mut mr_pts = Vec::new();
    let mut imr_pts = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    for (i, name) in names.iter().enumerate() {
        let g = dataset(name).unwrap().generate(scale);
        let x = (i + 1) as f64;
        let (mr_t, imr_t, m) = both_totals(workload, &g, &cluster, 20, iters);
        metrics = m;
        mr_pts.push((x, mr_t));
        imr_pts.push((x, imr_t));
        fig.note(format!(
            "{name}: iMapReduce/MapReduce = {:.1}% (paper: {:.1}%), {} nodes {} edges",
            100.0 * imr_t / mr_t,
            paper_ratios[i],
            g.num_nodes(),
            g.num_edges(),
        ));
    }
    fig.push_series("MapReduce", mr_pts);
    fig.push_series("iMapReduce", imr_pts);
    report_metrics(&mut fig, "iMapReduce (largest dataset)", &metrics);
    fig
}

/// Fig. 10 — decomposition of the running-time reduction into the
/// three factors, on SSSP-m and PageRank-m (EC2-20, 10 iterations).
pub fn fig_factors(scale: f64, iters: usize) -> FigureResult {
    let cluster = ClusterSpec::ec2(20).with_sample_scale(scale);
    let mut fig = FigureResult::new(
        "fig10",
        format!("Factor decomposition of running-time reduction (EC2-20, scale {scale})"),
        "workload (1=SSSP-m, 2=PageRank-m)",
        "fraction of MapReduce time saved",
    );
    let mut init_pts = Vec::new();
    let mut static_pts = Vec::new();
    let mut async_pts = Vec::new();
    for (i, name) in ["SSSP-m", "PageRank-m"].iter().enumerate() {
        let ds = dataset(name).unwrap();
        let g = ds.generate(scale);
        let x = (i + 1) as f64;
        let (curves, metrics) = four_curves(ds.workload, &g, &cluster, 20, iters);
        report_metrics(&mut fig, &format!("iMapReduce {name}"), &metrics);
        let total: std::collections::HashMap<&str, f64> = curves
            .iter()
            .map(|(label, pts)| (label.as_str(), final_y(pts)))
            .collect();
        let t_mr = total["MapReduce"];
        let t_ex = total["MapReduce (ex. init.)"];
        let t_sync = total["iMapReduce (sync.)"];
        let t_imr = total["iMapReduce"];
        // The paper's measurement method (§4.2): init saving is the
        // MR-vs-MR(ex.init.) gap; async saving is the sync-vs-async
        // iMapReduce gap; static-shuffle saving is the remainder.
        let init = (t_mr - t_ex) / t_mr;
        let asyn = (t_sync - t_imr) / t_mr;
        let stat = (t_mr - t_imr) / t_mr - init - asyn;
        init_pts.push((x, init));
        static_pts.push((x, stat));
        async_pts.push((x, asyn));
        fig.note(format!(
            "{name}: one-time init {:.1}%, no static shuffle {:.1}%, async maps {:.1}% (paper: init and async each ~5-10%, static shuffle grows with input size)",
            100.0 * init,
            100.0 * stat,
            100.0 * asyn
        ));
    }
    fig.push_series("one-time init", init_pts);
    fig.push_series("no static shuffle", static_pts);
    fig.push_series("async maps", async_pts);
    fig
}

/// Fig. 11 — total communication cost on SSSP-l and PageRank-l.
pub fn fig_comm_cost(scale: f64, iters: usize) -> FigureResult {
    let cluster = ClusterSpec::ec2(20).with_sample_scale(scale);
    let mut fig = FigureResult::new(
        "fig11",
        format!("Total communication cost (EC2-20, scale {scale})"),
        "workload (1=SSSP-l, 2=PageRank-l)",
        "bytes exchanged",
    );
    let mut mr_pts = Vec::new();
    let mut imr_pts = Vec::new();
    for (i, name) in ["SSSP-l", "PageRank-l"].iter().enumerate() {
        let ds = dataset(name).unwrap();
        let g = ds.generate(scale);
        let x = (i + 1) as f64;
        let mr = mr_runner_on(cluster.clone());
        let a = run_mr(ds.workload, &mr, &g, 20, iters, true);
        let imr = imr_runner_on(cluster.clone());
        let b = run_imr(ds.workload, &imr, &g, 20, iters, false);
        let mr_bytes = a.metrics.total_exchanged_bytes();
        let imr_bytes = b.metrics.total_exchanged_bytes();
        mr_pts.push((x, mr_bytes as f64));
        imr_pts.push((x, imr_bytes as f64));
        fig.note(format!(
            "{name}: iMapReduce exchanges {:.1}% of MapReduce's bytes (paper: ~12%)",
            100.0 * imr_bytes as f64 / mr_bytes as f64
        ));
        report_metrics(&mut fig, &format!("iMapReduce {name}"), &b.metrics);
    }
    fig.push_series("MapReduce", mr_pts);
    fig.push_series("iMapReduce", imr_pts);
    fig
}

/// Figs. 12 & 13 — scaling the EC2 cluster from 20 to 80 instances on
/// the large synthetic graphs; the plotted quantity is the running
/// time of both engines plus their ratio.
pub fn fig_scaling(id: &str, workload: Workload, scale: f64, iters: usize) -> FigureResult {
    let (name, paper_note) = match workload {
        Workload::Sssp => (
            "SSSP-l",
            "paper: ratio improves ~8% from 20 to 80 instances",
        ),
        Workload::PageRank => (
            "PageRank-l",
            "paper: ratio improves ~7% from 20 to 80 instances",
        ),
    };
    let g = dataset(name).unwrap().generate(scale);
    let mut fig = FigureResult::new(
        id,
        format!("{name} running time scaling the cluster (scale {scale})"),
        "EC2 instances",
        "time (s)",
    );
    let mut mr_pts = Vec::new();
    let mut imr_pts = Vec::new();
    let mut ratio_pts = Vec::new();
    let mut metrics = MetricsSnapshot::default();
    for n in [20usize, 50, 80] {
        let cluster = ClusterSpec::ec2(n).with_sample_scale(scale);
        let (a, b, m) = both_totals(workload, &g, &cluster, n, iters);
        metrics = m;
        mr_pts.push((n as f64, a));
        imr_pts.push((n as f64, b));
        ratio_pts.push((n as f64, b / a));
    }
    report_metrics(&mut fig, "iMapReduce (80 instances)", &metrics);
    fig.note(format!(
        "time ratio iMapReduce/MapReduce: 20→{:.3}, 50→{:.3}, 80→{:.3}",
        ratio_pts[0].1, ratio_pts[1].1, ratio_pts[2].1
    ));
    fig.note(paper_note.to_string());
    fig.push_series("MapReduce", mr_pts);
    fig.push_series("iMapReduce", imr_pts);
    fig.push_series("ratio iMR/MR", ratio_pts);
    fig
}

/// Fig. 14 — parallel efficiency `T* / (Tn · n)` for SSSP and PageRank
/// under both engines.
pub fn fig_parallel_efficiency(scale: f64, iters: usize) -> FigureResult {
    let mut fig = FigureResult::new(
        "fig14",
        format!("Parallel efficiency (scale {scale})"),
        "EC2 instances",
        "parallel efficiency",
    );
    for name in ["SSSP-l", "PageRank-l"] {
        let ds = dataset(name).unwrap();
        let (w, algo) = (ds.workload, algo(ds.workload));
        let g = ds.generate(scale);
        // T*: single instance, partition number one, no communication.
        let single = ClusterSpec::single().with_sample_scale(scale);
        let (t_star_mr, t_star_imr, _) = both_totals(w, &g, &single, 1, iters);
        let mut mr_pts = Vec::new();
        let mut imr_pts = Vec::new();
        let mut metrics = MetricsSnapshot::default();
        for n in [20usize, 50, 80] {
            let cluster = ClusterSpec::ec2(n).with_sample_scale(scale);
            let (tn_mr, tn_imr, m) = both_totals(w, &g, &cluster, n, iters);
            metrics = m;
            mr_pts.push((n as f64, t_star_mr / (tn_mr * n as f64)));
            imr_pts.push((n as f64, t_star_imr / (tn_imr * n as f64)));
        }
        report_metrics(
            &mut fig,
            &format!("iMapReduce {algo} (80 instances)"),
            &metrics,
        );
        fig.note(format!(
            "{algo}: efficiency at 80 instances — MapReduce {:.3}, iMapReduce {:.3} (paper: iMapReduce consistently higher; SSSP slowdown ~60% MR vs ~43% iMR)",
            final_y(&mr_pts),
            final_y(&imr_pts)
        ));
        fig.push_series(format!("{algo} MapReduce"), mr_pts);
        fig.push_series(format!("{algo} iMapReduce"), imr_pts);
    }
    fig
}

/// Fig. 16 — K-means on Last.fm-like data, 10 iterations, local-4,
/// with the Combiner comparison from the §5.1.3 text.
pub fn fig_kmeans(points_n: usize, dim: usize, k: usize, iters: usize) -> FigureResult {
    let points = generate_points(points_n, dim, k, 21);
    // Sample-scale compensation against the paper's 359,347 users.
    let sample = (points_n as f64 / LASTFM_USERS).min(1.0);
    let cluster = ClusterSpec::local(4).with_sample_scale(sample);
    let tasks = 4;
    let mut fig = FigureResult::new(
        "fig16",
        format!("K-means on Last.fm-like data ({points_n} users, {dim}-d, k={k}, local-4)"),
        "iterations",
        "time (s)",
    );
    let mr = mr_runner_on(cluster.clone());
    let a = kmeans::run_kmeans_mr(&mr, &points, k, tasks, iters, false, None).unwrap();
    fig.push_series("MapReduce", curve(&a.report));
    let imr = imr_runner_on(cluster.clone());
    let cfg = IterConfig::new("km", tasks, iters).with_one2all();
    let b = kmeans::run_kmeans_imr(&imr, &points, k, &cfg, false).unwrap();
    fig.push_series("iMapReduce", curve(&b.report));

    let t_mr = a.report.finished.as_secs_f64();
    let t_imr = b.report.finished.as_secs_f64();
    fig.note(format!(
        "speedup iMapReduce vs MapReduce: {:.2}x (paper: ~1.2x)",
        t_mr / t_imr
    ));
    report_metrics(&mut fig, "iMapReduce", &b.report.metrics);

    // Combiner variants (paper text: Hadoop 2881s→2226s = 23% less,
    // iMapReduce 2338s→1733s = 26% less).
    let mr_c = mr_runner_on(cluster.clone());
    let ac = kmeans::run_kmeans_mr(&mr_c, &points, k, tasks, iters, true, None).unwrap();
    let imr_c = imr_runner_on(cluster.clone());
    let bc = kmeans::run_kmeans_imr(&imr_c, &points, k, &cfg, true).unwrap();
    fig.note(format!(
        "with Combiner: MapReduce {:.1}s → {:.1}s ({:.0}% less; paper 23%), iMapReduce {:.1}s → {:.1}s ({:.0}% less; paper 26%)",
        t_mr,
        ac.report.finished.as_secs_f64(),
        100.0 * (1.0 - ac.report.finished.as_secs_f64() / t_mr),
        t_imr,
        bc.report.finished.as_secs_f64(),
        100.0 * (1.0 - bc.report.finished.as_secs_f64() / t_imr),
    ));
    fig
}

/// Fig. 18 — matrix power computation, 5 iterations, local-4.
///
/// The paper uses a 1000×1000 dense matrix; that is Θ(n³) = 10⁹ partial
/// products per iteration, far beyond this harness's single-core
/// budget, so the default binary runs a smaller matrix and reports the
/// same MapReduce-vs-iMapReduce comparison (see DESIGN.md).
pub fn fig_matpower(size: usize, iters: usize) -> FigureResult {
    let m = generate_matrix(size, 13);
    // The partial-product volume scales as (size/1000)^3 relative to
    // the paper's 1000x1000 run; compensate by that dominant term.
    let sample = ((size as f64 / 1000.0).powi(3)).min(1.0);
    let cluster = ClusterSpec::local(4).with_sample_scale(sample);

    let tasks = 4;
    let mut fig = FigureResult::new(
        "fig18",
        format!("Matrix power computation ({size}x{size}, {iters} iterations, local-4)"),
        "iterations",
        "time (s)",
    );
    let mr = mr_runner_on(cluster.clone());
    let a = matpower::run_matpower_mr(&mr, &m, tasks, iters).unwrap();
    fig.push_series("MapReduce", curve(&a.report));
    let imr = imr_runner_on(cluster.clone());
    let b = matpower::run_matpower_imr(&imr, &m, tasks, iters).unwrap();
    fig.push_series("iMapReduce", curve(&b.report));
    fig.note(format!(
        "speedup iMapReduce vs MapReduce: {:.2}x (paper: ~10% faster; shuffle between Map2/Reduce2 dominates and is ineluctable)",
        a.report.finished.as_secs_f64() / b.report.finished.as_secs_f64()
    ));
    fig.note(format!(
        "substitution: {size}x{size} matrix instead of the paper's 1000x1000 (Θ(n³) host cost)"
    ));
    report_metrics(&mut fig, "iMapReduce", &b.report.metrics);
    fig
}

/// Fig. 20 — K-means with convergence detection: auxiliary phase
/// (iMapReduce) vs an extra sequential MapReduce job (Hadoop).
pub fn fig_kmeans_convergence(
    points_n: usize,
    dim: usize,
    k: usize,
    max_iters: usize,
) -> FigureResult {
    let points = generate_points(points_n, dim, k, 22);
    let sample = (points_n as f64 / LASTFM_USERS).min(1.0);
    let cluster = ClusterSpec::local(4).with_sample_scale(sample);
    let tasks = 4;
    let threshold = 1e-6;
    let mut fig = FigureResult::new(
        "fig20",
        format!("K-means with convergence detection ({points_n} users, k={k}, local-4)"),
        "iterations",
        "time (s)",
    );
    let mr = mr_runner_on(cluster.clone());
    let a =
        kmeans::run_kmeans_mr(&mr, &points, k, tasks, max_iters, false, Some(threshold)).unwrap();
    fig.push_series("MapReduce", curve(&a.report));
    let imr = imr_runner_on(cluster.clone());
    // Fig. 20 compares convergence detection, not fault tolerance:
    // neither side writes snapshots.
    let cfg = IterConfig::new("km", tasks, max_iters)
        .with_one2all()
        .with_checkpoint_interval(0);
    let b = kmeans::run_kmeans_imr_aux(&imr, &points, k, &cfg, threshold).unwrap();
    fig.push_series("iMapReduce", curve(&b.report));
    fig.note(format!(
        "terminated after {} (MapReduce) / {} (iMapReduce) iterations; time reduced {:.0}% (paper: ~25%)",
        a.iterations,
        b.iterations,
        100.0 * (1.0 - b.report.finished.as_secs_f64() / a.report.finished.as_secs_f64())
    ));
    report_metrics(&mut fig, "iMapReduce", &b.report.metrics);
    fig
}

/// Tables 1 & 2 — dataset statistics, paper vs the scaled synthetic
/// stand-ins this repository generates.
pub fn table_datasets(id: &str, specs: &[DatasetSpec], scale: f64) -> FigureResult {
    let mut fig = FigureResult::new(
        id,
        format!("Dataset statistics at scale {scale} (paper values in notes)"),
        "dataset index",
        "edges (generated)",
    );
    let mut pts = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let g = spec.generate(scale);
        pts.push(((i + 1) as f64, g.num_edges() as f64));
        fig.note(format!(
            "{}: paper {} nodes / {} edges / {} bytes; generated {} nodes / {} edges / {} bytes (scale {scale})",
            spec.name,
            spec.paper_nodes,
            spec.paper_edges,
            spec.paper_file_size,
            g.num_nodes(),
            g.num_edges(),
            g.encoded_size(),
        ));
    }
    fig.push_series("generated edges", pts);
    // Tables run no engines; the uniform counter note records zeros.
    report_metrics(&mut fig, "no runs", &MetricsSnapshot::default());
    fig
}

/// Bonus (paper §5.1): Jacobi under one2all broadcast — included to
/// cover the paper's other broadcast example with a runnable artifact.
pub fn fig_jacobi(n: usize, per_row: usize, iters: usize) -> FigureResult {
    let (system, _) = jacobi::generate_system(n, per_row, 17);
    let imr = imr_runner_on(ClusterSpec::local(4));
    let cfg = IterConfig::new("jacobi", 4, iters).with_one2all();
    let out = jacobi::run_jacobi_imr(&imr, &system, &cfg).unwrap();
    let mut fig = FigureResult::new(
        "jacobi",
        format!("Jacobi iteration ({n} unknowns, one2all broadcast, local-4)"),
        "iterations",
        "time (s)",
    );
    fig.push_series("iMapReduce", curve(&out.report));
    let x: Vec<f64> = out.final_state.iter().map(|&(_, v)| v).collect();
    fig.note(format!(
        "residual after {} iterations: {:.3e}",
        out.iterations,
        jacobi::residual(&system, &x)
    ));
    report_metrics(&mut fig, "iMapReduce", &out.report.metrics);
    fig
}

/// Ablation over iMapReduce's design choices (the knobs DESIGN.md
/// calls out): asynchronous vs synchronous maps, eager vs batched
/// reduce→map hand-off, checkpoint interval, migration-based load
/// balancing on a heterogeneous cluster (DBLP-like SSSP), and the
/// map-side Combiner (K-means, one2all).
pub fn ablation(scale: f64, iters: usize) -> FigureResult {
    let g = dataset("DBLP").unwrap().generate(scale);
    let mut fig = FigureResult::new(
        "ablation",
        format!("Design-choice ablations (DBLP-like SSSP, scale {scale}, {iters} iters)"),
        "variant index",
        "total time (s)",
    );

    let run = |label: &str, cfg: IterConfig, spec: ClusterSpec| {
        let r = imr_runner_on(spec);
        sssp::load_sssp_imr(&r, &g, 0, cfg.num_tasks, "/a/state", "/a/static").unwrap();
        let out = r
            .run(
                &sssp::SsspIter,
                &cfg,
                "/a/state",
                "/a/static",
                "/a/out",
                &[],
            )
            .unwrap();
        (
            label.to_owned(),
            out.report.finished.as_secs_f64(),
            out.report.metrics,
        )
    };

    let local = || ClusterSpec::local(4).with_sample_scale(scale);
    let mut rows = vec![
        run(
            "baseline (async, batched handoff, ckpt=5)",
            IterConfig::new("s", 4, iters),
            local(),
        ),
        run(
            "sync maps",
            IterConfig::new("s", 4, iters).with_sync_maps(),
            local(),
        ),
        run(
            "eager handoff",
            IterConfig::new("s", 4, iters).with_eager_handoff(),
            local(),
        ),
        run(
            "checkpoint every iteration",
            IterConfig::new("s", 4, iters).with_checkpoint_interval(1),
            local(),
        ),
        run(
            "no checkpointing",
            IterConfig::new("s", 4, iters).with_checkpoint_interval(0),
            local(),
        ),
    ];

    // Load balancing on a cluster with one crippled worker.
    let mut hetero = local();
    hetero.nodes[0].speed = 0.3;
    rows.push(run(
        "heterogeneous, no load balancing",
        IterConfig::new("s", 4, iters).with_checkpoint_interval(1),
        hetero.clone(),
    ));
    rows.push(run(
        "heterogeneous, load balancing on",
        IterConfig::new("s", 4, iters)
            .with_checkpoint_interval(1)
            .with_load_balance(LoadBalance {
                deviation: 0.3,
                max_migrations: 2,
            }),
        hetero,
    ));

    // Combiner ablation lives on the K-means side (one2all).
    let points = generate_points((LASTFM_USERS * scale) as usize, 24, 10, 21);
    for (label, combiner) in [("k-means, no combiner", false), ("k-means, combiner", true)] {
        let r = imr_runner_on(local());
        let cfg = IterConfig::new("km", 4, 10).with_one2all();
        let out = kmeans::run_kmeans_imr(&r, &points, 10, &cfg, combiner).unwrap();
        rows.push((
            label.to_owned(),
            out.report.finished.as_secs_f64(),
            out.report.metrics,
        ));
    }

    for (i, (label, t, _)) in rows.iter().enumerate() {
        fig.note(format!("[{}] {label}: {t:.1}s", i + 1));
    }
    if let Some((label, _, m)) = rows
        .iter()
        .find(|(label, _, _)| label.contains("load balancing on"))
    {
        report_metrics(&mut fig, label, m);
    }
    let points_xy = rows
        .iter()
        .enumerate()
        .map(|(i, (_, t, _))| ((i + 1) as f64, *t))
        .collect();
    fig.push_series("total time", points_xy);
    fig
}
