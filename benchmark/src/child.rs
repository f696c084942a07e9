//! One workload in one process: the end-to-end pass (`--trace 0`, no
//! trace ring and no telemetry attached) and the traced pass
//! (`--trace 1`: spans, per-layer metrics, micro probes).

use crate::adapter::EngineEvent;
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, percentile_with_tail, quartiles, quiet_reps};
use crate::workloads::{
    build_reference, guarded_rep, RepOut, Sizes, Variant, Workload, REP_TIMED_OUT,
};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Never start another rep once a run has used this much wall time: the
/// contract allows a run 180 s.
const RUN_CAP: Duration = Duration::from_secs(120);

/// One reported metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub metric: String,
    pub unit: String,
    /// Samples the value was computed from.
    pub n: usize,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

#[derive(Debug, Default)]
pub struct ChildReport {
    pub workload: String,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
    pub digest: Option<u64>,
    pub errors: Vec<String>,
}

impl ChildReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.rows.iter().all(|r| r.value.is_finite())
    }

    /// The contract's result line.
    pub fn result_json(&self) -> Json {
        let metrics = self.rows.iter().map(|r| {
            (
                r.metric.clone(),
                Json::obj([("value", Json::Num(r.value)), ("unit", Json::str(&r.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// Tab-separated detail lines a parent process parses: the result
    /// line carries only values, these carry quartiles and sample counts.
    pub fn detail_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out += &format!(
                "row\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                self.workload, r.metric, r.unit, r.n, r.value, r.q1, r.q3
            );
        }
        if let Some(d) = self.digest {
            out += &format!("digest\t{}\t{d:016x}\n", self.workload);
        }
        out
    }

    pub fn human_table(&self) -> String {
        let mut out = format!(
            "workload {} ({}): attempted {} failed {} correct {}\n  {:<40} {:>6} {:>16} {:>14} {:>14}  unit\n",
            self.workload,
            if self.trace { "traced pass" } else { "end-to-end pass" },
            self.attempted,
            self.failed,
            self.correct(),
            "metric",
            "n",
            "value",
            "q1",
            "q3"
        );
        for r in &self.rows {
            out += &format!(
                "  {:<40} {:>6} {:>16.6} {:>14.6} {:>14.6}  {}\n",
                r.metric, r.n, r.value, r.q1, r.q3, r.unit
            );
        }
        for e in &self.errors {
            out += &format!("  FAILED: {e}\n");
        }
        out
    }
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(f64::NAN, |k| k / 1024.0)
}

fn row_of(metric: &str, unit: &str, value: f64, samples: &[f64]) -> Row {
    let [q1, _, q3] = if samples.is_empty() {
        [value; 3]
    } else {
        quartiles(samples)
    };
    Row {
        metric: metric.to_owned(),
        unit: unit.to_owned(),
        n: samples.len().max(1),
        value,
        q1,
        q3,
    }
}

/// Counts one rep and keeps its error, if any.
struct Tally<'a> {
    report: &'a mut ChildReport,
    first_digest: Option<u64>,
}

impl Tally<'_> {
    /// Every successful rep must leave the bit-identical final state.
    fn take(&mut self, what: &str, rep: Result<RepOut, String>) -> Option<RepOut> {
        let rep = rep.and_then(|r| match self.first_digest {
            Some(d) if d != r.digest => Err(format!(
                "state digest {:016x} differs from the first rep's {d:016x}",
                r.digest
            )),
            _ => Ok(r),
        });
        let rep = self.count(what, rep)?;
        self.first_digest.get_or_insert(rep.digest);
        Some(rep)
    }

    /// Counts a rep whose state is checked against the reference only: a
    /// different pair count sums floats in a different order.
    fn count(&mut self, what: &str, rep: Result<RepOut, String>) -> Option<RepOut> {
        self.report.attempted += 1;
        rep.map_err(|e| {
            self.report.failed += 1;
            self.report.errors.push(format!("{what}: {e}"));
        })
        .ok()
    }
}

/// The plain thread-engine digest `pagerank_tcp` and `pagerank_ckpt_kill`
/// must reproduce bit for bit: one `pagerank_threads` rep, outside every
/// timed region.
fn cross_engine_digest(
    wl: Workload,
    sz: &Arc<Sizes>,
    seed: u64,
    reference: &Arc<crate::workloads::Reference>,
    tally: &mut Tally<'_>,
) {
    if matches!(wl, Workload::PagerankTcp | Workload::PagerankCkptKill) {
        let plain = guarded_rep(
            Workload::PagerankThreads,
            sz,
            seed,
            reference,
            Variant::default(),
        );
        tally.take("cross-engine reference (pagerank_threads)", plain);
    }
}

pub fn run_e2e(wl: Workload, name: &str, sz: Sizes, seed: u64, seconds: f64) -> ChildReport {
    let started = Instant::now();
    let mut report = ChildReport {
        workload: name.to_owned(),
        ..ChildReport::default()
    };
    let sz = Arc::new(sz);
    let reference = Arc::new(build_reference(wl, &sz, seed));
    let mut tally = Tally {
        report: &mut report,
        first_digest: None,
    };
    cross_engine_digest(wl, &sz, seed, &reference, &mut tally);
    tally.take(
        "warm-up",
        guarded_rep(wl, &sz, seed, &reference, Variant::default()),
    );

    let mut timed_reps: Vec<RepOut> = Vec::new();
    let timed = Instant::now();
    let mut reps = 0usize;
    while (reps < sz.min_reps || timed.elapsed().as_secs_f64() < seconds)
        && reps < sz.max_reps
        && started.elapsed() < RUN_CAP
        && !REP_TIMED_OUT.load(Ordering::SeqCst)
    {
        reps += 1;
        let out = guarded_rep(wl, &sz, seed, &reference, Variant::default());
        timed_reps.extend(tally.take(&format!("rep {reps}"), out));
    }
    report.digest = tally.first_digest;

    // Time metrics are read off the quiet reps only (see `quiet_reps`);
    // set-up time, as the contract asks, is the median over every rep.
    let all_walls: Vec<f64> = timed_reps.iter().map(|r| r.wall_s).collect();
    let setup: Vec<f64> = timed_reps.iter().map(|r| r.setup_s).collect();
    let quiet: Vec<&RepOut> = quiet_reps(&all_walls)
        .into_iter()
        .map(|i| &timed_reps[i])
        .collect();
    let wall: Vec<f64> = quiet.iter().map(|r| r.wall_s).collect();
    let unit_ms: Vec<f64> = quiet
        .iter()
        .flat_map(|r| r.unit_ms.iter().copied())
        .collect();
    let jobs = quiet.first().map_or(0, |r| r.jobs_done);
    let job_wall = median(&wall);
    eprintln!(
        "[{name}] job_wall_s per timed rep: {all_walls:.4?}; the {} quietest are used, {} progress-unit \
         samples; peak_rss_mb is this process only (TCP worker processes are not included)",
        wall.len(),
        unit_ms.len()
    );
    for m in &END_TO_END {
        let row = match m.name {
            "setup_s" => row_of(m.name, m.unit, median(&setup), &setup),
            "job_wall_s" => row_of(m.name, m.unit, job_wall, &wall),
            "iter_ms_p50" => row_of(m.name, m.unit, median(&unit_ms), &unit_ms),
            "jobs_per_s" => {
                let rates: Vec<f64> = wall.iter().map(|w| jobs as f64 / w).collect();
                row_of(m.name, m.unit, jobs as f64 / job_wall, &rates)
            }
            "peak_rss_mb" => row_of(m.name, m.unit, peak_rss_mib(), &[]),
            other => unreachable!("end-to-end metric {other} has no definition"),
        };
        report.rows.push(row);
    }
    report
}

/// Per-layer numbers read off the engine's own events and histograms,
/// summed over the traced reps.
#[derive(Default)]
struct PairLoop {
    phase: [(u64, u64); 5],
    iter_span_ns: u64,
    iter_spans: u64,
    skew_sum: f64,
    skew_n: u64,
    overlap: Vec<f64>,
    dropped: u64,
}

impl PairLoop {
    fn add_run(&mut self, events: &[EngineEvent]) {
        // (pair, iteration) → IterStart stamp; busy time per (iteration, pair).
        let mut open: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut busy: BTreeMap<u32, BTreeMap<u32, u64>> = BTreeMap::new();
        for e in events {
            match e.name {
                "IterStart" => {
                    open.insert((e.pair, e.iteration), e.start_ns);
                }
                "IterEnd" => {
                    if let Some(start) = open.remove(&(e.pair, e.iteration)) {
                        self.iter_span_ns += e.start_ns.saturating_sub(start);
                        self.iter_spans += 1;
                    }
                }
                "MapPhase" | "ReducePhase" | "DeltaRound" => {
                    *busy
                        .entry(e.iteration)
                        .or_default()
                        .entry(e.pair)
                        .or_default() += e.end_ns - e.start_ns;
                }
                _ => {}
            }
        }
        for per_pair in busy.values() {
            let total: u64 = per_pair.values().sum();
            let max = per_pair.values().copied().max().unwrap_or(0);
            if total > 0 {
                self.skew_sum += max as f64 * per_pair.len() as f64 / total as f64;
                self.skew_n += 1;
            }
        }
    }

    fn add_rep(&mut self, r: &RepOut) {
        for (t, p) in self.phase.iter_mut().zip(r.phase_totals) {
            *t = (t.0 + p.0, t.1 + p.1);
        }
        for run in &r.events {
            self.add_run(run);
        }
        self.overlap.push(r.async_overlap);
        self.dropped += r.dropped_samples;
    }

    fn mean_ms(&self, phase: usize) -> f64 {
        let (sum, count) = self.phase[phase];
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64 / 1e6
        }
    }

    fn metrics(&self, out: &mut BTreeMap<&'static str, f64>) {
        const NAMES: [&str; 5] = [
            "native.map_ms_mean",
            "native.reduce_ms_mean",
            "native.handoff_ms_mean",
            "native.barrier_wait_ms_mean",
            "native.checkpoint_write_ms_mean",
        ];
        for (i, name) in NAMES.into_iter().enumerate() {
            out.insert(name, self.mean_ms(i));
        }
        if self.iter_spans > 0 {
            // Inside IterStart→IterEnd a pair maps, reduces, hands off, or
            // is blocked in send/recv; the barrier wait precedes IterStart.
            let inside: u64 = self.phase[..3].iter().map(|p| p.0).sum();
            let waited = self.iter_span_ns.saturating_sub(inside);
            out.insert(
                "native.shuffle_wait_ms_mean",
                waited as f64 / self.iter_spans as f64 / 1e6,
            );
            let busy = self.phase[0].0 + self.phase[1].0;
            out.insert(
                "native.busy_share",
                busy as f64 / self.iter_span_ns.max(1) as f64,
            );
        }
        if self.skew_n > 0 {
            out.insert("native.pair_skew", self.skew_sum / self.skew_n as f64);
        }
        out.insert("native.async_overlap", median(&self.overlap));
        out.insert("telemetry.dropped_samples", self.dropped as f64);
    }
}

fn lay_spans(spans: &mut Spans, origin: Instant, label: &str, rep_no: u32, r: &RepOut) {
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let (Some(first), Some(last)) = (r.phases.first(), r.phases.last()) else {
        return;
    };
    let rep = spans.record(label, ns(first.1), ns(last.2), None, rep_no);
    for &(name, start, end) in &r.phases {
        let id = spans.record(name, ns(start), ns(end), Some(rep), rep_no);
        // Engine events are stamped since the start of the run call; a
        // service batch has one clock per job, which cannot be placed.
        if name == "run" && r.jobs_done == 1 {
            for e in r.events.iter().flatten() {
                spans.adopt(e.name, id, e.start_ns, e.end_ns, e.pair);
            }
        }
    }
}

pub fn run_traced(
    wl: Workload,
    name: &str,
    sz: Sizes,
    seed: u64,
    out_dir: &std::path::Path,
) -> ChildReport {
    let mut report = ChildReport {
        workload: name.to_owned(),
        trace: true,
        ..ChildReport::default()
    };
    let sz = Arc::new(sz);
    let reference = Arc::new(build_reference(wl, &sz, seed));
    let mut spans = Spans::new(name);
    let origin = spans.origin();
    let mut tally = Tally {
        report: &mut report,
        first_digest: None,
    };
    cross_engine_digest(wl, &sz, seed, &reference, &mut tally);
    let traced = Variant {
        traced: true,
        ..Variant::default()
    };
    let mut values: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();

    // Warm-up, then untraced and traced reps alternating, so the overhead
    // ratio compares like with like; the untraced reps beyond that give the
    // iteration tail its hundred samples.
    tally.take(
        "warm-up",
        guarded_rep(wl, &sz, seed, &reference, Variant::default()),
    );
    let (mut plain_wall, mut traced_wall, mut plain_units) = (Vec::new(), Vec::new(), Vec::new());
    let mut pair_loop = PairLoop::default();
    let mut last_traced = None;
    for i in 1..=sz.plain_reps.max(sz.trace_reps) {
        if i <= sz.plain_reps {
            let rep = guarded_rep(wl, &sz, seed, &reference, Variant::default());
            if let Some(r) = tally.take(&format!("untraced rep {i}"), rep) {
                lay_spans(&mut spans, origin, "rep:untraced", i, &r);
                plain_wall.push(r.wall_s);
                plain_units.extend(r.unit_ms);
            }
        }
        if i <= sz.trace_reps {
            let rep = guarded_rep(wl, &sz, seed, &reference, traced);
            if let Some(r) = tally.take(&format!("traced rep {i}"), rep) {
                lay_spans(&mut spans, origin, "rep:traced", i, &r);
                traced_wall.push(r.wall_s);
                pair_loop.add_rep(&r);
                last_traced = Some(r);
            }
        }
    }
    if wl != Workload::JobsMixed && !plain_units.is_empty() {
        let (p90, at) = percentile_with_tail(&plain_units, 0.90, 10);
        values.insert("native.iter_ms_p90", p90);
        eprintln!(
            "[{name}] native.iter_ms_p90 read at p{:.0} of {} untraced iteration samples",
            at * 100.0,
            plain_units.len()
        );
    }
    pair_loop.metrics(&mut values);
    if let Some(r) = &last_traced {
        let iters = r.iterations.max(1) as f64;
        let c = &r.counters;
        values.insert(
            "records.shuffle_bytes_per_iter",
            (c.shuffle_local_bytes + c.shuffle_remote_bytes) as f64 / iters,
        );
        values.insert(
            "records.reduce_input_records_per_iter",
            c.reduce_input_records as f64 / iters,
        );
        values.insert("dfs.checkpoint_bytes", c.checkpoint_bytes as f64);
        values.insert("native.recoveries", r.recoveries as f64);
        if wl == Workload::PagerankDelta {
            values.insert("core.delta_epochs", r.iterations as f64);
            values.insert("core.delta_deltas_sent", c.deltas_sent as f64);
        }
    }
    // The job service attaches a trace ring and telemetry to every job by
    // itself, so jobs_mixed has no untraced base to compare with.
    if wl != Workload::JobsMixed && !plain_wall.is_empty() && !traced_wall.is_empty() {
        values.insert(
            "trace.overhead_ratio",
            median(&traced_wall) / median(&plain_wall),
        );
        eprintln!(
            "[{name}] trace.overhead_ratio = traced job_wall_s {:.4} ({} reps) / untraced {:.4} ({} reps), medians",
            median(&traced_wall),
            traced_wall.len(),
            median(&plain_wall),
            plain_wall.len()
        );
    }

    // Difference metrics: one extra configuration of the same workload.
    let mut extra = |label: &str, wl: Workload, v: Variant, reps: usize| -> Vec<RepOut> {
        (1..=reps)
            .filter_map(|i| {
                let rep = guarded_rep(wl, &sz, seed, &reference, v);
                let what = format!("{label} rep {i}");
                let r = if v.pairs.is_some() {
                    tally.count(&what, rep)
                } else {
                    tally.take(&what, rep)
                }?;
                lay_spans(&mut spans, origin, &format!("rep:{label}"), i as u32, &r);
                Some(r)
            })
            .collect()
    };
    match wl {
        Workload::PagerankThreads if sz.pairs == 2 => {
            let one = Variant {
                pairs: Some(1),
                ..Variant::default()
            };
            let walls: Vec<f64> = extra("one-pair", wl, one, 1)
                .iter()
                .map(|r| r.wall_s)
                .collect();
            if !walls.is_empty() && !plain_wall.is_empty() {
                values.insert(
                    "native.scaling_eff_2p",
                    median(&walls) / (2.0 * median(&plain_wall)),
                );
            }
        }
        Workload::PagerankTcp => {
            let threads: Vec<f64> = extra(
                "threads",
                Workload::PagerankThreads,
                Variant::default(),
                sz.trace_reps as usize,
            )
            .into_iter()
            .flat_map(|r| r.unit_ms)
            .collect();
            if !threads.is_empty() && !plain_units.is_empty() {
                values.insert(
                    "net.tcp_extra_ms_per_iter",
                    median(&plain_units) - median(&threads),
                );
            }
        }
        Workload::PagerankCkptKill => {
            let no_kill = Variant {
                no_kill: true,
                ..Variant::default()
            };
            let walls: Vec<f64> = extra("no-kill", wl, no_kill, sz.trace_reps as usize)
                .iter()
                .map(|r| r.wall_s)
                .collect();
            if !walls.is_empty() && !plain_wall.is_empty() {
                values.insert(
                    "native.recovery_ms",
                    (median(&plain_wall) - median(&walls)) * 1e3,
                );
            }
        }
        _ => {}
    }
    report.digest = tally.first_digest;

    if !REP_TIMED_OUT.load(Ordering::SeqCst) {
        match probes::run_all(&sz, seed, &mut spans) {
            Ok(probed) => values.extend(probed),
            Err(e) => {
                report.attempted += 1;
                report.failed += 1;
                report.errors.push(format!("micro probes: {e}"));
            }
        }
    }

    for m in &PER_LAYER {
        report
            .rows
            .push(row_of(m.name, m.unit, values[m.name], &[]));
    }
    let path = out_dir.join(format!("trace-{name}.json"));
    let written = std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, spans.chrome_json().render()));
    match written {
        Ok(()) => eprintln!("[{name}] wrote {}", path.display()),
        Err(e) => report
            .errors
            .push(format!("writing {}: {e}", path.display())),
    }
    eprint!("{}", spans.self_time_table());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        name: &'static str,
        pair: u32,
        iteration: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> EngineEvent {
        EngineEvent {
            name,
            start_ns,
            end_ns,
            pair,
            iteration,
        }
    }

    #[test]
    fn pair_loop_shape_from_events_and_histograms() {
        let mut p = PairLoop::default();
        // One iteration, two pairs: pair 1 busy 60, pair 2 busy 20.
        p.add_run(&[
            ev("IterStart", 1, 1, 0, 0),
            ev("MapPhase", 1, 1, 0, 40),
            ev("ReducePhase", 1, 1, 50, 70),
            ev("IterEnd", 1, 1, 100, 100),
            ev("IterStart", 2, 1, 0, 0),
            ev("MapPhase", 2, 1, 0, 10),
            ev("ReducePhase", 2, 1, 80, 90),
            ev("IterEnd", 2, 1, 100, 100),
        ]);
        p.phase = [(50, 2), (30, 2), (20, 2), (0, 0), (0, 0)];
        p.overlap.push(0.5);
        let mut m = BTreeMap::new();
        p.metrics(&mut m);
        assert_eq!(m["native.map_ms_mean"], 25.0 / 1e6);
        assert_eq!(m["native.barrier_wait_ms_mean"], 0.0);
        // 200 ns of iteration span, 100 inside phases → 50 waited per span.
        assert_eq!(m["native.shuffle_wait_ms_mean"], 50.0 / 1e6);
        assert_eq!(m["native.busy_share"], 0.4);
        // max 60 over mean 40.
        assert_eq!(m["native.pair_skew"], 1.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = ChildReport {
            workload: "w".into(),
            attempted: 7,
            rows: vec![row_of("job_wall_s", "s", 1.25, &[1.0, 1.25, 1.5])],
            ..ChildReport::default()
        };
        assert_eq!(
            report.result_json().render(),
            r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"job_wall_s": {"value": 1.25, "unit": "s"}}}"#
        );
        assert_eq!(
            report.detail_lines(),
            "row\tw\tjob_wall_s\ts\t3\t1.25\t1\t1.5\n"
        );
        let nan = ChildReport {
            rows: vec![row_of("x", "s", f64::NAN, &[])],
            ..ChildReport::default()
        };
        assert!(
            !nan.correct(),
            "a metric that could not be computed fails the run"
        );
    }
}
