//! `imr-benchmark` — the layered benchmark of the native iMapReduce
//! engines. See `README.md` for the workloads, metrics and bounds.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//!   this process and prints the result line the benchmark contract
//!   prescribes (last line of stdout); this is what the gate calls.
//! * Without `--workload` the process is the suite driver: it re-executes
//!   itself once per workload and pass (so peak RSS and allocator state
//!   are per workload), compares the state digests of the three
//!   map/reduce PageRank workloads, and prints one combined result.
//! * `--check-agreement` runs the end-to-end suite twice back to back and
//!   exits non-zero if any median differs by more than its bound.

mod adapter;
mod child;
mod json;
mod metrics;
mod probes;
mod spans;
mod stats;
mod workloads;

use child::Row;
use json::Json;
use metrics::{END_TO_END, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::Ordering;
use workloads::{Sizes, Workload, REP_TIMED_OUT};

const USAGE: &str =
    "usage: imr-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--quick] [--check-agreement] [--out DIR] [--print-benchmark-json]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_agreement: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        check_agreement: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{USAGE}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            "--check-agreement" => args.check_agreement = true,
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(args))
}

/// `IMR_WORKER_BIN`, or the `imr-worker` next to this executable.
fn worker_bin() -> Result<PathBuf, String> {
    let bin = match std::env::var_os("IMR_WORKER_BIN") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name("imr-worker"),
    };
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "worker binary not found at {}: build the root workspace first \
             (cargo build --release --offline) or set IMR_WORKER_BIN; benchmark/run.sh does both",
            bin.display()
        ))
    }
}

/// After a rep timed out its thread may still hold worker processes:
/// kill this process's children so none outlives the run.
fn kill_children() {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return;
    };
    for entry in dir.flatten() {
        let pid = entry.file_name().to_string_lossy().into_owned();
        if pid.parse::<u32>().is_err() {
            continue;
        }
        let stat = std::fs::read_to_string(entry.path().join("stat")).unwrap_or_default();
        // "pid (comm) state ppid ...": comm may contain spaces, so split after ')'.
        let ppid = stat
            .rsplit_once(')')
            .and_then(|(_, rest)| rest.split_whitespace().nth(1).map(str::to_owned));
        if ppid.as_deref() == Some(me.as_str()) {
            let _ = Command::new("kill").args(["-9", &pid]).status();
        }
    }
}

fn run_child(args: &Args, name: &str) -> ExitCode {
    let Some(wl) = Workload::parse(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", names.join(", "));
        return ExitCode::from(2);
    };
    let worker = match worker_bin() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("imr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.quick {
        Sizes::quick(worker)
    } else {
        Sizes::full(worker)
    };
    eprintln!(
        "[{name}] closed loop, one driver process, pairs = slots = {} (nproc {}), seed {}{}",
        sizes.pairs,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        args.seed,
        if args.quick {
            "; --quick: tiny sizes, NOT comparable"
        } else {
            ""
        }
    );
    let report = if args.trace {
        child::run_traced(wl, name, sizes, args.seed, &args.out)
    } else {
        child::run_e2e(wl, name, sizes, args.seed, args.seconds)
    };
    eprint!("{}", report.human_table());
    print!("{}", report.detail_lines());
    println!(
        "status\t{name}\t{}\t{}\t{}",
        report.correct(),
        report.attempted,
        report.failed
    );
    println!("{}", report.result_json().render());
    if REP_TIMED_OUT.load(Ordering::SeqCst) {
        kill_children();
        std::process::exit(0);
    }
    ExitCode::SUCCESS
}

/// What the suite driver learned from one child process.
#[derive(Default)]
struct Parsed {
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: Vec<Row>,
    digest: Option<String>,
}

fn parse_child_stdout(stdout: &str) -> Parsed {
    let mut p = Parsed::default();
    for line in stdout.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        match f.as_slice() {
            ["row", _, metric, unit, n, value, q1, q3] => p.rows.push(Row {
                metric: metric.to_string(),
                unit: unit.to_string(),
                n: n.parse().unwrap_or(0),
                value: value.parse().unwrap_or(f64::NAN),
                q1: q1.parse().unwrap_or(f64::NAN),
                q3: q3.parse().unwrap_or(f64::NAN),
            }),
            ["digest", _, hex] => p.digest = Some(hex.to_string()),
            ["status", _, correct, attempted, failed] => {
                p.correct = *correct == "true";
                p.attempted = attempted.parse().unwrap_or(0);
                p.failed = failed.parse().unwrap_or(0);
            }
            _ => {}
        }
    }
    p
}

/// Re-executes this binary for one workload and pass. A child that dies
/// without a status line counts as one failed attempt.
fn spawn_child(args: &Args, name: &str, trace: bool) -> Parsed {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(&args.out)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.quick {
        cmd.arg("--quick");
    }
    let parsed = cmd
        .output()
        .ok()
        .map(|o| parse_child_stdout(&String::from_utf8_lossy(&o.stdout)));
    match parsed {
        Some(p) if p.attempted > 0 => p,
        _ => {
            eprintln!("[{name}] child process produced no result");
            Parsed {
                attempted: 1,
                failed: 1,
                ..Parsed::default()
            }
        }
    }
}

/// The three map/reduce PageRank workloads run the same job on the same
/// data: their final states must be bit-identical.
const SAME_STATE: [&str; 3] = ["pagerank_threads", "pagerank_tcp", "pagerank_ckpt_kill"];

fn digests_equal(set: &BTreeMap<&str, Parsed>) -> bool {
    let digests: Vec<Option<&String>> = SAME_STATE
        .iter()
        .map(|w| set.get(w).and_then(|p| p.digest.as_ref()))
        .collect();
    digests.iter().all(|d| d.is_some() && *d == digests[0])
}

fn run_set(args: &Args, trace: bool) -> BTreeMap<&'static str, Parsed> {
    WORKLOADS
        .iter()
        .map(|w| (w.name, spawn_child(args, w.name, trace)))
        .collect()
}

fn run_suite(args: &Args) -> ExitCode {
    let e2e = run_set(args, false);
    let traced = run_set(args, true);
    let same = digests_equal(&e2e);
    eprintln!(
        "\nstate digests of {}: {}",
        SAME_STATE.join(", "),
        if same { "equal" } else { "DIFFER" }
    );
    let mut ok = same;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let (a, b) = (&e2e[w.name], &traced[w.name]);
        ok &= a.correct && b.correct;
        let attempted = a.attempted + b.attempted;
        let failed = a.failed + b.failed;
        eprintln!(
            "{:<20} fail_share {}/{} = {}",
            w.name,
            failed,
            attempted,
            failed as f64 / attempted as f64
        );
        let metrics = a.rows.iter().chain(&b.rows).map(|r| {
            let fields = [
                ("value", Json::Num(r.value)),
                ("unit", Json::str(&r.unit)),
                ("n", Json::Int(r.n as i64)),
                ("q1", Json::Num(r.q1)),
                ("q3", Json::Num(r.q3)),
            ];
            (r.metric.clone(), Json::obj(fields))
        });
        workloads.push((
            w.name,
            Json::obj([
                ("correct", Json::Bool(a.correct && b.correct)),
                ("attempted", Json::Int(attempted as i64)),
                ("failed", Json::Int(failed as i64)),
                (
                    "state_digest",
                    a.digest.as_ref().map_or(Json::Null, Json::str),
                ),
                ("metrics", Json::obj(metrics)),
            ]),
        ));
    }
    let result = Json::obj([
        ("claim", Json::Null),
        ("comparable", Json::Bool(!args.quick)),
        ("seed", Json::Int(args.seed as i64)),
        ("correct", Json::Bool(ok)),
        ("digests_equal", Json::Bool(same)),
        ("workloads", Json::obj(workloads)),
    ]);
    println!("{}", result.render());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two sets of the same code must agree within the benchmark's own bounds.
fn check_agreement(args: &Args) -> ExitCode {
    let sets = [run_set(args, false), run_set(args, false)];
    let mut bad = Vec::new();
    eprintln!(
        "\n{:<20} {:<14} {:>14} {:>14} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "A-vs-B", "spread A", "spread B", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let find = |set: &BTreeMap<&str, Parsed>| {
                set[w.name]
                    .rows
                    .iter()
                    .find(|r| r.metric == m.name)
                    .cloned()
            };
            let (Some(a), Some(b)) = (find(&sets[0]), find(&sets[1])) else {
                bad.push(format!("({}, {}): missing", m.name, w.name));
                continue;
            };
            let diff = stats::worse_by(a.value, b.value, m.better).abs();
            let within = |r: &Row| (r.q3 - r.q1) / r.value;
            eprintln!(
                "{:<20} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%",
                w.name,
                m.name,
                a.value,
                b.value,
                diff * 100.0,
                within(&a) * 100.0,
                within(&b) * 100.0,
                m.bound * 100.0
            );
            if !stats::agrees(a.value, b.value, m.better, m.bound) {
                bad.push(format!(
                    "({}, {}): {} vs {}",
                    m.name, w.name, a.value, b.value
                ));
            }
        }
    }
    let failed: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| sets.iter().any(|s| !s[w].correct))
        .collect();
    if !failed.is_empty() {
        bad.push(format!("incorrect runs: {}", failed.join(", ")));
    }
    if !sets.iter().all(digests_equal) {
        bad.push("state digests differ".to_owned());
    }
    if bad.is_empty() {
        eprintln!("agreement: every end-to-end median repeats within its bound");
        ExitCode::SUCCESS
    } else {
        eprintln!("agreement FAILED:\n  {}", bad.join("\n  "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("imr-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_child(&args, name),
        None if args.check_agreement => check_agreement(&args),
        None => run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use child::ChildReport;

    #[test]
    fn parent_parses_what_a_child_prints() {
        let report = ChildReport {
            workload: "pagerank_tcp".into(),
            attempted: 6,
            digest: Some(0xabc),
            rows: vec![Row {
                metric: "job_wall_s".into(),
                unit: "s".into(),
                n: 5,
                value: 2.5,
                q1: 2.4,
                q3: 2.75,
            }],
            ..ChildReport::default()
        };
        let stdout = format!(
            "{}status\tpagerank_tcp\ttrue\t6\t0\n{}\n",
            report.detail_lines(),
            report.result_json().render()
        );
        let p = parse_child_stdout(&stdout);
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (6, 0));
        assert_eq!(p.rows, report.rows);
        assert_eq!(p.digest.as_deref(), Some("0000000000000abc"));
    }

    /// The `--quick` smoke: every workload, tiny sizes, one timed rep,
    /// through the same code path as a gated run. `pagerank_tcp` needs the
    /// worker binary, so it joins in only where one is built
    /// (`IMR_WORKER_BIN`, as `run.sh` sets it).
    #[test]
    fn quick_smoke_runs_every_workload_in_seconds() {
        let started = std::time::Instant::now();
        let worker = worker_bin().ok();
        for w in &WORKLOADS {
            let wl = Workload::parse(w.name).expect("every named workload parses");
            if wl == Workload::PagerankTcp && worker.is_none() {
                eprintln!("skipping pagerank_tcp: no imr-worker binary (set IMR_WORKER_BIN)");
                continue;
            }
            let sizes = Sizes::quick(worker.clone().unwrap_or_default());
            let report = child::run_e2e(wl, w.name, sizes, 11, 0.1);
            assert!(report.correct(), "{}: {:?}", w.name, report.errors);
            // Cross-engine reference (two workloads) + warm-up + one timed rep.
            assert!((2..=3).contains(&report.attempted), "{}", w.name);
            let names: Vec<&str> = report.rows.iter().map(|r| r.metric.as_str()).collect();
            let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, expected);
            assert!(
                report.rows.iter().all(|r| r.value > 0.0),
                "{}: a metric read zero",
                w.name
            );
        }
        assert!(
            started.elapsed().as_secs() < 10,
            "the smoke must stay a smoke"
        );
    }

    #[test]
    fn digest_equality_needs_all_three_present_and_equal() {
        let with = |d: [Option<&str>; 3]| -> BTreeMap<&'static str, Parsed> {
            SAME_STATE
                .iter()
                .zip(d)
                .map(|(w, d)| {
                    let p = Parsed {
                        digest: d.map(str::to_owned),
                        ..Parsed::default()
                    };
                    (*w, p)
                })
                .collect()
        };
        assert!(digests_equal(&with([Some("aa"), Some("aa"), Some("aa")])));
        assert!(!digests_equal(&with([Some("aa"), Some("ab"), Some("aa")])));
        assert!(!digests_equal(&with([Some("aa"), None, Some("aa")])));
    }
}
