//! The budget ledger: the persistent-task claims (paper §3.2) as
//! numbers that can fail. Each row of [`BUDGETS`] counts what a run asks
//! of the allocator, and DESIGN.md §6's "Budget ledger" lists the same
//! rows with the same budgets.
//!
//! A persistent pair keeps its emit buffer and its shuffle's index
//! buffers, merges straight off the decode cursors and folds each value
//! into one accumulator for the open key, so one more iteration
//! allocates the segments (1.0 × the bytes it shuffles) and the new
//! state (≈ 0.17 × on this graph). A `Vec` per key reads ≈ 1.9 ×; an
//! emit buffer re-grown from empty, copied segments or materialised
//! merges read 12–15 ×.
//!
//! A delta round copies its segments out of the fold buffer it keeps and
//! ranks its pending keys in a kept buffer: ≈ 17 bytes a delta sent. A
//! ranking in a fresh `Vec` each round reads ≈ 54.
//!
//! The TCP fabric frames a segment from its own allocation, and both
//! ends read a large frame into the buffer of the segment they last
//! sent on, so a steady exchange allocates only message heads. A copy
//! into each message and a fresh buffer for each read reads ≈ 4 ×.
//!
//! Each pair holds its static part once, as the encoded block the DFS
//! read (`imapreduce::StaticPart`), and a K-means map side with the
//! combiner folds each point into its centroid's partial sum
//! (`imr_records::FoldTable`). So iterations lift the live heap by 16
//! partial sums a pair, not by ≈ 2.5 × the static data, and the load
//! lifts it by the pairs' state and buffers, not by a read copy or a
//! decoded copy of the records. The load budget leaves room for the
//! four bytes of offset per record that a delta-mode part keeps.
//!
//! This file is its own test crate so that the counting allocator — the
//! one `GlobalAlloc` impl, `unsafe` by the trait's definition — stays
//! out of the libraries. Its tests share one measurement of the whole
//! ledger, taken by whichever asks first while the other waits, so
//! nothing else allocates while a row counts.

use bytes::Bytes;
use imapreduce::{Emitter, IterConfig, IterativeJob, StateInput};
use imr_algorithms::kmeans::{load_kmeans_imr, KmState, KmeansIter};
use imr_algorithms::pagerank::{run_pagerank_delta, run_pagerank_imr};
use imr_algorithms::testutil::native_runner;
use imr_dfs::Dfs;
use imr_graph::{generate_graph, generate_points, pagerank_degree_dist};
use imr_mapreduce::io::part_path;
use imr_native::NativeRunner;
use imr_net::frame::{reclaim, FrameReader, FrameWriter};
use imr_net::proto::{PairCfg, PairDirs, PairMode, PairPlan, ToCoord, ToWorker, WorkerSetup};
use imr_net::{NetError, NetPolicy, Transport, WorkerConn};
use imr_records::Codec;
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufWriter, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A ledger row: its name, its budget, and the run that reads it.
type Row = (&'static str, f64, fn() -> f64);

/// The ledger, measured top to bottom.
#[rustfmt::skip]
const BUDGETS: [Row; 5] = [
    ("alloc_per_shuffled_byte", 1.3, alloc_per_shuffled_byte),
    ("alloc_per_delta_sent", 20.0, alloc_per_delta_sent),
    ("tcp_alloc_per_segment_byte", 0.05, tcp_alloc_per_segment_byte),
    ("live_lift_per_static_byte", 0.25, live_lift_per_static_byte),
    ("load_lift_per_static_byte", 0.1, load_lift_per_static_byte),
];

/// Bytes requested from the allocator so far, on every thread. A
/// reallocation counts its whole new size: it may move the block.
static REQUESTED: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, on every thread.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since it was last reset.
static HIGH: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    REQUESTED.fetch_add(bytes as u64, Ordering::Relaxed);
    let now = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    HIGH.fetch_max(now, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counters are
// statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving reallocation holds both blocks for a moment.
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PAIRS: usize = 2;

/// Runs `iters` PageRank iterations on `PAIRS` native pairs; returns the
/// bytes the whole run (load included) requested and the bytes it
/// shuffled.
fn run(iters: usize) -> (u64, u64) {
    let graph = generate_graph(20_000, 140_000, pagerank_degree_dist(), 7);
    let runner = native_runner(PAIRS);
    let cfg = IterConfig::new("pr", PAIRS, iters);
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = run_pagerank_imr(&runner, &graph, &cfg).expect("pagerank runs");
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(out.iterations, iters);
    (requested, runner.metrics().shuffle_local_bytes.get())
}

/// Bytes one more iteration allocates per pair, over the bytes an
/// iteration shuffles per pair.
fn alloc_per_shuffled_byte() -> f64 {
    let (short, _) = run(5);
    let (long, shuffled) = run(10);
    let allocated = (long - short) / (5 * PAIRS) as u64;
    allocated as f64 / (shuffled / (10 * PAIRS) as u64) as f64
}

/// Runs `checks` delta-accumulative PageRank checks (one round each) on
/// the same graph and pairs; returns the bytes the whole run requested
/// and the deltas it sent.
fn run_delta(checks: usize) -> (u64, u64) {
    let graph = generate_graph(20_000, 140_000, pagerank_degree_dist(), 7);
    let runner = native_runner(PAIRS);
    let cfg = IterConfig::new("prd", PAIRS, checks)
        .with_distance_threshold(1e-12)
        .with_accumulative_mode();
    let before = REQUESTED.load(Ordering::Relaxed);
    let out = run_pagerank_delta(&runner, &graph, &cfg).expect("delta pagerank runs");
    let requested = REQUESTED.load(Ordering::Relaxed) - before;
    assert_eq!(out.iterations, checks);
    (requested, runner.metrics().deltas_sent.get())
}

/// Bytes five more delta checks allocate per delta they send.
fn alloc_per_delta_sent() -> f64 {
    let (short, sent_short) = run_delta(5);
    let (long, sent_long) = run_delta(10);
    (long - short) as f64 / (sent_long - sent_short) as f64
}

/// The TCP row's segment: well past any allocator's mmap threshold.
const SEGMENT: usize = 1 << 20;

/// The hub's half of the TCP row, through the calls the real hub makes:
/// greets pair 0 of a two-pair job, then forwards each of its segments
/// back as pair 1's — framed from the segment's own bytes, whose buffer
/// then takes the link's next frame — and answers each credit, until
/// the worker hangs up.
fn scripted_hub(listener: TcpListener) {
    let (sock, _) = listener.accept().expect("worker connects");
    let mut reader = FrameReader::new(sock.try_clone().expect("socket clones"));
    let mut writer = FrameWriter::new(BufWriter::new(sock)).expect("preamble");
    reader.expect_preamble().expect("worker preamble");
    reader.read().expect("hello");
    let setup = WorkerSetup {
        job: 0,
        epoch: 0,
        observed: false,
        cfg: PairCfg {
            n: 2,
            max_iters: 1,
            checkpoint_interval: 0,
            mode: PairMode::Async { threshold: None },
        },
        dirs: PairDirs {
            state_dir: String::new(),
            static_dir: String::new(),
            output_dir: String::new(),
        },
        plan: PairPlan {
            kills: vec![],
            hangs: vec![],
            delays: vec![],
            speed: 1.0,
            crash_after: None,
        },
    };
    let mut send = |msg: &ToWorker| {
        writer.write_parts(&msg.parts()).expect("hub writes");
        writer.get_mut().flush().expect("hub flushes");
    };
    send(&ToWorker::Setup(Box::new(setup)));
    let mut spare = None;
    loop {
        let msg = match reader.read_into(&mut spare) {
            Ok(mut frame) => ToCoord::decode(&mut frame).expect("a ToCoord frame"),
            Err(NetError::Closed) => return,
            Err(e) => panic!("scripted hub read failed: {e}"),
        };
        match msg {
            ToCoord::Segment { dest: 1, payload } => {
                let forward = ToWorker::Segment { src: 1, payload };
                send(&forward);
                if let ToWorker::Segment { payload, .. } = forward {
                    spare = reclaim(payload);
                }
            }
            ToCoord::Credit { src: 1 } => send(&ToWorker::Credit { dest: 1 }),
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

/// Trades `rounds` [`SEGMENT`]-byte segments between a [`WorkerConn`]
/// and [`scripted_hub`] over loopback: each round sends one to pair 1
/// and receives pair 1's, which the next round sends on. Returns the
/// bytes the whole exchange (connection included) requested.
fn run_tcp(rounds: usize) -> u64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound address");
    let before = REQUESTED.load(Ordering::Relaxed);
    let hub = std::thread::spawn(move || scripted_hub(listener));
    let (mut conn, _) = WorkerConn::connect_with_policy(addr, 0, 1, 0, 1, &NetPolicy::default())
        .expect("worker handshake");
    let mut segment = Bytes::from(vec![7u8; SEGMENT]);
    for _ in 0..rounds {
        conn.send(1, segment).expect("send to pair 1");
        segment = conn.recv(1).expect("pair 1's segment");
        assert_eq!(segment.len(), SEGMENT);
    }
    drop((conn, segment));
    hub.join().expect("scripted hub");
    REQUESTED.load(Ordering::Relaxed) - before
}

/// Bytes twenty more 1 MiB segment round trips allocate per segment
/// byte.
fn tcp_alloc_per_segment_byte() -> f64 {
    let short = run_tcp(4);
    let long = run_tcp(24);
    (long - short) as f64 / (20 * SEGMENT) as f64
}

/// Set until the first map call of the run; that call records the
/// load's high-water mark and the post-load level, and restarts the
/// high-water mark from the latter.
static ARMED: AtomicBool = AtomicBool::new(false);
static POST_LOAD: AtomicU64 = AtomicU64::new(0);
static LOAD_HIGH: AtomicU64 = AtomicU64::new(0);

/// K-means with the combiner, marking the moment the first map runs.
/// One2all maps are synchronous: no pair maps before every pair has
/// passed the first barrier, so by then all of them have decoded their
/// static partitions.
struct MarksPostLoad(KmeansIter);

impl IterativeJob for MarksPostLoad {
    type K = u32;
    type S = KmState;
    type T = Vec<f64>;

    fn map(
        &self,
        pid: &u32,
        state: StateInput<'_, u32, KmState>,
        point: &Vec<f64>,
        out: &mut Emitter<u32, KmState>,
    ) {
        if ARMED.swap(false, Ordering::SeqCst) {
            LOAD_HIGH.store(HIGH.load(Ordering::SeqCst), Ordering::SeqCst);
            let live = LIVE.load(Ordering::SeqCst);
            POST_LOAD.store(live, Ordering::SeqCst);
            HIGH.store(live, Ordering::SeqCst);
        }
        self.0.map(pid, state, point, out);
    }

    fn fold(&self, cid: &u32, acc: &mut KmState, v: KmState) {
        self.0.fold(cid, acc, v)
    }

    fn finish(&self, cid: &u32, acc: KmState) -> KmState {
        self.0.finish(cid, acc)
    }

    fn distance(&self, cid: &u32, prev: &KmState, cur: &KmState) -> f64 {
        self.0.distance(cid, prev, cur)
    }

    fn has_combiner(&self) -> bool {
        self.0.has_combiner()
    }

    fn partition(&self, cid: &u32, n: usize) -> usize {
        self.0.partition(cid, n)
    }
}

/// Runs three iterations of a 2-pair K-means with the combiner, once
/// for both rows that read it; returns how far the live heap's
/// high-water mark rose from before the run to the first map call and
/// above the post-load level after it, each over the encoded static
/// bytes.
fn kmeans_lifts() -> (f64, f64) {
    static LIFTS: OnceLock<(f64, f64)> = OnceLock::new();
    *LIFTS.get_or_init(|| {
        let points = generate_points(40_000, 8, 16, 5);
        // At the default block size each part is one block, as in a
        // deployment: the DFS hands a pair the block it holds.
        let spec = Arc::new(ClusterSpec::local(PAIRS));
        let metrics: MetricsHandle = Arc::new(Metrics::default());
        let runner = NativeRunner::new(Dfs::new(spec, Arc::clone(&metrics), 3), metrics);
        load_kmeans_imr(&runner, &points, 16, PAIRS, "/km/state", "/km/static").expect("loads");
        let encoded: u64 = (0..PAIRS)
            .map(|p| runner.dfs().len(&part_path("/km/static", p)).expect("part"))
            .sum();

        let cfg = IterConfig::new("km", PAIRS, 3).with_one2all();
        let job = MarksPostLoad(KmeansIter { combiner: true });
        let pre_run = LIVE.load(Ordering::SeqCst);
        HIGH.store(pre_run, Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let out = runner
            .run(&job, &cfg, "/km/state", "/km/static", "/km/out", &[])
            .expect("k-means runs");
        assert_eq!(out.iterations, 3);
        assert!(!ARMED.load(Ordering::SeqCst), "no map ran");
        let load = LOAD_HIGH.load(Ordering::SeqCst).saturating_sub(pre_run);
        let lift = HIGH.load(Ordering::SeqCst) - POST_LOAD.load(Ordering::SeqCst);
        (load as f64 / encoded as f64, lift as f64 / encoded as f64)
    })
}

/// The live heap's high-water mark above its post-load level, over the
/// encoded static bytes.
fn live_lift_per_static_byte() -> f64 {
    kmeans_lifts().1
}

/// The live heap's high-water mark from before the run to the first
/// map call, over the encoded static bytes.
fn load_lift_per_static_byte() -> f64 {
    kmeans_lifts().0
}

/// The ledger's readings, in `BUDGETS` order. The first caller measures
/// every row, top to bottom, and prints each as `name: measured (budget
/// B)`; a caller meanwhile blocks on the lock, allocating nothing.
fn readings() -> &'static [f64] {
    static READINGS: OnceLock<Vec<f64>> = OnceLock::new();
    READINGS.get_or_init(|| {
        BUDGETS
            .iter()
            .map(|(name, budget, measure)| {
                let measured = measure();
                println!("{name}: {measured:.4} (budget {budget})");
                measured
            })
            .collect()
    })
}

/// Whether a row counts the live heap's lift rather than bytes requested.
fn is_live_heap_row(name: &str) -> bool {
    name.contains("_lift_")
}

/// Fails naming every row `pick` selects that is over its budget.
fn assert_within_budget(pick: fn(&str) -> bool) {
    let over: Vec<String> = BUDGETS
        .iter()
        .zip(readings())
        .filter(|((name, budget, _), measured)| pick(name) && *measured > budget)
        .map(|((name, budget, _), measured)| format!("{name}: {measured:.4} > {budget}"))
        .collect();
    assert!(over.is_empty(), "over budget: {}", over.join(", "));
}

/// The rows that count bytes requested: one more PageRank iteration, five
/// more delta checks, twenty more TCP round trips — and any row that does
/// not count the live heap.
#[test]
fn requested_bytes_rows_are_within_their_budgets() {
    assert_within_budget(|name| !is_live_heap_row(name));
}

/// The rows that count the live heap's lift over K-means' static data.
#[test]
fn live_heap_rows_are_within_their_budgets() {
    assert_within_budget(is_live_heap_row);
}
