//! "Allocation-light" as a number that can fail: what one more
//! iteration of the native pair loop asks the allocator for, against
//! the bytes that iteration shuffles.
//!
//! A persistent pair keeps its emit buffer and its shuffle's index
//! buffers, merges straight off the decode cursors, folds each value
//! into one accumulator for the open key and streams finished keys into
//! the next state, so an iteration allocates little beyond what it
//! must: the segments themselves (1.0 ×) and the new state (≈ 0.17 ×
//! on this graph). A reduce side that hands every key its values in a
//! `Vec` of their own allocates ≈ 1.9 ×; a loop that re-grows an emit
//! buffer from empty, copies segments to freeze them, or materialises
//! decoded, merged and grouped copies allocates 12–15 ×.
//!
//! A delta round (the accumulative mode) is held to a budget of its
//! own, in bytes allocated per delta sent: the segments cost 12 bytes a
//! delta on this graph, each exactly its own bytes, copied out of the
//! fold buffer the pair keeps; the selection of the keys to apply
//! allocates nothing, and the round's persistent emit, index and fold
//! buffers cost nothing after the first round (≈ 14 bytes a delta in
//! all). A selection that ranks its pending keys in a fresh `Vec` each
//! round reads ≈ 54.
//!
//! The TCP fabric is held to a budget in bytes allocated per segment
//! byte it carries: a segment is framed from its own allocation, and
//! both ends read a large frame into the buffer of the segment they
//! last sent on, so a steady exchange allocates only message heads. A
//! fabric that copies each segment into a message and reads each frame
//! into a fresh buffer, at the worker and at the hub, allocates ≈ 4 ×.
//!
//! This file is its own test crate so that the counting allocator — the
//! one `unsafe` in the repository — stays out of the libraries, and it
//! holds one test so that nothing else allocates while it counts.

use bytes::Bytes;
use imapreduce::IterConfig;
use imr_algorithms::pagerank::{run_pagerank_delta, run_pagerank_imr};
use imr_algorithms::testutil::native_runner;
use imr_graph::{generate_graph, pagerank_degree_dist};
use imr_net::frame::{reclaim, FrameReader, FrameWriter};
use imr_net::proto::{PairCfg, PairDirs, PairMode, PairPlan, ToCoord, ToWorker, WorkerSetup};
use imr_net::{NetError, NetPolicy, Transport, WorkerConn};
use imr_records::Codec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufWriter, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes requested from the allocator so far, on every thread. A
/// reallocation counts its whole new size: it may move the block.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is a
// statistic that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const PAIRS: usize = 2;

/// Bytes one more delta check may allocate per delta it sends.
const DELTA_BUDGET: f64 = 20.0;

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

/// Bytes the TCP fabric may allocate per segment byte it carries.
const TCP_BUDGET: f64 = 0.05;

/// The TCP phase's segment: well past any allocator's mmap threshold.
const SEGMENT: usize = 1 << 20;

/// The hub's half of the TCP phase, through the calls the real hub
/// makes: greets pair 0 of a two-pair job, then forwards each of its
/// segments back as pair 1's — framed from the segment's own bytes,
/// whose buffer then takes the link's next frame — and answers each
/// credit, until the worker hangs up.
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

#[test]
fn an_extra_iteration_allocates_at_most_1_3_times_what_it_shuffles() {
    let (short, _) = run(5);
    let (long, shuffled) = run(10);
    let extra_iterations = (5 * PAIRS) as u64;
    let allocated = (long - short) / extra_iterations;
    let shuffled = shuffled / (10 * PAIRS) as u64;
    let ratio = allocated as f64 / shuffled as f64;
    println!(
        "per pair and iteration: {allocated} bytes allocated, {shuffled} shuffled: {ratio:.2}x"
    );
    assert!(
        ratio <= 1.3,
        "one more iteration allocates {allocated} bytes per pair for {shuffled} shuffled \
         ({ratio:.2}x, budget 1.3x)"
    );

    let (short, sent_short) = run_delta(5);
    let (long, sent_long) = run_delta(10);
    let per_delta = (long - short) as f64 / (sent_long - sent_short) as f64;
    println!("delta rounds: {per_delta:.1} bytes allocated per delta sent");
    assert!(
        per_delta <= DELTA_BUDGET,
        "five more delta checks allocate {per_delta:.1} bytes per delta sent \
         (budget {DELTA_BUDGET})"
    );

    let short = run_tcp(4);
    let long = run_tcp(24);
    let per_byte = (long - short) as f64 / (20 * SEGMENT) as f64;
    println!("tcp fabric: {per_byte:.4} bytes allocated per segment byte");
    assert!(
        per_byte <= TCP_BUDGET,
        "twenty more 1 MiB segment round trips allocate {per_byte:.4} bytes per segment \
         byte (budget {TCP_BUDGET})"
    );
}
