//! "A bounded map side" as a number that can fail: how far a native
//! K-means run with the combiner lifts the live heap above where it
//! stands once the pairs have loaded their static data.
//!
//! Each map task holds its static partition once (paper §3.2). What an
//! iteration adds on top should be small and independent of the data:
//! the map side folds each emitted point into its centroid's partial
//! sum as it goes (`imr_records::FoldTable`), so it keeps 16 partial
//! sums per pair, not a buffer of every emitted point with its cloned
//! coordinates, a sorted index over them and a table of per-centroid
//! groups — which is ≈ 2.5 × the encoded static data.
//!
//! The load itself is held to a budget too: from just before the run
//! to the first map call, the live heap may rise by the pairs' state and
//! buffers — each pair holds its static part as the encoded bytes the
//! DFS already holds (`imapreduce::StaticPart`) — not by a read copy or
//! a decoded copy of the records. The budget leaves room for four bytes
//! of offset per record, which a delta-mode part keeps.
//!
//! This file is its own test crate so that the counting allocator — an
//! `unsafe` impl, kept out of the libraries — stays here, and it holds
//! one test so that nothing else allocates while it counts.

use imapreduce::{Emitter, IterConfig, IterativeJob, StateInput};
use imr_algorithms::kmeans::{load_kmeans_imr, KmState, KmeansIter};
use imr_dfs::Dfs;
use imr_graph::generate_points;
use imr_mapreduce::io::part_path;
use imr_native::NativeRunner;
use imr_simcluster::{ClusterSpec, Metrics, MetricsHandle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes allocated and not yet freed, on every thread.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// The most `LIVE` has been since it was last reset.
static HIGH: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
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

const PAIRS: usize = 2;

/// How far the load may lift the live heap, as a multiple of the
/// encoded static bytes.
const LOAD_BUDGET: f64 = 0.1;

#[test]
fn iterations_lift_the_live_heap_by_at_most_a_quarter_of_the_static_data() {
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

    let lift = HIGH.load(Ordering::SeqCst) - POST_LOAD.load(Ordering::SeqCst);
    let ratio = lift as f64 / encoded as f64;
    println!(
        "live heap high-water above the post-load level: {lift} bytes, \
         {ratio:.3}x the {encoded} encoded static bytes"
    );
    assert!(
        4 * lift <= encoded,
        "iterations lift the live heap {lift} bytes above the post-load level: \
         {ratio:.2}x the {encoded} encoded static bytes (budget 0.25x)"
    );

    let load = LOAD_HIGH.load(Ordering::SeqCst).saturating_sub(pre_run);
    let load_ratio = load as f64 / encoded as f64;
    println!(
        "live heap high-water during the load, above the pre-run level: {load} bytes, \
         {load_ratio:.3}x the {encoded} encoded static bytes"
    );
    assert!(
        load_ratio <= LOAD_BUDGET,
        "loading lifts the live heap {load} bytes above the pre-run level: \
         {load_ratio:.2}x the {encoded} encoded static bytes (budget {LOAD_BUDGET}x)"
    );
}
