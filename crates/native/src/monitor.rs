//! Worker heartbeats and the supervisor-side monitor.
//!
//! Every pair publishes a [`ProgressBoard`] heartbeat after each
//! completed iteration: the iteration number, a wall-clock timestamp,
//! its last completed checkpoint epoch, and an EWMA of its effective
//! busy time. A monitor thread polls the board and intervenes in two
//! ways, both by poisoning the generation's `FaultBarrier` so the
//! supervisor's ordinary rollback-and-respawn path takes over:
//!
//! * **Watchdog** (`WatchdogConfig`): when *no* active pair has beaten
//!   for `stall_timeout`, the least-advanced pair is declared stalled.
//!   Requiring a global freeze (rather than one stale pair) avoids
//!   false positives on merely-slow pairs: their peers block on them at
//!   the hand-off channels or barriers, so as long as anyone is
//!   beating, the job is still making progress. The flip side is that
//!   `stall_timeout` must exceed the slowest pair's per-iteration time.
//! * **Load balancing** (§3.4.2): once every pair has checkpointed past
//!   the generation's start epoch (so rollback strictly advances and
//!   the migrate/rollback loop cannot livelock), the per-pair busy
//!   EWMAs are fed to the shared [`ClusterSpec::pick_migration`] policy;
//!   a hit migrates the slowest node's pair to the least-loaded faster
//!   node at the next respawn.

use crate::fault::FaultBarrier;
use imapreduce::supervise::Intervention;
use imapreduce::WatchdogConfig;
use imr_simcluster::{ClusterSpec, MetricsHandle, NodeId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// EWMA smoothing for per-pair busy time: `new = α·sample + (1-α)·old`.
const EWMA_ALPHA: f64 = 0.5;

/// How often the monitor wakes to check the `done` flag between
/// evaluation points (keeps generation teardown latency small even
/// under a coarse watchdog poll).
const TICK: Duration = Duration::from_millis(2);

struct Cell {
    /// Absolute index of the last iteration this pair completed.
    iterations: AtomicU64,
    /// Nanoseconds since board creation of the last heartbeat.
    last_beat_nanos: AtomicU64,
    /// Absolute epoch of the pair's last fully written snapshot.
    last_ckpt: AtomicU64,
    /// f64 bit-pattern of the busy-time EWMA (seconds).
    busy_ewma_bits: AtomicU64,
    /// The pair's worker returned (any outcome) — no longer active.
    exited: AtomicBool,
}

/// One generation's shared heartbeat board: lock-free, one cell per
/// pair, written only through the generation's report handlers
/// (`generation.rs`) and read by the monitor.
pub(crate) struct ProgressBoard {
    started: Instant,
    epoch: usize,
    cells: Vec<Cell>,
}

impl ProgressBoard {
    /// A fresh board for a generation starting at checkpoint `epoch`.
    pub(crate) fn new(n: usize, epoch: usize) -> Self {
        ProgressBoard {
            started: Instant::now(),
            epoch,
            cells: (0..n)
                .map(|_| Cell {
                    iterations: AtomicU64::new(epoch as u64),
                    last_beat_nanos: AtomicU64::new(0),
                    last_ckpt: AtomicU64::new(epoch as u64),
                    busy_ewma_bits: AtomicU64::new(0f64.to_bits()),
                    exited: AtomicBool::new(false),
                })
                .collect(),
        }
    }

    fn nanos_now(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Worker `q` completed absolute iteration `iteration`, spending
    /// `busy_secs` of effective processing time on it.
    pub(crate) fn beat(&self, q: usize, iteration: usize, busy_secs: f64) {
        let cell = &self.cells[q];
        let first = cell.iterations.load(Ordering::Relaxed) == self.epoch as u64;
        let prev = f64::from_bits(cell.busy_ewma_bits.load(Ordering::Relaxed));
        let ewma = if first {
            busy_secs
        } else {
            EWMA_ALPHA * busy_secs + (1.0 - EWMA_ALPHA) * prev
        };
        cell.busy_ewma_bits.store(ewma.to_bits(), Ordering::Relaxed);
        cell.iterations.store(iteration as u64, Ordering::Relaxed);
        cell.last_beat_nanos
            .store(self.nanos_now(), Ordering::Release);
    }

    /// Worker `q` finished writing the snapshot of iteration `epoch`.
    pub(crate) fn mark_ckpt(&self, q: usize, epoch: usize) {
        self.cells[q]
            .last_ckpt
            .store(epoch as u64, Ordering::Release);
    }

    /// The last iteration whose snapshot worker `q` fully wrote (the
    /// generation's start epoch if it wrote none) — the one copy of a
    /// pair's checkpoint progress, read by the balancer while the
    /// generation runs and by the supervisor's rollback once it is over.
    pub(crate) fn last_ckpt(&self, q: usize) -> usize {
        self.cells[q].last_ckpt.load(Ordering::Acquire) as usize
    }

    /// Worker `q` returned; it no longer counts as active.
    pub(crate) fn mark_exited(&self, q: usize) {
        self.cells[q].exited.store(true, Ordering::Release);
    }
}

/// Load-balancing inputs for one generation.
pub(crate) struct BalancePlan<'a> {
    /// The cluster whose shared §3.4.2 policy picks migrations.
    pub cluster: &'a ClusterSpec,
    /// Current pair→node placement.
    pub assignment: &'a [NodeId],
    /// Nodes out of service, never a migration target.
    pub down: &'a [NodeId],
    /// `LoadBalance::deviation` threshold.
    pub deviation: f64,
    /// Migrations still allowed (`max_migrations` minus those done).
    pub remaining: usize,
}

/// The monitor loop, run on its own thread inside the generation's
/// scope. Returns the intervention that killed the generation, or
/// `None` if the workers ended it themselves (`done` set, or the
/// barrier was already poisoned by a scripted exit / worker error).
pub(crate) fn monitor_loop(
    board: &ProgressBoard,
    barrier: &FaultBarrier,
    done: &AtomicBool,
    watchdog: Option<WatchdogConfig>,
    balance: Option<BalancePlan<'_>>,
    metrics: &MetricsHandle,
) -> Option<Intervention> {
    let poll = watchdog
        .map(|wd| wd.poll)
        .unwrap_or(Duration::from_millis(25));
    let mut last_eval = Instant::now();
    loop {
        if done.load(Ordering::Acquire) {
            return None;
        }
        std::thread::sleep(TICK);
        if last_eval.elapsed() < poll {
            continue;
        }
        last_eval = Instant::now();
        if barrier.is_poisoned() {
            // A scripted exit or worker error is already tearing the
            // generation down; the supervisor handles it.
            return None;
        }
        if let Some(wd) = watchdog {
            if let Some(pair) = detect_stall(board, wd.stall_timeout) {
                metrics.stalls_detected.add(1);
                barrier.poison();
                return Some(Intervention::Stall { pair });
            }
        }
        if let Some(plan) = &balance {
            if plan.remaining > 0 {
                if let Some((pair, to)) = pick_native_migration(board, plan) {
                    barrier.poison();
                    return Some(Intervention::Migrate { pair, to });
                }
            }
        }
    }
}

/// The watchdog rule: a stall is declared only when *every* active pair
/// has been silent for `stall_timeout`; the victim is the
/// least-advanced active pair (ties to the lowest index).
fn detect_stall(board: &ProgressBoard, stall_timeout: Duration) -> Option<usize> {
    let now = board.nanos_now();
    let timeout = u64::try_from(stall_timeout.as_nanos()).unwrap_or(u64::MAX);
    let mut victim: Option<(u64, usize)> = None;
    for (q, cell) in board.cells.iter().enumerate() {
        if cell.exited.load(Ordering::Acquire) {
            continue;
        }
        let beat = cell.last_beat_nanos.load(Ordering::Acquire);
        if now.saturating_sub(beat) < timeout {
            return None; // someone is still making progress
        }
        let iters = cell.iterations.load(Ordering::Relaxed);
        if victim.map(|(best, _)| iters < best).unwrap_or(true) {
            victim = Some((iters, q));
        }
    }
    victim.map(|(_, q)| q)
}

/// The migration precondition + the shared §3.4.2 policy. Gated on
/// every pair having both progressed *and* checkpointed past the
/// generation's start epoch: the post-migration rollback then lands on
/// a strictly newer epoch, so repeated migrations always advance the
/// job (no livelock), and the EWMAs have at least one real sample.
fn pick_native_migration(board: &ProgressBoard, plan: &BalancePlan<'_>) -> Option<(usize, NodeId)> {
    let epoch = board.epoch as u64;
    let mut busy = Vec::with_capacity(board.cells.len());
    for cell in &board.cells {
        if cell.exited.load(Ordering::Acquire) {
            return None; // endgame: the generation is about to finish
        }
        if cell.iterations.load(Ordering::Relaxed) <= epoch
            || cell.last_ckpt.load(Ordering::Acquire) <= epoch
        {
            return None;
        }
        busy.push(f64::from_bits(cell.busy_ewma_bits.load(Ordering::Relaxed)));
    }
    plan.cluster
        .pick_migration(plan.assignment, &busy, plan.deviation, plan.down)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn beat_folds_an_ewma_and_advances_the_cell() {
        let board = ProgressBoard::new(2, 3);
        board.beat(0, 4, 2.0); // first sample: taken as-is
        board.beat(0, 5, 4.0); // 0.5·4 + 0.5·2 = 3
        let cell = &board.cells[0];
        assert_eq!(cell.iterations.load(Ordering::Relaxed), 5);
        assert_eq!(
            f64::from_bits(cell.busy_ewma_bits.load(Ordering::Relaxed)),
            3.0
        );
        // Pair 1 never beat: still at the epoch.
        assert_eq!(board.cells[1].iterations.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn stall_needs_every_active_pair_silent() {
        let board = ProgressBoard::new(3, 0);
        std::thread::sleep(Duration::from_millis(30));
        // All three silent since creation → stall, least-advanced wins.
        board.cells[1].iterations.store(2, Ordering::Relaxed);
        assert_eq!(detect_stall(&board, Duration::from_millis(10)), Some(0));
        // One fresh heartbeat anywhere keeps the job alive.
        board.beat(2, 1, 0.1);
        assert_eq!(detect_stall(&board, Duration::from_millis(10)), None);
    }

    #[test]
    fn exited_pairs_do_not_count_toward_stalls() {
        let board = ProgressBoard::new(2, 0);
        std::thread::sleep(Duration::from_millis(20));
        board.mark_exited(0);
        assert_eq!(detect_stall(&board, Duration::from_millis(5)), Some(1));
        board.mark_exited(1);
        assert_eq!(detect_stall(&board, Duration::from_millis(5)), None);
    }

    #[test]
    fn migration_waits_for_checkpoint_progress_then_fires() {
        let mut spec = ClusterSpec::local(3);
        spec.nodes[0].speed = 0.2;
        let assignment = vec![NodeId(0), NodeId(1), NodeId(2)];
        let board = ProgressBoard::new(3, 0);
        let plan = BalancePlan {
            cluster: &spec,
            assignment: &assignment,
            down: &[],
            deviation: 0.3,
            remaining: 1,
        };
        // Busy skew present but pair 0 has not checkpointed yet.
        board.beat(0, 1, 5.0);
        board.beat(1, 1, 1.0);
        board.beat(2, 1, 1.0);
        board.mark_ckpt(1, 1);
        board.mark_ckpt(2, 1);
        assert_eq!(pick_native_migration(&board, &plan), None);
        // Once everyone checkpointed past the epoch, the shared policy
        // moves pair 0 off the slow node.
        board.mark_ckpt(0, 1);
        assert_eq!(pick_native_migration(&board, &plan), Some((0, NodeId(1))));
    }

    #[test]
    fn monitor_exits_quietly_when_done_or_poisoned() {
        let metrics: MetricsHandle = Arc::new(imr_simcluster::Metrics::default());
        let board = ProgressBoard::new(1, 0);
        let barrier = FaultBarrier::new(1);
        let done = AtomicBool::new(true);
        assert_eq!(
            monitor_loop(&board, &barrier, &done, None, None, &metrics),
            None
        );
        let done = AtomicBool::new(false);
        barrier.poison();
        let wd = WatchdogConfig {
            poll: Duration::from_millis(1),
            stall_timeout: Duration::from_millis(1),
        };
        assert_eq!(
            monitor_loop(&board, &barrier, &done, Some(wd), None, &metrics),
            None
        );
        assert_eq!(metrics.stalls_detected.get(), 0);
    }

    #[test]
    fn monitor_declares_a_stall_and_poisons() {
        let metrics: MetricsHandle = Arc::new(imr_simcluster::Metrics::default());
        let board = ProgressBoard::new(2, 0);
        let barrier = FaultBarrier::new(2);
        let done = AtomicBool::new(false);
        let wd = WatchdogConfig {
            poll: Duration::from_millis(5),
            stall_timeout: Duration::from_millis(20),
        };
        let hit = monitor_loop(&board, &barrier, &done, Some(wd), None, &metrics);
        assert_eq!(hit, Some(Intervention::Stall { pair: 0 }));
        assert!(barrier.is_poisoned());
        assert_eq!(metrics.stalls_detected.get(), 1);
    }
}
