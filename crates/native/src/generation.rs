//! One running generation, described once for both fabrics.
//!
//! The paper's master learns about a pair through one channel — the
//! iteration-completion report its reduce task sends (§3.4.2), which is
//! also what checkpoint rollback (§3.4.1) is decided from. A
//! [`Generation`] is that channel's receiving end: it owns the
//! heartbeat board the monitor watches, the committed distance history
//! the generation started from, and one record per pair, and its
//! handlers are the only code that reacts to what a pair reports —
//! [`beat`](Generation::beat) appends the pair's next in-order
//! iteration, [`checkpoint`](Generation::checkpoint) persists a snapshot
//! next to the history recorded so far, [`settle`](Generation::settle)
//! keeps the first terminal outcome. The thread environment calls them
//! directly; the TCP coordinator calls them as `Beat`, `Ckpt` and
//! `Outcome` frames arrive. Either way the supervisor is handed the same
//! [`PairRun`]s by [`into_runs`](Generation::into_runs).

use crate::fault::FaultBarrier;
use crate::monitor::{monitor_loop, BalancePlan, ProgressBoard};
use crate::pair::PairOutcome;
use bytes::Bytes;
use imapreduce::supervise::{GenInput, Intervention, PairRun};
use imapreduce::{IterConfig, Mode};
use imr_dfs::{hist_path, snapshot_dir, Dfs, DfsError};
use imr_mapreduce::io::part_path;
use imr_mapreduce::EngineError;
use imr_records::Codec;
use imr_simcluster::{MetricsHandle, NodeId, TaskClock};
use parking_lot::Mutex;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// What one pair has reported so far this generation.
#[derive(Default)]
struct PairRecord {
    /// `(local distance, had previous snapshot)` per completed iteration.
    local_dist: Vec<(f64, bool)>,
    /// Offset from the job's start at which each iteration's report
    /// was recorded.
    iter_done: Vec<Duration>,
    /// First terminal outcome (never overwritten).
    outcome: Option<Result<PairOutcome, EngineError>>,
}

/// One generation's supervisor-side state, independent of the fabric
/// its pairs run on.
pub(crate) struct Generation<'a> {
    dfs: &'a Dfs,
    metrics: &'a MetricsHandle,
    cfg: &'a IterConfig<dyn Mode>,
    output_dir: &'a str,
    input: GenInput<'a>,
    /// Heartbeats, checkpoint progress and exits, for the monitor.
    board: ProgressBoard,
    /// Set once every pair is through, so the monitor stands down.
    done: AtomicBool,
    /// One record per pair; only the pair's own reporter (its thread,
    /// or its connection's reader) locks it while the generation runs.
    pairs: Vec<Mutex<PairRecord>>,
}

impl<'a> Generation<'a> {
    pub(crate) fn new(
        dfs: &'a Dfs,
        metrics: &'a MetricsHandle,
        cfg: &'a IterConfig<dyn Mode>,
        output_dir: &'a str,
        input: GenInput<'a>,
    ) -> Self {
        let n = cfg.num_tasks;
        Generation {
            dfs,
            metrics,
            cfg,
            output_dir,
            input,
            board: ProgressBoard::new(n, input.epoch),
            done: AtomicBool::new(false),
            pairs: (0..n).map(|_| Mutex::default()).collect(),
        }
    }

    /// Pair `q` completed `iteration`. Only the pair's next in-order
    /// iteration is recorded (and stamped now): a TCP worker's trailing
    /// counts-only report (iteration 0) and anything a faulty peer
    /// replays or skips ahead to append nothing.
    pub(crate) fn beat(&self, q: usize, iteration: usize, busy_secs: f64, d: f64, has_prev: bool) {
        let mut rec = self.pairs[q].lock();
        if iteration == self.input.epoch + rec.local_dist.len() + 1 {
            self.board.beat(q, iteration, busy_secs);
            rec.local_dist.push((d, has_prev));
            rec.iter_done.push(self.input.started.elapsed());
        }
    }

    /// Persists pair `q`'s snapshot of `iteration` with the history
    /// sidecar covering iterations `1..=iteration`: the committed prefix
    /// this generation started from, then the pair's own record. The
    /// pair loop reports an iteration before it checkpoints it, so a
    /// checkpoint ahead of its beat is a protocol violation.
    pub(crate) fn checkpoint(
        &self,
        q: usize,
        iteration: usize,
        payload: Bytes,
    ) -> Result<(), EngineError> {
        let rec = self.pairs[q].lock();
        let recorded = iteration
            .checked_sub(self.input.epoch)
            .and_then(|done| rec.local_dist.get(..done));
        let Some(hist) = recorded else {
            return Err(EngineError::Worker(format!(
                "pair {q} checkpointed iteration {iteration} but has reported only through {}",
                self.input.epoch + rec.local_dist.len()
            )));
        };
        let seed = &self.input.seed_dist[q];
        persist_checkpoint(self.dfs, self.output_dir, q, iteration, payload, seed, hist)?;
        self.board.mark_ckpt(q, iteration);
        Ok(())
    }

    /// Records how pair `q`'s generation ended; the first terminal
    /// outcome wins. Returns whether the caller must poison the
    /// generation: a pair that ended any other way than finishing
    /// leaves peers waiting on it.
    pub(crate) fn settle(&self, q: usize, outcome: Result<PairOutcome, EngineError>) -> bool {
        self.board.mark_exited(q);
        let mut rec = self.pairs[q].lock();
        if rec.outcome.is_some() {
            return false;
        }
        let poison = !matches!(outcome, Ok(PairOutcome::Finished { .. }));
        rec.outcome = Some(outcome);
        poison
    }

    /// Has every pair come through ([`Generation::watched`]'s body
    /// returned)?
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Runs `body` — which drives the pairs to their outcomes — in a
    /// thread scope shared with the watchdog/balancer monitor (when
    /// `cfg` asks for one), which kills the generation by poisoning
    /// `latch`. Returns the monitor's intervention, if it made one.
    pub(crate) fn watched<'env, R>(
        &'env self,
        latch: &'env FaultBarrier,
        body: impl for<'scope> FnOnce(&'scope thread::Scope<'scope, 'env>) -> R,
    ) -> (R, Option<Intervention>) {
        let load_balance = self.cfg.mode.iterative().and_then(|m| m.load_balance);
        let monitored = self.cfg.watchdog.is_some() || load_balance.is_some();
        thread::scope(|scope| {
            let monitor = monitored.then(|| {
                scope.spawn(move || {
                    let balance = load_balance.map(|lb| BalancePlan {
                        cluster: self.dfs.cluster(),
                        assignment: self.input.assignment,
                        down: self.input.down,
                        deviation: lb.deviation,
                        remaining: (lb.max_migrations as u64)
                            .saturating_sub(self.input.migrations_done)
                            as usize,
                    });
                    let watchdog = self.cfg.watchdog;
                    monitor_loop(
                        &self.board,
                        latch,
                        &self.done,
                        watchdog,
                        balance,
                        self.metrics,
                    )
                })
            });
            let out = body(scope);
            self.done.store(true, Ordering::Release);
            let intervention = monitor.and_then(|h| h.join().unwrap_or_else(|e| resume_unwind(e)));
            (out, intervention)
        })
    }

    /// What each pair left behind, for the supervisor's triage.
    pub(crate) fn into_runs(self) -> Result<Vec<PairRun>, EngineError> {
        let board = self.board;
        self.pairs
            .into_iter()
            .enumerate()
            .map(|(q, rec)| {
                let rec = rec.into_inner();
                Ok(PairRun {
                    local_dist: rec.local_dist,
                    iter_done: rec.iter_done,
                    last_ckpt: board.last_ckpt(q),
                    outcome: rec.outcome.ok_or_else(|| {
                        EngineError::Worker(format!("pair {q} settled without an outcome"))
                    })?,
                })
            })
            .collect()
    }
}

/// Persists pair `q`'s snapshot of `iteration` and, next to it, the
/// distance-history sidecar: `seed` followed by `hist`. Both writes are
/// atomic, part first, so a sidecar never describes a snapshot that is
/// not there.
fn persist_checkpoint(
    dfs: &Dfs,
    output_dir: &str,
    q: usize,
    iteration: usize,
    payload: Bytes,
    seed: &[(f64, bool)],
    hist: &[(f64, bool)],
) -> Result<(), DfsError> {
    let dir = snapshot_dir(output_dir, iteration);
    let mut ck = TaskClock::default();
    dfs.put_atomic(&part_path(&dir, q), payload, NodeId(0), &mut ck)?;
    let full: Vec<(f64, bool)> = seed.iter().chain(hist).copied().collect();
    dfs.put_atomic(&hist_path(&dir, q), full.to_bytes(), NodeId(0), &mut ck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imr_simcluster::{ClusterSpec, Metrics};
    use std::sync::Arc;
    use std::time::Instant;

    /// Two pairs resuming from checkpoint epoch 2 with two committed
    /// history entries each.
    struct Fixture {
        dfs: Dfs,
        metrics: MetricsHandle,
        cfg: IterConfig,
        seed: Vec<Vec<(f64, bool)>>,
        assignment: Vec<NodeId>,
    }

    impl Fixture {
        fn new() -> Self {
            let metrics: MetricsHandle = Arc::new(Metrics::default());
            Fixture {
                dfs: Dfs::new(Arc::new(ClusterSpec::local(2)), Arc::clone(&metrics), 1),
                metrics,
                cfg: IterConfig::new("gen", 2, 8),
                seed: vec![
                    vec![(9.0, false), (8.0, true)],
                    vec![(7.0, false), (6.0, true)],
                ],
                assignment: vec![NodeId(0), NodeId(1)],
            }
        }

        fn generation(&self) -> Generation<'_> {
            let input = GenInput {
                epoch: 2,
                plans: &[],
                assignment: &self.assignment,
                failed: &[],
                down: &[],
                migrations_done: 0,
                generation: 1,
                started: Instant::now(),
                seed_dist: &self.seed,
            };
            Generation::new(&self.dfs, &self.metrics, &self.cfg, "/out", input)
        }
    }

    fn finished() -> Result<PairOutcome, EngineError> {
        Ok(PairOutcome::Finished {
            final_data: Bytes::new(),
            iterations: 8,
        })
    }

    #[test]
    fn a_beat_is_recorded_only_as_the_next_iteration_in_order() {
        let fx = Fixture::new();
        let generation = fx.generation();
        // Pair 0 reports as a thread does: one beat per iteration.
        generation.beat(0, 3, 0.1, 0.5, true);
        generation.beat(0, 4, 0.1, 0.25, true);
        // Pair 1 reports as a faulty connection might: ahead of order,
        // then in order, then a replay, then the counts-only trailer.
        generation.beat(1, 4, 0.1, 4.0, true);
        generation.beat(1, 3, 0.1, 3.0, true);
        generation.beat(1, 3, 0.1, 99.0, true);
        generation.beat(1, 0, 0.0, 0.0, false);
        generation.settle(0, finished());
        generation.settle(1, finished());
        let runs = generation.into_runs().unwrap();
        assert_eq!(runs[0].local_dist, vec![(0.5, true), (0.25, true)]);
        assert_eq!(runs[1].local_dist, vec![(3.0, true)]);
        assert_eq!(runs[0].iter_done.len(), 2);
        assert_eq!(runs[1].iter_done.len(), 1);
        assert!(runs[0].iter_done[0] <= runs[0].iter_done[1]);
    }

    #[test]
    fn a_checkpoint_needs_its_beat_and_writes_seed_then_history() {
        let fx = Fixture::new();
        let generation = fx.generation();
        let payload = Bytes::from_static(b"snapshot");
        // Ahead of its beat: refused, nothing written.
        match generation.checkpoint(0, 3, payload.clone()) {
            Err(EngineError::Worker(msg)) => {
                assert!(msg.contains("reported only through 2"), "{msg}")
            }
            other => panic!("expected a worker error, got {other:?}"),
        }
        assert!(fx.dfs.list("/out/_ckpt").is_empty());
        // An iteration below the generation's own epoch has no record
        // either.
        assert!(generation.checkpoint(0, 1, payload.clone()).is_err());

        generation.beat(0, 3, 0.1, 0.5, true);
        generation.beat(0, 4, 0.1, 0.25, false);
        generation.checkpoint(0, 4, payload.clone()).unwrap();
        let dir = snapshot_dir("/out", 4);
        let read = |path: &str| {
            fx.dfs
                .read(path, NodeId(0), &mut TaskClock::default())
                .unwrap()
        };
        assert_eq!(read(&part_path(&dir, 0)), payload);
        let full = vec![(9.0, false), (8.0, true), (0.5, true), (0.25, false)];
        assert_eq!(read(&hist_path(&dir, 0)), full.to_bytes());

        generation.settle(0, finished());
        generation.settle(1, finished());
        let runs = generation.into_runs().unwrap();
        // Checkpoint progress is kept once, on the board: pair 1 wrote
        // nothing, so it still sits at the epoch it started from.
        assert_eq!((runs[0].last_ckpt, runs[1].last_ckpt), (4, 2));
    }

    #[test]
    fn the_first_outcome_wins_and_only_an_unfinished_one_poisons() {
        let fx = Fixture::new();
        let generation = fx.generation();
        // A pair that finished: no poison, and nothing reported later
        // (the connection's EOF, a stray error) replaces the finish.
        assert!(!generation.settle(0, finished()));
        assert!(!generation.settle(0, Ok(PairOutcome::Aborted)));
        assert!(!generation.settle(0, Err(EngineError::Worker("late".into()))));
        // A pair that died: poison once, for the first report.
        assert!(generation.settle(1, Ok(PairOutcome::Induced { at_iteration: 3 })));
        assert!(!generation.settle(1, Ok(PairOutcome::Aborted)));
        let runs = generation.into_runs().unwrap();
        assert!(matches!(runs[0].outcome, Ok(PairOutcome::Finished { .. })));
        assert!(matches!(
            runs[1].outcome,
            Ok(PairOutcome::Induced { at_iteration: 3 })
        ));
    }

    #[test]
    fn a_pair_that_never_settled_is_a_worker_error() {
        let fx = Fixture::new();
        let generation = fx.generation();
        generation.settle(0, finished());
        match generation.into_runs() {
            Err(EngineError::Worker(msg)) => assert!(msg.contains("pair 1"), "{msg}"),
            other => panic!("expected a worker error, got {:?}", other.map(|r| r.len())),
        }
    }
}
