//! The simulator's [`PairEnv`]: the pair loop, stepped on a virtual
//! clock — the native backends' running scheme, but sequential.
//!
//! Every pair runs core's loop on a thread of its own, one at a time: a
//! pair holds the turn until it would block — on a segment not yet
//! sent, or at a collective — and then hands it to the lowest-numbered
//! pair that can go on. So every DFS operation, counter increment and
//! event happens in one order on every run, whatever the OS scheduler
//! does: DFS replica placement rotates on a global block counter, and
//! the observer samples the counters at each `IterEnd`. When no pair
//! can go on and not all are done, the run is deadlocked: the board is
//! poisoned and every pair unwinds.
//!
//! Time is the pair's [`TaskClock`]. The kernel charges its work to it
//! through the [`PairEnv::cost`] hook; `send` stamps a segment with the
//! sender's instant, and `recv` moves the clock to its arrival (plus
//! the cluster's transfer time) and counts it local or remote; an
//! all-gather returns one network latency after the last contribution;
//! a DFS read charges the read and the decode; checkpoints are written
//! off the critical path, and the last part of an epoch retires the
//! epoch before it. The master decides a check one network latency
//! after the last pair's report, on the votes folded in task order.

use crate::accum::Accumulative;
use crate::config::IterConfig;
use crate::engine::{IterOutcome, IterativeRunner};
use crate::kernel::fold_votes;
use crate::pair::{delta_loop, pair_cfg, panic_message, EnvFail, PairCtx, PairDirs, PairEnv};
use crate::pair::{PairOutcome, PairPlan};
use bytes::Bytes;
use imr_dfs::snapshot_dir;
use imr_mapreduce::io::{delete_dir, num_parts, part_path};
use imr_mapreduce::{ClockCharge, EngineError};
use imr_net::{Closed, Transport};
use imr_records::{decode_pairs, sort_run};
use imr_simcluster::{NodeId, RunReport, TaskClock, VInstant};
use imr_trace::TraceEvent;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// What a pair waits for before it can go on.
#[derive(Clone, Copy, Default, PartialEq)]
enum Wait {
    /// Nothing: not started yet, or handed over at a collective.
    #[default]
    Turn,
    /// The next segment from this pair.
    Recv(usize),
    /// Every pair's next contribution to the collective.
    Gather,
    Done,
}

/// The two link matrices: shuffle segments and collective contributions.
const SEGMENTS: usize = 0;
const GATHER: usize = 1;

/// What the pairs share: the turn, the links, and what they report.
#[derive(Default)]
struct Board {
    turn: usize,
    waits: Vec<Wait>,
    poisoned: bool,
    /// `links[kind][dest][src]`: what is in flight, with its send instant.
    links: [Vec<Vec<VecDeque<(Bytes, VInstant)>>>; 2],
    /// Per pair, one `(instant, distance, had a previous snapshot)` beat
    /// per check.
    beats: Vec<Vec<(VInstant, f64, bool)>>,
    /// Parts written of the newest checkpoint epoch, and the epoch before.
    checkpoint: (usize, usize),
}

impl Board {
    fn ready(&self, q: usize, wait: Wait) -> bool {
        match wait {
            Wait::Turn => true,
            Wait::Recv(src) => !self.links[SEGMENTS][q][src].is_empty(),
            Wait::Gather => self.links[GATHER][q].iter().all(|link| !link.is_empty()),
            Wait::Done => false,
        }
    }

    /// Gives the turn to the lowest-numbered pair that can go on.
    fn hand_over(&mut self) {
        let can_go = |b: &Board, p: usize| {
            b.waits[p] != Wait::Done && (b.poisoned || b.ready(p, b.waits[p]))
        };
        let mut pairs = 0..self.waits.len();
        let waiting = self.waits.iter().any(|&wait| wait != Wait::Done);
        self.poisoned |= waiting && !pairs.clone().any(|p| can_go(self, p));
        self.turn = pairs.find(|&p| can_go(self, p)).unwrap_or(self.turn);
    }
}

/// A simulated delta run: pair `q` on node `assignment[q]`, the pairs
/// taking turns.
pub(crate) struct Turns<'r> {
    runner: &'r IterativeRunner,
    assignment: Vec<NodeId>,
    dirs: PairDirs,
    board: Mutex<Board>,
    handed: Condvar,
}

impl Turns<'_> {
    fn lock(&self) -> MutexGuard<'_, Board> {
        // Only a panic inside this module could poison the mutex.
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks pair `q` until it holds the turn with `wait` satisfied,
    /// handing the turn over first if `wait` is not — or is the
    /// collective, so that pairs leave every collective in pair order.
    fn take_turn(&self, q: usize, wait: Wait) -> Result<MutexGuard<'_, Board>, Closed> {
        let mut board = self.lock();
        board.waits[q] = wait;
        if board.turn == q && (wait == Wait::Gather || !board.ready(q, wait)) {
            board.hand_over();
            self.handed.notify_all();
        }
        while board.turn != q {
            board = self
                .handed
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        }
        board.waits[q] = Wait::Turn;
        match board.ready(q, wait) {
            true => Ok(board),
            false => Err(Closed),
        }
    }

    /// Runs `job`'s delta loop on the simulated cluster from the state,
    /// static and output directories `dirs`: `cfg.num_tasks` pair
    /// threads taking turns, each committing its final values as its
    /// loop encoded them (Fig. 1b).
    pub(crate) fn run_delta<J: Accumulative>(
        runner: &IterativeRunner,
        job: &J,
        cfg: &IterConfig,
        dirs: [&str; 3],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let n = cfg.num_tasks;
        let cost = &runner.cluster.cost;
        let launched = VInstant::EPOCH + cost.job_setup + cost.task_launch;
        let [state_dir, static_dir, output_dir] = dirs.map(str::to_owned);
        let pair_cfg = &pair_cfg(cfg, num_parts(&runner.dfs, &state_dir));
        let links = vec![vec![VecDeque::new(); n]; n];
        let board = Board {
            waits: vec![Wait::Turn; n],
            links: [links.clone(), links],
            beats: vec![Vec::new(); n],
            ..Board::default()
        };
        let turns = &Turns {
            runner,
            assignment: runner.cluster.assign_pairs(n),
            dirs: PairDirs {
                state_dir,
                static_dir,
                output_dir,
            },
            board: Mutex::new(board),
            handed: Condvar::new(),
        };
        let plan = &PairPlan {
            kills: vec![],
            hangs: vec![],
            delays: vec![],
            speed: 1.0,
            crash_after: None,
        };
        let pair = |q| {
            let clock = TaskClock::starting_at(launched);
            let mut env = SimEnv { turns, q, clock };
            drop(turns.take_turn(q, Wait::Turn));
            let (dirs, metrics) = (&turns.dirs, &runner.metrics);
            let ctx = PairCtx {
                q,
                job,
                cfg: pair_cfg,
                dirs,
                plan,
                epoch: 0,
                metrics,
                env: &mut env,
            };
            let mut outcome = catch_unwind(AssertUnwindSafe(|| delta_loop(ctx)))
                .unwrap_or_else(|panic| Err(EngineError::Worker(panic_message(q, panic))));
            if let Ok(PairOutcome::Finished { final_data, .. }) = &outcome {
                let (path, data) = (part_path(&dirs.output_dir, q), final_data.clone());
                if let Err(e) = runner.dfs.put(&path, data, env.node(), &mut env.clock) {
                    outcome = Err(e.into());
                }
            }
            let mut board = turns.lock();
            board.waits[q] = Wait::Done;
            board.poisoned |= !matches!(outcome, Ok(PairOutcome::Finished { .. }));
            board.hand_over();
            turns.handed.notify_all();
            outcome.map(|outcome| (outcome, env.clock.now()))
        };
        let ends: Vec<_> = std::thread::scope(|scope| {
            let pairs: Vec<_> = (0..n).map(|q| scope.spawn(move || pair(q))).collect();
            let joined = pairs.into_iter().map(|pair| pair.join());
            joined
                .map(|end| end.unwrap_or_else(|panic| resume_unwind(panic)))
                .collect()
        });

        // The first real failure, in pair order, is the run's.
        let (mut final_state, mut finished) = (Vec::new(), VInstant::EPOCH);
        let ends = ends.into_iter().collect::<Result<Vec<_>, _>>()?;
        for (q, (outcome, end)) in ends.into_iter().enumerate() {
            let PairOutcome::Finished { final_data, .. } = outcome else {
                return Err(EngineError::Worker(format!("pair {q} ended {outcome:?}")));
            };
            final_state.extend(decode_pairs(final_data)?);
            finished = finished.max(end);
        }
        sort_run(&mut final_state);
        let mut report = RunReport {
            label: "iMapReduce (delta)".to_owned(),
            finished,
            ..RunReport::default()
        };
        let mut distances = Vec::new();
        let beats = &turns.lock().beats;
        for check in 0..beats.iter().map(Vec::len).min().unwrap_or(0) {
            let beats = beats.iter().map(|pair| pair[check]);
            let last = beats
                .clone()
                .map(|(at, ..)| at)
                .fold(VInstant::EPOCH, VInstant::max);
            report.iteration_done.push(last + cost.net_latency);
            distances.push(fold_votes(beats.map(|(_, d, has_prev)| (d, has_prev))).0);
        }
        report.metrics = runner.metrics.snapshot();
        Ok(IterOutcome {
            report,
            final_state,
            iterations: distances.len(),
            distances,
            migrations: 0,
            recoveries: 0,
        })
    }
}

/// One pair's view of a [`Turns`] run.
struct SimEnv<'t, 'r> {
    turns: &'t Turns<'r>,
    q: usize,
    clock: TaskClock,
}

impl SimEnv<'_, '_> {
    fn node(&self) -> NodeId {
        self.turns.assignment[self.q]
    }

    /// Puts `part` in flight to pair `dest`, stamped with this instant.
    fn post(&self, kind: usize, dest: usize, part: Bytes) {
        let sent = (part, self.clock.now());
        self.turns.lock().links[kind][dest][self.q].push_back(sent);
    }
}

impl Transport for SimEnv<'_, '_> {
    fn send(&mut self, dest: usize, seg: Bytes) -> Result<(), Closed> {
        self.post(SEGMENTS, dest, seg);
        Ok(())
    }

    fn recv(&mut self, src: usize) -> Result<Bytes, Closed> {
        let mut board = self.turns.take_turn(self.q, Wait::Recv(src))?;
        let (seg, sent) = board.links[SEGMENTS][self.q][src]
            .pop_front()
            .ok_or(Closed)?;
        drop(board);
        let from = self.turns.assignment[src];
        let arrival = self
            .turns
            .runner
            .arrival(sent, from, self.node(), seg.len() as u64);
        self.clock.merge(arrival);
        Ok(seg)
    }
}

impl PairEnv for SimEnv<'_, '_> {
    type Cost<'c>
        = ClockCharge<'c>
    where
        Self: 'c;

    fn now_ns(&self) -> u64 {
        self.clock.now().as_nanos()
    }

    fn cost(&mut self) -> ClockCharge<'_> {
        let cluster = &self.turns.runner.cluster;
        let speed = cluster.speed(self.node());
        ClockCharge::new(&mut self.clock, &cluster.cost, speed)
    }

    fn is_poisoned(&self) -> bool {
        self.turns.lock().poisoned
    }

    fn allgather(&mut self, mine: Bytes) -> Result<Vec<Bytes>, Closed> {
        for dest in 0..self.turns.assignment.len() {
            self.post(GATHER, dest, mine.clone());
        }
        let mut board = self.turns.take_turn(self.q, Wait::Gather)?;
        let links = board.links[GATHER][self.q].iter_mut();
        let parts: Vec<_> = links.filter_map(VecDeque::pop_front).collect();
        drop(board);
        let last = parts
            .iter()
            .map(|(_, at)| *at)
            .fold(VInstant::EPOCH, VInstant::max);
        self.clock
            .merge(last + self.turns.runner.cluster.cost.net_latency);
        Ok(parts.into_iter().map(|(part, _)| part).collect())
    }

    fn read_part(&mut self, dir: &str, part: usize) -> Result<Bytes, EnvFail> {
        let (runner, node) = (self.turns.runner, self.node());
        let raw = runner
            .dfs
            .read(&part_path(dir, part), node, &mut self.clock)?;
        self.clock
            .advance(runner.cluster.cost.serde_per_byte * raw.len() as u64);
        Ok(raw)
    }

    fn write_checkpoint(&mut self, iteration: usize, payload: Bytes) -> Result<(), EnvFail> {
        let (dfs, output_dir) = (&self.turns.runner.dfs, &self.turns.dirs.output_dir);
        let path = part_path(&snapshot_dir(output_dir, iteration), self.q);
        dfs.put_atomic(&path, payload, self.node(), &mut TaskClock::default())?;
        let mut board = self.turns.lock();
        let (written, previous) = board.checkpoint;
        board.checkpoint = (written + 1, previous);
        if written + 1 == self.turns.assignment.len() {
            if previous > 0 {
                delete_dir(dfs, &snapshot_dir(output_dir, previous));
            }
            board.checkpoint = (0, iteration);
        }
        Ok(())
    }

    fn beat(&mut self, _iteration: usize, _busy_secs: f64, d: f64, has_prev: bool) {
        let now = self.clock.now();
        self.turns.lock().beats[self.q].push((now, d, has_prev));
    }

    /// The simulator scripts no faults; a hang would never end.
    fn hang(&mut self) {}

    fn emit(&mut self, event: TraceEvent) {
        let node = self.node().index() as u32;
        self.turns
            .runner
            .observer
            .emit(TraceEvent { node, ..event });
    }
}
