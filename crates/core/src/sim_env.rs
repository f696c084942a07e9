//! The simulator's [`PairEnv`]: the pair loop, stepped on a virtual
//! clock — the native backends' running scheme, but sequential.
//!
//! Every simulated run is core's loop — `pair_loop` for a map/reduce
//! job, `delta_loop` in the delta mode — on a thread per pair, one at a
//! time: a pair holds the turn until it would block — on a segment not
//! yet sent, at a collective, or, in a run that may roll back, after
//! reporting an iteration the others have not finished — and then wakes
//! the lowest-numbered pair that can go on, and only that one. So every counter increment and event
//! happens in one order on every run, whatever the OS scheduler does:
//! the observer samples the counters at each `IterEnd`. When no pair can
//! go on and not all are done, the run is deadlocked: the board is
//! poisoned and every pair unwinds.
//!
//! Time is the pair's [`TaskClock`]. The kernel and the loop charge
//! their work to it through the [`PairEnv::cost`] hook; `send` stamps a
//! segment with the sender's instant, and `recv` moves the clock to its
//! arrival (plus the cluster's transfer time) and counts it local or
//! remote; a DFS read charges the read and the decode. The loop's phase
//! hooks carry the rest of the map/reduce cost model: `stretch` charges
//! each phase's straggler slowdown and a scripted delay, and holds an
//! eager hand-off's map until its input is complete; `handed_off`
//! charges the one2one flush and local transfer, and moves the clock to
//! when the next map may start. Of the all-gathers, the barrier releases
//! at the last arrival, the one2all broadcast once every part has
//! crossed the network, and the termination vote of a map/reduce run
//! releases at once — no map waits for the master's decision — while a
//! delta check waits one network latency after the last report.
//!
//! The master is core's `supervise`, as on the native engines; [`Turns`]
//! is the simulator's generation runner, as the channel mesh and the TCP
//! hub are natively, and its board keeps what a virtual clock needs of
//! the master (§3.1.2): once every pair has reported iteration k, it
//! records when the iteration ended and when the master decided it,
//! runs the auxiliary phase's clock (§5.3), notes a hang a pair's plan
//! scripts at k for the watchdog's charge, and poisons the generation
//! when the balancer picks a migration from the reported loads (§3.4.2).
//! A scripted kill or hang (§3.4.1) poisons nothing here: as natively,
//! the failing pair votes, writes its snapshot of k and exits, and its
//! own outcome poisons the generation. Before the next generation the
//! board fails the DFS disks of the nodes `supervise` took out of
//! service — the simulator's model of a failed node — and charges the
//! relaunch: only a pair `supervise` moved — off a failed node, or to
//! where the balancer sent it — is relaunched and rereads its static
//! parts (one per phase); every pair's state part is reloaded from the
//! DFS on its behalf, and the pairs resume together once the last reload
//! and the DFS's re-replication are done. Checkpoint parts are held until their epoch
//! is complete, then written in pair order, retiring the epoch before.

use crate::api::IterativeJob;
use crate::aux::AuxPhase;
use crate::config::{FaultEvent, IterConfig, Mode};
use crate::engine::{IterOutcome, IterativeRunner};
use crate::kernel::fold_votes;
use crate::pair::{pair_cfg, panic_message, run_label, EnvFail, PairCtx, PairEnv};
use crate::pair::{PairCfg, PairDirs, PairMode, PairOutcome, PairPlan, Phase};
use crate::supervise::{supervise, Fleet, GenInput, GenRuns, Intervention, PairRun};
use bytes::Bytes;
use imr_dfs::{snapshot_dir, Dfs};
use imr_mapreduce::io::{delete_dir, num_parts, part_path};
use imr_mapreduce::{ClockCharge, EngineError};
use imr_net::{Closed, Transport};
use imr_records::{pairs_encoded_len, Codec};
use imr_simcluster::{NodeId, TaskClock, VDuration, VInstant};
use imr_trace::TraceEvent;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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
    /// Every pair's report of this iteration.
    Beat(usize),
    Done,
}

/// The two link matrices: shuffle segments and collective contributions.
const SEGMENTS: usize = 0;
const GATHER: usize = 1;

/// The collective a pair's next all-gather is.
#[derive(Clone, Copy, PartialEq)]
enum Gather {
    Barrier,
    Broadcast,
    Vote,
}

/// What one pair reported of one iteration.
#[derive(Clone, Copy)]
struct Beat {
    /// When its reduce (in the delta mode: its check) ended.
    at: VInstant,
    busy: f64,
    d: f64,
    has_prev: bool,
}

/// What the pairs share: the turn, the links, what they report, and the
/// master's clock.
#[derive(Default)]
struct Board {
    turn: usize,
    waits: Vec<Wait>,
    poisoned: bool,
    /// `links[kind][dest][src]`: what is in flight, with its send instant.
    links: [Vec<Vec<VecDeque<(Bytes, VInstant)>>>; 2],
    /// Per pair, its report of every iteration not rolled back.
    beats: Vec<Vec<Beat>>,
    /// Pair 0's aux total, verdict, and the records and encoded bytes
    /// each partial read, of every iteration from the second.
    aux: Vec<(f64, bool, Vec<(u64, u64)>)>,
    aux_read: Vec<(u64, u64)>,
    /// The parts of the checkpoint epoch being written.
    staged: Vec<Option<Bytes>>,
    /// The latest complete checkpoint epoch (0: the job's input).
    epoch: usize,
    /// Parts a pair reads without charge, by path: every pair's static
    /// part as it read it (only a relaunch rereads it), and the state
    /// parts the master reloaded (a snapshot's path names its epoch, so
    /// an earlier rollback's are never read again).
    held: HashMap<String, Bytes>,
    // ---- The generation, as `supervise` launched it ----------------------
    assignment: Vec<NodeId>,
    /// The nodes out of service, which the balancer never targets.
    down: Vec<NodeId>,
    plans: Vec<PairPlan>,
    migrations_done: u64,
    // ---- The master's clock ----------------------------------------------
    /// When each iteration ended: its last reduce, or in the delta mode
    /// the decision.
    iteration_done: Vec<VInstant>,
    /// When the master decided the last iteration.
    decided: VInstant,
    /// A pair's plan hangs at the last decision: the watchdog declares
    /// it only after `stall_timeout` of silence.
    stalled: bool,
    /// The migration the balancer picked at the last decision.
    intervention: Option<Intervention>,
}

impl Board {
    fn ready(&self, q: usize, wait: Wait) -> bool {
        match wait {
            Wait::Turn => true,
            Wait::Recv(src) => !self.links[SEGMENTS][q][src].is_empty(),
            Wait::Gather => self.links[GATHER][q].iter().all(|link| !link.is_empty()),
            Wait::Beat(it) => self.beats.iter().all(|beats| beats.len() >= it),
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

/// The simulator's generation runner: `cfg.num_tasks` pairs on the
/// cluster, taking turns.
pub(crate) struct Turns<'r> {
    runner: &'r IterativeRunner,
    cfg: &'r IterConfig<dyn Mode>,
    pair_cfg: PairCfg,
    dirs: PairDirs,
    /// Whether a rollback can happen: the static parts are kept, and no
    /// pair goes past an iteration before the master decided it.
    rollbacks: bool,
    /// The job's phases: a pair holds one static part per phase.
    phases: usize,
    board: Mutex<Board>,
    /// One per pair: a hand-over wakes the pair it hands the turn to.
    handed: Vec<Condvar>,
}

/// A simulated run as `supervise` drives it: one generation of
/// `pair_fn` (core's `pair_loop` or `delta_loop`) per call.
struct Sim<'t, J: IterativeJob, F> {
    turns: &'t Turns<'t>,
    job: &'t J,
    pair_fn: F,
    aux: Option<&'t dyn AuxPhase<J::K, J::S>>,
}

impl<'r> Turns<'r> {
    fn new(
        runner: &'r IterativeRunner,
        cfg: &'r IterConfig<dyn Mode>,
        dirs: [&str; 3],
        faults: &[FaultEvent],
        phases: usize,
    ) -> Self {
        let [state_dir, static_dir, output_dir] = dirs.map(str::to_owned);
        let balanced = cfg
            .mode
            .iterative()
            .is_some_and(|m| m.load_balance.is_some());
        Turns {
            runner,
            cfg,
            pair_cfg: pair_cfg(cfg, num_parts(&runner.dfs, &state_dir)),
            dirs: PairDirs {
                state_dir,
                static_dir,
                output_dir,
            },
            rollbacks: !faults.is_empty() || balanced,
            phases,
            board: Mutex::default(),
            handed: (0..cfg.num_tasks).map(|_| Condvar::new()).collect(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Board> {
        // Only a panic inside this module could poison the mutex.
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn hand_over(&self, board: &mut Board) {
        board.hand_over();
        self.handed[board.turn].notify_one();
    }

    /// Blocks pair `q` until it holds the turn with `wait` satisfied,
    /// handing the turn over first if `wait` is not — or is the
    /// collective, so that pairs leave every collective in pair order.
    fn take_turn(&self, q: usize, wait: Wait) -> Result<MutexGuard<'_, Board>, Closed> {
        let mut board = self.lock();
        board.waits[q] = wait;
        if board.turn == q && (wait == Wait::Gather || !board.ready(q, wait)) {
            self.hand_over(&mut board);
        }
        while board.turn != q {
            board = self.handed[q]
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        }
        board.waits[q] = Wait::Turn;
        match board.ready(q, wait) {
            true => Ok(board),
            false => Err(Closed),
        }
    }

    /// Runs `job` on the simulated cluster — `pair_fn` is core's
    /// `pair_loop`, with the auxiliary phase `aux` if given, or its
    /// `delta_loop` — under the one master, through every rollback the
    /// faults and the load balancer cause. Returns the outcome and the
    /// aux totals.
    pub(crate) fn run<J, F>(
        runner: &IterativeRunner,
        job: &J,
        cfg: &IterConfig<dyn Mode>,
        dirs: [&str; 3],
        (faults, aux): (&[FaultEvent], Option<&dyn AuxPhase<J::K, J::S>>),
        pair_fn: F,
    ) -> Result<(IterOutcome<J::K, J::S>, Vec<f64>), EngineError>
    where
        J: IterativeJob,
        F: Fn(PairCtx<'_, J, SimEnv<'_>>) -> Result<PairOutcome, EngineError> + Sync,
    {
        let turns = Turns::new(runner, cfg, dirs, faults, job.phases());
        let (metrics, output_dir) = (&runner.metrics, &turns.dirs.output_dir);
        let mut sim = Sim {
            turns: &turns,
            job,
            pair_fn,
            aux,
        };
        let outcome = supervise::<J>(
            &runner.dfs,
            &runner.cluster,
            metrics,
            cfg,
            output_dir,
            faults,
            run_label("iMapReduce", &turns.pair_cfg.mode, ""),
            false,
            &runner.observer,
            None,
            &mut sim,
        )?;
        let aux = turns.lock().aux.iter().map(|(total, ..)| *total).collect();
        Ok((outcome, aux))
    }

    /// Sets the board up for generation `gen`; returns when its pairs
    /// start. The first starts after job setup and task launch. A later
    /// one follows a rollback, which began when the master decided — or,
    /// after a hang, `stall_timeout` later: each pair `supervise` moved
    /// is relaunched on its new node and rereads its static parts, and
    /// every pair's state part is reloaded from the epoch; the pairs
    /// resume once the last of these is done.
    fn relaunch(&self, gen: &GenInput<'_>) -> Result<VInstant, EngineError> {
        let (cluster, dfs, epoch) = (&self.runner.cluster, &self.runner.dfs, gen.epoch);
        let mut board = self.lock();
        let board = &mut *board;
        let before = std::mem::replace(&mut board.assignment, gen.assignment.to_vec());
        board.plans = gen.plans.to_vec();
        board.down = gen.down.to_vec();
        board.migrations_done = gen.migrations_done;
        board.iteration_done.truncate(epoch);
        board.aux.truncate(epoch.saturating_sub(1));
        board.beats.resize(gen.assignment.len(), Vec::new());
        board
            .beats
            .iter_mut()
            .for_each(|beats| beats.truncate(epoch));
        board.staged.clear();
        if gen.generation == 0 {
            return Ok(VInstant::EPOCH + cluster.cost.job_setup + cluster.cost.task_launch);
        }
        // A hung pair is declared failed only after `stall_timeout` of
        // silence.
        let hung = std::mem::take(&mut board.stalled).then_some(self.cfg.watchdog);
        let timeout = hung
            .flatten()
            .map_or(0.0, |wd| wd.stall_timeout.as_secs_f64());
        let began = board.decided + VDuration::from_secs_f64(timeout);
        let mut resume = began;
        // A node the master took out of service loses its disks
        // (§3.4.1); the pairs resume once the DFS has copied what they
        // held back up to the replication factor.
        for &node in gen.failed {
            let mut clock = TaskClock::starting_at(began);
            dfs.fail_node(node, &mut clock);
            resume = resume.max(clock.now());
        }
        let n = before.len();
        for p in (0..n).filter(|&p| before[p] != board.assignment[p]) {
            let mut clock = TaskClock::starting_at(began + cluster.cost.task_launch);
            for phase in 0..self.phases {
                let path = part_path(&self.dirs.static_dir, phase * n + p);
                let raw = dfs.read(&path, board.assignment[p], &mut clock)?;
                board.held.insert(path, raw);
            }
            resume = resume.max(clock.now());
        }
        let dir = match epoch {
            0 => self.dirs.state_dir.clone(),
            _ => snapshot_dir(&self.dirs.output_dir, epoch),
        };
        let parts = num_parts(dfs, &dir);
        let one2all = matches!(self.pair_cfg.mode, PairMode::One2All { .. });
        for (p, &node) in board.assignment.iter().enumerate() {
            let mut clock = TaskClock::starting_at(began);
            let own = if one2all { 0..parts } else { p..p + 1 };
            for path in own.map(|i| part_path(&dir, i)) {
                let raw = dfs.read(&path, node, &mut clock)?;
                board.held.insert(path, raw);
            }
            resume = resume.max(clock.now());
        }
        Ok(resume)
    }

    /// Runs generation `gen` of `pair_fn`, every pair's clock starting
    /// at `start`. Returns what each pair's loop returned.
    fn generation<J, F>(
        &self,
        job: &J,
        pair_fn: &F,
        aux: Option<&dyn AuxPhase<J::K, J::S>>,
        gen: &GenInput<'_>,
        start: VInstant,
    ) -> Vec<Result<PairOutcome, EngineError>>
    where
        J: IterativeJob,
        F: Fn(PairCtx<'_, J, SimEnv<'_>>) -> Result<PairOutcome, EngineError> + Sync,
    {
        let (nodes, n) = (gen.assignment, gen.assignment.len());
        let mut board = self.lock();
        let links = vec![vec![VecDeque::new(); n]; n];
        board.links = [links.clone(), links];
        board.waits = vec![Wait::Turn; n];
        (board.turn, board.poisoned) = (0, false);
        drop(board);
        // Pair 0 hands the master its aux partials (every pair sums the
        // same ones).
        let tap = aux.map(|aux| AuxTap(aux, self));
        let pair = |q: usize| {
            let mut env = SimEnv {
                turns: self,
                q,
                nodes,
                generation: gen.generation,
                clock: TaskClock::starting_at(start),
                reload: (gen.generation > 0).then(TaskClock::default),
                gather: Gather::Barrier,
                complete: VInstant::EPOCH,
                map_busy: Duration::ZERO,
                work_start: VInstant::EPOCH,
                reduce_done: start,
            };
            drop(self.take_turn(q, Wait::Turn));
            let aux = match &tap {
                Some(tap) if q == 0 => Some(tap as &dyn AuxPhase<J::K, J::S>),
                _ => aux,
            };
            let ctx = PairCtx {
                q,
                job,
                cfg: &self.pair_cfg,
                dirs: &self.dirs,
                plan: &gen.plans[q],
                epoch: gen.epoch,
                metrics: &self.runner.metrics,
                aux,
                env: &mut env,
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| pair_fn(ctx)))
                .unwrap_or_else(|panic| Err(EngineError::Worker(panic_message(q, panic))));
            let mut board = self.lock();
            board.waits[q] = Wait::Done;
            board.poisoned |= !matches!(outcome, Ok(PairOutcome::Finished { .. }));
            self.hand_over(&mut board);
            outcome
        };
        std::thread::scope(|scope| {
            let pairs: Vec<_> = (0..n).map(|q| scope.spawn(move || pair(q))).collect();
            let joined = pairs.into_iter().map(|pair| pair.join());
            joined
                .map(|end| end.unwrap_or_else(|panic| resume_unwind(panic)))
                .collect()
        })
    }

    /// The master's view once every pair has reported iteration `k`: the
    /// iteration ended with the last reduce; the decision comes one
    /// network latency later — or when the auxiliary phase's stop signal
    /// reaches the maps. Unless the run is done or a pair's plan kills or
    /// hangs at `k` (its own exit poisons the generation), a migration
    /// the balancer picks from the reported loads poisons it.
    fn decide(&self, board: &mut Board, k: usize) {
        let (cluster, n) = (&self.runner.cluster, board.assignment.len());
        let cost = &cluster.cost;
        let beats: Vec<Beat> = board.beats.iter().map(|beats| beats[k - 1]).collect();
        let done_at = beats.iter().map(|b| b.at).max().unwrap_or_default();
        let (total, any_prev) = fold_votes(beats.iter().map(|b| (b.d, b.has_prev)));
        let threshold = self.cfg.termination.distance_threshold;
        // Aux map q reads reduce q's output locally once it is done and
        // ships one partial to the aux reducer on pair 0's node, which
        // sums them and broadcasts the stop signal.
        let mut stop = None;
        if let Some((_, verdict, read)) = board.aux.get(k.wrapping_sub(2)).cloned() {
            let mut aux_reduce = TaskClock::default();
            for (q, ((records, bytes), beat)) in read.into_iter().zip(&beats).enumerate() {
                let (node, aux_reducer) = (board.assignment[q], board.assignment[0]);
                let mut clock = TaskClock::starting_at(beat.at);
                clock.advance(cost.compute_time(records, bytes, cluster.speed(node)));
                aux_reduce.merge(clock.now() + cluster.transfer_time(node, aux_reducer, 16));
            }
            aux_reduce.advance(cost.compute_time(n as u64, 0, 1.0));
            stop = verdict.then(|| aux_reduce.now() + cost.net_latency);
        }
        board.decided = stop.unwrap_or(done_at + cost.net_latency);
        // A delta check ends when the master decides it.
        let delta = matches!(self.pair_cfg.mode, PairMode::Delta { .. });
        (board.iteration_done).push(if delta { board.decided } else { done_at });
        let converged = threshold.is_some_and(|eps| any_prev && total < eps);
        if converged || stop.is_some() || k == self.cfg.termination.max_iterations {
            return;
        }
        let plans = &board.plans;
        board.stalled = plans.iter().any(|plan| plan.hangs.contains(&k));
        let faulted = board.stalled || plans.iter().any(|plan| plan.kills.contains(&k));
        if board.stalled {
            // The native watchdog counts the hang it detects.
            self.runner.metrics.stalls_detected.add(1);
        }
        if let Some(lb) = (self.cfg.mode.iterative().and_then(|m| m.load_balance))
            .filter(|lb| !faulted && board.migrations_done < lb.max_migrations as u64 && n > 1)
        {
            let busy: Vec<f64> = beats.iter().map(|b| b.busy).collect();
            let (at, down) = (&board.assignment, &board.down);
            let moved = cluster.pick_migration(at, &busy, lb.deviation, down);
            board.intervention = moved.map(|(pair, to)| Intervention::Migrate { pair, to });
            board.poisoned |= board.intervention.is_some();
        }
    }
}

impl<J, F> Fleet for Sim<'_, J, F>
where
    J: IterativeJob,
    F: Fn(PairCtx<'_, J, SimEnv<'_>>) -> Result<PairOutcome, EngineError> + Sync,
{
    /// Each pair's run, as the master reads it: its votes, the board's
    /// instant of each iteration, the board's epoch and how its loop
    /// ended.
    fn run_gen(&mut self, gen: GenInput<'_>) -> Result<GenRuns, EngineError> {
        let (turns, epoch) = (self.turns, gen.epoch);
        let start = turns.relaunch(&gen)?;
        let ends = turns.generation(self.job, &self.pair_fn, self.aux, &gen, start);
        let mut board = turns.lock();
        let done = board.iteration_done.get(epoch..).unwrap_or_default();
        let runs = (ends.into_iter().zip(&board.beats)).map(|(outcome, beats)| {
            let beats = beats.get(epoch..).unwrap_or_default();
            let done = done.iter().take(beats.len());
            PairRun {
                local_dist: beats.iter().map(|b| (b.d, b.has_prev)).collect(),
                iter_done: done.map(|at| Duration::from_nanos(at.as_nanos())).collect(),
                last_ckpt: board.epoch,
                outcome,
            }
        });
        Ok((runs.collect(), board.intervention.take()))
    }

    /// The master acts at its last decision.
    fn now_ns(&self, _started: Instant) -> u64 {
        self.turns.lock().decided.as_nanos()
    }

    /// Each pair commits its final state once it is done and the master
    /// has decided the last iteration (Fig. 1b).
    fn commit(
        &mut self,
        _dfs: &Dfs,
        output_dir: &str,
        parts: Vec<Bytes>,
        _started: Instant,
    ) -> Result<VInstant, EngineError> {
        let (board, runner) = (self.turns.lock(), self.turns.runner);
        let last = |beats: &Vec<Beat>| beats.last().map_or(VInstant::EPOCH, |beat| beat.at);
        let starts = board
            .beats
            .iter()
            .map(|beats| last(beats).max(board.decided));
        let starts: Vec<VInstant> = starts.collect();
        runner.dump_final(output_dir, parts, &board.assignment, &starts)
    }
}

/// Pair 0's view of the auxiliary phase: it reports what the master
/// needs to clock the phase — how many records each partial read, the
/// total and the verdict.
struct AuxTap<'t, K, S>(&'t dyn AuxPhase<K, S>, &'t Turns<'t>);

impl<K: Codec, S: Codec> AuxPhase<K, S> for AuxTap<'_, K, S> {
    fn partial(&self, prev: &[(K, S)], cur: &[(K, S)]) -> f64 {
        let read = (
            (prev.len() + cur.len()) as u64,
            pairs_encoded_len(cur) as u64,
        );
        self.1.lock().aux_read.push(read);
        self.0.partial(prev, cur)
    }

    fn should_terminate(&self, total: f64) -> bool {
        let verdict = self.0.should_terminate(total);
        let mut board = self.1.lock();
        let read = std::mem::take(&mut board.aux_read);
        board.aux.push((total, verdict, read));
        verdict
    }
}

/// One pair's view of a [`Turns`] generation.
pub(crate) struct SimEnv<'t> {
    turns: &'t Turns<'t>,
    q: usize,
    /// Where each pair runs in this generation.
    nodes: &'t [NodeId],
    generation: u32,
    clock: TaskClock,
    /// A relaunched generation's load is the master's: until the pair's
    /// first event, what its load charges goes here.
    reload: Option<TaskClock>,
    gather: Gather,
    /// When the next map's input is complete.
    complete: VInstant,
    /// This iteration's stretched map busy time.
    map_busy: Duration,
    /// When this iteration's reduce work started and ended.
    work_start: VInstant,
    reduce_done: VInstant,
}

impl SimEnv<'_> {
    fn node(&self) -> NodeId {
        self.nodes[self.q]
    }

    /// Puts `part` in flight to pair `dest`, stamped with this instant.
    fn post(&self, kind: usize, dest: usize, part: Bytes) {
        let sent = (part, self.clock.now());
        self.turns.lock().links[kind][dest][self.q].push_back(sent);
    }
}

impl Transport for SimEnv<'_> {
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
        let arrival =
            (self.turns.runner).arrival(sent, self.nodes[src], self.node(), seg.len() as u64);
        self.clock.merge(arrival);
        Ok(seg)
    }
}

impl PairEnv for SimEnv<'_> {
    type Cost<'c>
        = ClockCharge<'c>
    where
        Self: 'c;

    fn now_ns(&self) -> u64 {
        self.clock.now().as_nanos()
    }

    fn cost(&mut self) -> ClockCharge<'_> {
        let cluster = &self.turns.runner.cluster;
        let speed = cluster.speed(self.nodes[self.q]);
        let clock = self.reload.as_mut().unwrap_or(&mut self.clock);
        ClockCharge::new(clock, &cluster.cost, speed)
    }

    fn is_poisoned(&self) -> bool {
        self.turns.lock().poisoned
    }

    fn allgather(&mut self, mine: Bytes) -> Result<Vec<Bytes>, Closed> {
        for dest in 0..self.nodes.len() {
            self.post(GATHER, dest, mine.clone());
        }
        let mut board = self.turns.take_turn(self.q, Wait::Gather)?;
        let links = board.links[GATHER][self.q].iter_mut();
        let parts: Vec<_> = links.filter_map(VecDeque::pop_front).collect();
        drop(board);
        let (cluster, gather) = (&self.turns.runner.cluster, self.gather);
        let arrival = |src: usize, (part, at): &(Bytes, VInstant)| match gather {
            // Every reduce ships its output to every map task.
            Gather::Broadcast => {
                let transfer =
                    cluster.transfer_time(self.nodes[src], self.node(), part.len() as u64);
                *at + cluster.cost.handoff_flush + transfer
            }
            _ => *at,
        };
        let arrivals = parts
            .iter()
            .enumerate()
            .map(|(src, part)| arrival(src, part));
        let release = arrivals.max().unwrap_or_default();
        match gather {
            Gather::Vote if !matches!(self.turns.pair_cfg.mode, PairMode::Delta { .. }) => {}
            Gather::Vote => drop(self.clock.merge(release + cluster.cost.net_latency)),
            _ => drop(self.clock.merge(release)),
        }
        if gather == Gather::Vote {
            self.gather = Gather::Barrier;
        }
        Ok(parts.into_iter().map(|(part, _)| part).collect())
    }

    fn read_part(&mut self, dir: &str, part: usize) -> Result<Bytes, EnvFail> {
        let path = part_path(dir, part);
        if let Some(raw) = self.turns.lock().held.get(&path) {
            return Ok(raw.clone());
        }
        let runner = self.turns.runner;
        let raw = runner.dfs.read(&path, self.node(), &mut self.clock)?;
        let cost = &runner.cluster.cost;
        self.clock.advance(cost.serde_per_byte * raw.len() as u64);
        if dir == self.turns.dirs.static_dir && self.turns.rollbacks {
            self.turns.lock().held.insert(path, raw.clone());
        }
        Ok(raw)
    }

    /// Holds the part until its epoch is complete, then writes every
    /// part off the critical path and retires the epoch before. The loop
    /// counted the payload; the run counts what the DFS replicated.
    fn write_checkpoint(&mut self, iteration: usize, payload: Bytes) -> Result<(), EnvFail> {
        // No pair writes epoch k + 1 before every pair wrote epoch k: it
        // cannot report k + 1 before them.
        let mut board = self.turns.lock();
        board.staged.resize(self.nodes.len(), None);
        board.staged[self.q] = Some(payload);
        if board.staged.iter().any(Option::is_none) {
            return Ok(());
        }
        let (runner, output_dir) = (self.turns.runner, &self.turns.dirs.output_dir);
        let (dfs, metrics) = (&runner.dfs, &runner.metrics);
        let dir = snapshot_dir(output_dir, iteration);
        for (p, payload) in std::mem::take(&mut board.staged)
            .into_iter()
            .flatten()
            .enumerate()
        {
            let (before, len) = (metrics.dfs_write_bytes.get(), payload.len() as u64);
            let path = part_path(&dir, p);
            dfs.put_atomic(&path, payload, self.nodes[p], &mut TaskClock::default())?;
            let written = metrics.dfs_write_bytes.get() - before;
            metrics.checkpoint_bytes.add(written.saturating_sub(len));
        }
        if board.epoch > 0 {
            delete_dir(dfs, &snapshot_dir(output_dir, board.epoch));
        }
        board.epoch = iteration;
        Ok(())
    }

    /// Reports iteration `it` to the master. When the master may roll
    /// the run back, the pair then waits until every pair has reported
    /// `it`: no pair goes past an iteration the master has not decided.
    fn beat(&mut self, it: usize, busy_secs: f64, d: f64, has_prev: bool) {
        let beat = Beat {
            at: self.reduce_done,
            busy: busy_secs,
            d,
            has_prev,
        };
        if self.turns.pair_cfg.mode.threshold().is_some() {
            self.gather = Gather::Vote;
        }
        let mut board = self.turns.lock();
        board.beats[self.q].push(beat);
        if board.ready(self.q, Wait::Beat(it)) {
            self.turns.decide(&mut board, it);
        }
        drop(board);
        if self.turns.rollbacks {
            drop(self.turns.take_turn(self.q, Wait::Beat(it)));
        }
    }

    /// The hung pair's `Stalled` exit poisons the generation; the board
    /// charges the watchdog's `stall_timeout` at the relaunch.
    fn hang(&mut self) {}

    fn emit(&mut self, event: TraceEvent) {
        self.reload = None;
        let (node, generation) = (self.node().index() as u32, self.generation);
        let event = TraceEvent {
            node,
            generation,
            ..event
        };
        self.turns.runner.observer.emit(event);
    }

    /// Charges the phase's straggler slowdown (and, to the reduce, a
    /// scripted delay); the delta mode charges none.
    fn stretch(&mut self, phase: Phase, it: usize, busy: Duration, plan: &PairPlan) -> Duration {
        if let PairMode::Delta { .. } = self.turns.pair_cfg.mode {
            self.reduce_done = self.clock.now();
            return busy;
        }
        let cost = &self.turns.runner.cluster.cost;
        let (id, own) = match phase {
            Phase::Map => (1, busy),
            _ => (2, busy - self.map_busy),
        };
        let start = VInstant::from_nanos(self.clock.now().as_nanos() - own.as_nanos() as u64);
        let own = self.clock.now().duration_since(start);
        self.clock
            .advance(own * cost.straggler(it as u64, self.q as u64, id));
        let delays = plan.delays.iter().filter(|&&(at, _)| at == it);
        for &(_, millis) in delays.filter(|_| phase == Phase::Reduce) {
            self.clock.advance(VDuration::from_millis(millis));
        }
        let stretched = Duration::from_nanos(self.clock.now().duration_since(start).as_nanos());
        if phase == Phase::Map {
            self.map_busy = stretched;
            // Pipelined consumption cannot outrun its producer.
            self.clock.merge(self.complete);
            return stretched;
        }
        (self.work_start, self.reduce_done) = (start, self.clock.now());
        self.gather = Gather::Broadcast;
        self.map_busy + stretched
    }

    /// One2one: the new state goes over a persistent local socket to the
    /// paired map task, which starts once it has all of it — or, with
    /// the eager hand-off, at the first buffer flush after the reduce
    /// cleared its shuffle barrier (§3.3). One2all: the broadcast gather
    /// already waited for every part.
    fn handed_off(&mut self, _it: usize, bytes: u64) -> u64 {
        let cost = &self.turns.runner.cluster.cost;
        let sent = self.reduce_done + cost.handoff_flush;
        self.gather = Gather::Barrier;
        if let PairMode::One2All { .. } = self.turns.pair_cfg.mode {
            return sent.as_nanos();
        }
        self.complete = sent + cost.local_transfer_time(bytes);
        let eager = self
            .turns
            .cfg
            .mode
            .iterative()
            .is_some_and(|m| m.eager_handoff);
        let ready = match eager {
            true => self.work_start + cost.handoff_flush,
            false => self.complete,
        };
        self.clock = TaskClock::starting_at(ready);
        self.complete.as_nanos()
    }
}
