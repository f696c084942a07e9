//! Job configuration: the Rust equivalent of the paper's
//! `JobConf` parameters (`mapred.iterjob.*`).

use crate::api::Mapping;
use imr_mapreduce::EngineError;
use imr_net::{ChaosConfig, NetPolicy};
use imr_simcluster::NodeId;
use std::fmt;
use std::time::Duration;

/// Termination rule (paper §3.1.2): a fixed iteration cap, optionally
/// tightened by a distance threshold between consecutive iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Termination {
    /// `mapred.iterjob.maxiter` — hard upper bound on iterations.
    pub max_iterations: usize,
    /// `mapred.iterjob.disthresh` — stop once the accumulated
    /// `distance()` between consecutive iterations drops below this.
    pub distance_threshold: Option<f64>,
}

/// Load-balancing policy (paper §3.4.2): after each iteration the
/// master compares per-task iteration times and migrates the slowest
/// worker's map/reduce pair to the fastest worker when the deviation
/// exceeds a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadBalance {
    /// Migrate when `slowest / average > 1 + deviation`.
    pub deviation: f64,
    /// Upper bound on total migrations (guards against the paper's
    /// "large partition keeps moving around" pathology).
    pub max_migrations: usize,
}

impl Default for LoadBalance {
    fn default() -> Self {
        LoadBalance {
            deviation: 0.25,
            max_migrations: 8,
        }
    }
}

/// A scripted worker failure, used by fault-tolerance tests and the
/// recovery experiments: `node` dies once iteration `at_iteration` has
/// completed.
///
/// Both engines place pair `p` on `ClusterSpec::assign_pairs(n)[p]`, so
/// an event naming a node kills the same task pairs everywhere. On the
/// native backend the pairs hosted by `node` exit at that exact point
/// and the supervisor replays from the last complete checkpoint epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// The node that fails.
    pub node: NodeId,
    /// The iteration after which it fails (1-based).
    pub at_iteration: usize,
}

/// A scripted runtime fault. Generalizes [`FailureEvent`] (a kill) with
/// the two degraded-but-alive modes a watchdog must distinguish: a
/// bounded slowdown ([`FaultEvent::Delay`], which healthy recovery must
/// *not* react to) and an indefinite stall ([`FaultEvent::Hang`], which
/// only stall detection can turn back into a recoverable failure).
///
/// All three fire deterministically: the named node misbehaves once
/// iteration `at_iteration` has completed on its pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The node crashes (exactly [`FailureEvent`] semantics).
    Kill {
        /// The node that fails.
        node: NodeId,
        /// The iteration after which it fails (1-based).
        at_iteration: usize,
    },
    /// The node's pairs lose `millis` of processing time during this
    /// iteration but keep making progress. A correctly tuned watchdog
    /// leaves delays alone; delays are therefore *not* consumed on
    /// recovery and re-apply identically on replay.
    Delay {
        /// The node that slows down.
        node: NodeId,
        /// The iteration during which it is slow (1-based).
        at_iteration: usize,
        /// Extra busy time per hosted pair, in milliseconds.
        millis: u64,
    },
    /// The node's pairs stop responding after the iteration completes,
    /// without exiting. Nothing but the watchdog's stall detection can
    /// recover the job, so [`IterConfig::validate`] requires a watchdog
    /// whenever a hang is scripted.
    Hang {
        /// The node that hangs.
        node: NodeId,
        /// The iteration after which it hangs (1-based).
        at_iteration: usize,
    },
}

impl FaultEvent {
    /// The node this fault targets.
    pub fn node(&self) -> NodeId {
        match *self {
            FaultEvent::Kill { node, .. }
            | FaultEvent::Delay { node, .. }
            | FaultEvent::Hang { node, .. } => node,
        }
    }

    /// The 1-based iteration at which this fault fires.
    pub fn at_iteration(&self) -> usize {
        match *self {
            FaultEvent::Kill { at_iteration, .. }
            | FaultEvent::Delay { at_iteration, .. }
            | FaultEvent::Hang { at_iteration, .. } => at_iteration,
        }
    }
}

impl From<FailureEvent> for FaultEvent {
    fn from(f: FailureEvent) -> Self {
        FaultEvent::Kill {
            node: f.node,
            at_iteration: f.at_iteration,
        }
    }
}

/// Supervisor watchdog policy: how unscripted stalls are detected.
///
/// Workers publish a heartbeat after every completed iteration; the
/// supervisor polls the heartbeats every `poll` and declares a pair
/// failed when *no* active pair has progressed for `stall_timeout`
/// (a pair that is merely slow keeps the run alive because the others
/// block on it at the iteration barrier and their own heartbeats stop
/// advancing too — only a global freeze marks a genuine stall).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// How often the supervisor samples worker heartbeats.
    pub poll: Duration,
    /// No heartbeat for this long ⇒ the least-advanced pair is
    /// declared failed and recovery starts.
    pub stall_timeout: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            poll: Duration::from_millis(25),
            stall_timeout: Duration::from_secs(2),
        }
    }
}

/// Full configuration of one iMapReduce job: the fields every mode
/// shares, plus `mode`, the knobs of its execution mode — [`Iterative`]
/// (the default) or [`Delta`]. Each `run_*` entry takes its own mode's
/// config, so a knob of the other mode cannot be set. The engines read
/// a config of either mode as `IterConfig<dyn Mode>`.
#[derive(Debug, Clone)]
pub struct IterConfig<M: ?Sized = Iterative> {
    /// Job name (used in DFS paths and reports).
    pub name: String,
    /// Number of persistent map/reduce task pairs. Must not exceed the
    /// cluster's task slots (§3.1.1 requires every persistent task to
    /// hold a slot for the whole run).
    pub num_tasks: usize,
    /// Termination rule. The delta mode counts termination checks and
    /// needs a threshold (its accumulated-progress detector).
    pub termination: Termination,
    /// Dump reduce-side state to DFS every this many iterations
    /// (checkpointing, §3.4.1). 0 disables checkpointing.
    pub checkpoint_interval: usize,
    /// Optional supervisor watchdog for unscripted-stall detection.
    pub watchdog: Option<WatchdogConfig>,
    /// Unified network policy for the TCP backend: connect/handshake
    /// deadlines, teardown grace, the supervisor's no-progress retry
    /// budget and the worker connect loop's jittered exponential
    /// backoff. The coordinator exports it to spawned workers via
    /// `IMR_NET_*` environment variables so the whole fleet agrees.
    pub net: NetPolicy,
    /// Deterministic network-chaos injection on the coordinator's TCP
    /// links (seeded frame drops/corruption/duplicates/resets and read
    /// stalls with a shared fault budget). `None` leaves the wire
    /// clean. Needs a wire — a `NativeRunner` with worker processes
    /// attached; the simulator and worker threads refuse it — and,
    /// when active, checkpointing and a watchdog (see
    /// [`IterConfig::validate`]).
    pub chaos: Option<ChaosConfig>,
    /// The execution mode's own knobs.
    pub mode: M,
}

/// An execution mode: [`Iterative`] or [`Delta`]. The engines read the
/// mode of a config through these two views.
pub trait Mode: fmt::Debug + Send + Sync {
    /// The map/reduce iteration's knobs; `None` in the delta mode.
    fn iterative(&self) -> Option<&Iterative> {
        None
    }
    /// The delta mode's knobs; `None` in the iterative mode.
    fn delta(&self) -> Option<&Delta> {
        None
    }
}

/// The paper's map/reduce iteration (§3): the knobs of `run`,
/// `run_faults` and `run_with_aux`.
#[derive(Debug, Clone, Default)]
pub struct Iterative {
    /// one2one (graph algorithms) or one2all (K-means-like broadcast).
    pub mapping: Mapping,
    /// `mapred.iterjob.sync` — force synchronous map execution (map
    /// tasks wait for *all* reduce tasks of the previous iteration).
    /// Implied by one2all. The paper's "iMapReduce (sync.)" reference
    /// curve sets this under one2one.
    pub sync_maps: bool,
    /// Stream the reduce output to the paired map task in buffer-sized
    /// chunks as it is produced (§3.3's eager sending with a buffer),
    /// letting the map's sorted join start right after the reduce's
    /// shuffle barrier instead of after its last record. one2one only.
    pub eager_handoff: bool,
    /// Optional migration-based load balancing.
    pub load_balance: Option<LoadBalance>,
    /// Resume a previously interrupted run from the newest complete
    /// checkpoint snapshot under the output directory instead of
    /// starting at iteration 0. Used by the job service to pick an
    /// in-flight job back up after a coordinator crash; requires
    /// `checkpoint_interval > 0` and is a no-op when no snapshot
    /// exists yet.
    pub resume: bool,
}

impl Mode for Iterative {
    fn iterative(&self) -> Option<&Iterative> {
        Some(self)
    }
}

/// Barrier-free delta-accumulative execution (Maiter-style): every task
/// keeps a per-key `(value, delta)` store, propagates only non-identity
/// deltas and schedules work by largest-pending-delta priority — the
/// knobs of `run_accumulative` and `run_incremental`, which take an
/// [`Accumulative`](crate::Accumulative) job. Incremental
/// re-convergence (i2MapReduce-style, DESIGN.md §13) is this mode with
/// a warm start, which only `run_incremental` turns on.
#[derive(Debug, Clone)]
pub struct Delta {
    /// How many pending keys one task applies per round, picked
    /// largest-progress-first. `0` (the default) applies every pending
    /// key; a smaller batch defers the rest and counts them as
    /// `priority_preemptions`.
    pub batch: usize,
    /// Rounds of delta propagation between two global
    /// accumulated-progress termination checks. The check epoch is the
    /// mode's unit of supervision — heartbeats, checkpoints and
    /// `max_iterations` all count checks. Must be at least 1.
    pub check_every: usize,
    /// The state parts hold a warm `(key, (value, pending))` plan
    /// produced by [`plan_incremental`](crate::incremental::plan_incremental), which
    /// every engine decodes instead of seeding from scratch.
    pub(crate) warm: bool,
}

impl Mode for Delta {
    fn delta(&self) -> Option<&Delta> {
        Some(self)
    }
}

impl IterConfig {
    /// A one2one async config with `num_tasks` pairs and a fixed
    /// iteration count — the common graph-algorithm setup. Zero pairs or
    /// zero iterations is a `Config` error at [`IterConfig::validate`].
    pub fn new(name: impl Into<String>, num_tasks: usize, max_iterations: usize) -> Self {
        IterConfig {
            name: name.into(),
            num_tasks,
            termination: Termination {
                max_iterations,
                distance_threshold: None,
            },
            checkpoint_interval: 5,
            watchdog: None,
            net: NetPolicy::default(),
            chaos: None,
            mode: Iterative::default(),
        }
    }

    /// Enables eager chunked reduce→map hand-off (§3.3 buffer).
    pub fn with_eager_handoff(mut self) -> Self {
        self.mode.eager_handoff = true;
        self
    }

    /// Switches to one2all broadcast mapping (implies synchronous maps).
    pub fn with_one2all(mut self) -> Self {
        self.mode.mapping = Mapping::One2All;
        self.mode.sync_maps = true;
        self
    }

    /// Forces synchronous map execution (the paper's sync. variant).
    pub fn with_sync_maps(mut self) -> Self {
        self.mode.sync_maps = true;
        self
    }

    /// Enables load balancing with the given policy.
    pub fn with_load_balance(mut self, lb: LoadBalance) -> Self {
        self.mode.load_balance = Some(lb);
        self
    }

    /// Resumes from the newest complete snapshot under the output
    /// directory (if any) instead of restarting at iteration 0. Native
    /// engines only: the simulator refuses it with a `Config` error.
    pub fn with_resume(mut self) -> Self {
        self.mode.resume = true;
        self
    }

    /// Switches to barrier-free delta-accumulative execution
    /// (Maiter-style), for `run_accumulative` and `run_incremental`. The
    /// shared fields carry over; the delta mode starts from its
    /// defaults (every pending key per round, a check every round) and
    /// the iterative knobs are dropped. Its termination is the
    /// accumulated-progress detector, so a distance threshold is
    /// required.
    ///
    /// A knob of the iterative mode cannot be set on the result:
    ///
    /// ```compile_fail
    /// # use imapreduce::IterConfig;
    /// IterConfig::new("x", 2, 5).with_accumulative_mode().with_one2all();
    /// ```
    ///
    /// and `run_accumulative` takes no iterative config:
    ///
    /// ```compile_fail
    /// # use imapreduce::{Accumulative, IterConfig, IterEngine};
    /// fn delta_run<E: IterEngine, J: Accumulative>(engine: &E, job: &J) {
    ///     let cfg = IterConfig::new("x", 2, 5).with_distance_threshold(1e-9);
    ///     let _ = engine.run_accumulative(job, &cfg, "/s", "/t", "/o", &[]);
    /// }
    /// ```
    pub fn with_accumulative_mode(self) -> IterConfig<Delta> {
        IterConfig {
            name: self.name,
            num_tasks: self.num_tasks,
            termination: self.termination,
            checkpoint_interval: self.checkpoint_interval,
            watchdog: self.watchdog,
            net: self.net,
            chaos: self.chaos,
            mode: Delta {
                batch: 0,
                check_every: 1,
                warm: false,
            },
        }
    }
}

impl<M> IterConfig<M> {
    /// Sets the unified network policy for the TCP backend.
    pub fn with_net_policy(mut self, net: NetPolicy) -> Self {
        self.net = net;
        self
    }

    /// Enables deterministic network-chaos injection on the TCP
    /// coordinator links.
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets a distance threshold (`disthresh`).
    pub fn with_distance_threshold(mut self, eps: f64) -> Self {
        self.termination.distance_threshold = Some(eps);
        self
    }

    /// Sets the checkpoint interval (0 disables).
    pub fn with_checkpoint_interval(mut self, every: usize) -> Self {
        self.checkpoint_interval = every;
        self
    }

    /// Enables the supervisor watchdog with the given policy.
    pub fn with_watchdog(mut self, wd: WatchdogConfig) -> Self {
        self.watchdog = Some(wd);
        self
    }

    /// The identity: a `NativeRunner` with worker processes attached
    /// is the TCP runner. Kept only for `benchmark/src/adapter.rs`;
    /// deleted when the adapter moves onto the mode configs (ROADMAP
    /// item 1(j)).
    pub fn with_tcp_transport(self) -> Self {
        self
    }
}

impl IterConfig<Delta> {
    /// Applies at most `batch` pending keys per round,
    /// largest-progress-first (0 = all pending keys).
    pub fn with_delta_batch(mut self, batch: usize) -> Self {
        self.mode.batch = batch;
        self
    }

    /// Runs `rounds` delta-propagation rounds between two global
    /// termination checks.
    pub fn with_check_every(mut self, rounds: usize) -> Self {
        self.mode.check_every = rounds;
        self
    }
}

impl<M: Mode + ?Sized> IterConfig<M> {
    /// Checks this configuration against a fault schedule. Every engine
    /// calls this before starting, so a bad value is the same
    /// [`EngineError::Config`] everywhere instead of an engine-specific
    /// panic, deadlock, or silent fallback:
    ///
    /// * a job needs at least one task pair and one iteration;
    /// * the delta mode needs a distance threshold and
    ///   `check_every >= 1`;
    /// * eager hand-off is refused under one2all, which has no paired
    ///   hand-off to stream;
    /// * kills and hangs need `checkpoint_interval > 0` — recovery
    ///   replays from a checkpoint epoch;
    /// * load balancing needs `checkpoint_interval > 0` — migration
    ///   happens by rolling back to a checkpoint under a new placement;
    /// * a scripted hang needs a watchdog — nothing else can detect it;
    /// * thresholds and timeouts must be positive and finite.
    ///
    /// Delay faults alone are fine without checkpoints: a delayed pair
    /// still completes.
    pub fn validate(&self, faults: &[FaultEvent]) -> Result<(), EngineError> {
        if self.num_tasks == 0 || self.termination.max_iterations == 0 {
            return Err(EngineError::Config(format!(
                "a job needs at least one task pair and one iteration, got num_tasks = {} \
                 and max_iterations = {}",
                self.num_tasks, self.termination.max_iterations
            )));
        }
        if let Some(delta) = self.mode.delta() {
            if self.termination.distance_threshold.is_none() {
                return Err(EngineError::Config(
                    "accumulative mode needs a distance_threshold: \
                     termination is the accumulated-progress detector"
                        .into(),
                ));
            }
            if delta.check_every == 0 {
                return Err(EngineError::Config(
                    "accumulative mode needs check_every >= 1 round between \
                     termination checks"
                        .into(),
                ));
            }
        }
        let iterative = self.mode.iterative();
        if iterative.is_some_and(|m| m.eager_handoff && m.mapping == Mapping::One2All) {
            return Err(EngineError::Config(
                "eager_handoff streams a pair's state to its own map task: one2all \
                 broadcasts every reduce output to every map instead"
                    .into(),
            ));
        }
        let needs_recovery = faults
            .iter()
            .any(|f| !matches!(f, FaultEvent::Delay { .. }));
        if needs_recovery && self.checkpoint_interval == 0 {
            return Err(EngineError::Config(
                "kill/hang fault injection requires checkpoint_interval > 0 \
                 (recovery replays from a checkpoint epoch)"
                    .into(),
            ));
        }
        if let Some(lb) = iterative.and_then(|m| m.load_balance) {
            if self.checkpoint_interval == 0 {
                return Err(EngineError::Config(
                    "load balancing requires checkpoint_interval > 0 \
                     (migration rolls back to a checkpoint epoch)"
                        .into(),
                ));
            }
            if !lb.deviation.is_finite() || lb.deviation <= 0.0 {
                return Err(EngineError::Config(format!(
                    "load-balance deviation must be positive and finite, got {}",
                    lb.deviation
                )));
            }
        }
        if let Some(wd) = &self.watchdog {
            if wd.poll.is_zero() || wd.stall_timeout.is_zero() {
                return Err(EngineError::Config(
                    "watchdog poll and stall_timeout must be non-zero".into(),
                ));
            }
        }
        if iterative.is_some_and(|m| m.resume) && self.checkpoint_interval == 0 {
            return Err(EngineError::Config(
                "resume requires checkpoint_interval > 0 \
                 (there is no snapshot to resume from otherwise)"
                    .into(),
            ));
        }
        if faults.iter().any(|f| matches!(f, FaultEvent::Hang { .. })) && self.watchdog.is_none() {
            return Err(EngineError::Config(
                "hang fault injection requires a watchdog (with_watchdog): \
                 a hung pair never exits, so only stall detection recovers it"
                    .into(),
            ));
        }
        self.net
            .validate()
            .map_err(|msg| EngineError::Config(format!("net policy: {msg}")))?;
        if let Some(chaos) = &self.chaos {
            chaos
                .validate()
                .map_err(|msg| EngineError::Config(format!("chaos config: {msg}")))?;
            if chaos.is_active() {
                if self.checkpoint_interval == 0 {
                    return Err(EngineError::Config(
                        "chaos injection requires checkpoint_interval > 0: \
                         a torn-down connection replays from a checkpoint epoch"
                            .into(),
                    ));
                }
                if self.watchdog.is_none() {
                    return Err(EngineError::Config(
                        "chaos injection requires a watchdog (with_watchdog): \
                         a stalled or wedged connection is only recovered by \
                         stall detection"
                            .into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Refuses chaos on a runner without a wire (`wire` is whether
    /// worker processes are attached): the simulator models its own
    /// network and worker threads talk over channels, so chaos there
    /// would silently inject nothing. The same text on every engine.
    pub fn check_wire(&self, wire: bool) -> Result<(), EngineError> {
        match self.chaos.is_some() && !wire {
            true => Err(EngineError::Config(
                "chaos injection needs a wire: attach worker processes with \
                 NativeRunner::with_workers (the simulator and worker threads have none)"
                    .into(),
            )),
            false => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair::{pair_cfg, PairMode};

    /// The mode the pairs of a run of `c` run.
    fn pair_mode(c: &IterConfig) -> PairMode {
        pair_cfg(c, 1).mode
    }

    #[test]
    fn builder_chain_sets_fields() {
        let c = IterConfig::new("pagerank", 8, 20)
            .with_distance_threshold(0.01)
            .with_checkpoint_interval(3)
            .with_load_balance(LoadBalance::default());
        assert_eq!(c.num_tasks, 8);
        assert_eq!(c.termination.max_iterations, 20);
        assert_eq!(c.termination.distance_threshold, Some(0.01));
        assert_eq!(c.checkpoint_interval, 3);
        assert!(c.mode.load_balance.is_some());
        assert_eq!(
            pair_mode(&c),
            PairMode::Async {
                threshold: Some(0.01)
            }
        );
    }

    #[test]
    fn eager_handoff_flag() {
        let c = IterConfig::new("sssp", 2, 3).with_eager_handoff();
        assert!(c.mode.eager_handoff);
        assert!(!IterConfig::new("sssp", 2, 3).mode.eager_handoff);
    }

    #[test]
    fn one2all_implies_sync() {
        let c = IterConfig::new("kmeans", 4, 10).with_one2all();
        assert_eq!(c.mode.mapping, Mapping::One2All);
        // The pairs run one2all, which starts every iteration at a barrier.
        assert!(matches!(pair_mode(&c), PairMode::One2All { .. }));
    }

    #[test]
    fn sync_flag_alone_keeps_one2one() {
        let c = IterConfig::new("sssp", 4, 10).with_sync_maps();
        assert_eq!(c.mode.mapping, Mapping::One2One);
        assert_eq!(pair_mode(&c), PairMode::Sync { threshold: None });
    }

    fn is_config_err<T>(r: Result<T, EngineError>, needle: &str) -> bool {
        matches!(r, Err(EngineError::Config(msg)) if msg.contains(needle))
    }

    #[test]
    fn validate_accepts_clean_and_delay_only_runs_without_checkpoints() {
        let c = IterConfig::new("sssp", 2, 3).with_checkpoint_interval(0);
        assert!(c.validate(&[]).is_ok());
        let delay = FaultEvent::Delay {
            node: NodeId(0),
            at_iteration: 1,
            millis: 5,
        };
        assert!(c.validate(&[delay]).is_ok());
    }

    #[test]
    fn validate_rejects_kill_or_hang_without_checkpoints() {
        let c = IterConfig::new("sssp", 2, 3)
            .with_checkpoint_interval(0)
            .with_watchdog(WatchdogConfig::default());
        let kill = FaultEvent::Kill {
            node: NodeId(0),
            at_iteration: 1,
        };
        let hang = FaultEvent::Hang {
            node: NodeId(0),
            at_iteration: 1,
        };
        assert!(is_config_err(c.validate(&[kill]), "checkpoint_interval"));
        assert!(is_config_err(c.validate(&[hang]), "checkpoint_interval"));
    }

    #[test]
    fn validate_rejects_load_balance_without_checkpoints() {
        let c = IterConfig::new("sssp", 2, 3)
            .with_checkpoint_interval(0)
            .with_load_balance(LoadBalance::default());
        assert!(is_config_err(c.validate(&[]), "checkpoint_interval"));
    }

    #[test]
    fn validate_rejects_bad_deviation_and_zero_watchdog_timeouts() {
        let bad_dev = IterConfig::new("sssp", 2, 3).with_load_balance(LoadBalance {
            deviation: 0.0,
            max_migrations: 1,
        });
        assert!(is_config_err(bad_dev.validate(&[]), "deviation"));
        let bad_wd = IterConfig::new("sssp", 2, 3).with_watchdog(WatchdogConfig {
            poll: Duration::ZERO,
            stall_timeout: Duration::from_secs(1),
        });
        assert!(is_config_err(bad_wd.validate(&[]), "watchdog"));
    }

    #[test]
    fn validate_rejects_resume_without_checkpoints() {
        let c = IterConfig::new("sssp", 2, 3)
            .with_checkpoint_interval(0)
            .with_resume();
        assert!(is_config_err(c.validate(&[]), "resume"));
        assert!(IterConfig::new("sssp", 2, 3)
            .with_resume()
            .validate(&[])
            .is_ok());
    }

    #[test]
    fn validate_rejects_hang_without_watchdog() {
        let c = IterConfig::new("sssp", 2, 3);
        let hang = FaultEvent::Hang {
            node: NodeId(0),
            at_iteration: 1,
        };
        assert!(is_config_err(c.validate(&[hang]), "watchdog"));
    }

    #[test]
    fn fault_event_accessors_and_kill_conversion() {
        let f: FaultEvent = FailureEvent {
            node: NodeId(3),
            at_iteration: 7,
        }
        .into();
        assert_eq!(
            f,
            FaultEvent::Kill {
                node: NodeId(3),
                at_iteration: 7
            }
        );
        assert_eq!(f.node(), NodeId(3));
        assert_eq!(f.at_iteration(), 7);
    }

    #[test]
    fn accumulative_builders_set_fields() {
        let c = IterConfig::new("pr", 4, 50)
            .with_checkpoint_interval(3)
            .with_accumulative_mode()
            .with_delta_batch(16)
            .with_check_every(3)
            .with_distance_threshold(1e-9);
        assert_eq!(c.mode.batch, 16);
        assert_eq!(c.mode.check_every, 3);
        assert!(!c.mode.warm);
        assert_eq!((c.num_tasks, c.checkpoint_interval), (4, 3));
        assert!(c.validate(&[]).is_ok());
        let d = IterConfig::new("pr", 4, 50).with_accumulative_mode();
        assert_eq!(d.mode.batch, 0);
        assert_eq!(d.mode.check_every, 1);
    }

    #[test]
    fn validate_accumulative_needs_threshold() {
        let c = IterConfig::new("pr", 2, 5).with_accumulative_mode();
        assert!(is_config_err(c.validate(&[]), "distance_threshold"));
    }

    #[test]
    fn validate_accumulative_rejects_unsupported_combos() {
        let base = IterConfig::new("pr", 2, 5)
            .with_accumulative_mode()
            .with_distance_threshold(1e-9);
        assert!(is_config_err(
            base.clone().with_check_every(0).validate(&[]),
            "check_every"
        ));
        // The shared fault rules still apply under accumulative mode.
        let kill = FaultEvent::Kill {
            node: NodeId(0),
            at_iteration: 1,
        };
        assert!(is_config_err(
            base.clone().with_checkpoint_interval(0).validate(&[kill]),
            "checkpoint_interval"
        ));
        let hang = FaultEvent::Hang {
            node: NodeId(0),
            at_iteration: 1,
        };
        assert!(is_config_err(base.validate(&[hang]), "watchdog"));
    }

    #[test]
    fn validate_rejects_bad_net_policy() {
        let mut c = IterConfig::new("sssp", 2, 3);
        c.net.retry_budget = 0;
        assert!(is_config_err(c.validate(&[]), "retry_budget"));
    }

    #[test]
    fn validate_chaos_requirements() {
        let chaos = ChaosConfig::seeded(7).with_drop_rate(0.05);
        // Active chaos needs checkpoints and a watchdog.
        let no_ckpt = IterConfig::new("sssp", 2, 3)
            .with_checkpoint_interval(0)
            .with_watchdog(WatchdogConfig::default())
            .with_chaos(chaos);
        assert!(is_config_err(no_ckpt.validate(&[]), "checkpoint_interval"));
        let no_wd = IterConfig::new("sssp", 2, 3).with_chaos(chaos);
        assert!(is_config_err(no_wd.validate(&[]), "watchdog"));
        // The full combination passes, as does inert chaos (all rates 0).
        let ok = IterConfig::new("sssp", 2, 3)
            .with_watchdog(WatchdogConfig::default())
            .with_chaos(chaos);
        assert!(ok.validate(&[]).is_ok());
        let inert = IterConfig::new("sssp", 2, 3).with_chaos(ChaosConfig::seeded(7));
        assert!(inert.validate(&[]).is_ok());
        // Over-the-maximum rates are caught here too.
        let too_hot = IterConfig::new("sssp", 2, 3)
            .with_watchdog(WatchdogConfig::default())
            .with_chaos(ChaosConfig::seeded(7).with_drop_rate(0.9));
        assert!(is_config_err(too_hot.validate(&[]), "chaos"));
    }

    #[test]
    fn zero_tasks_rejected() {
        let cfg = IterConfig::new("bad", 0, 1);
        assert!(is_config_err(cfg.validate(&[]), "at least one task pair"));
    }

    #[test]
    fn zero_iterations_rejected() {
        let cfg = IterConfig::new("bad", 1, 0);
        assert!(is_config_err(cfg.validate(&[]), "one iteration"));
    }
}
