//! The execution-backend abstraction every engine implements: the
//! virtual-time simulator and the native engine on either fabric.
//!
//! An [`IterEngine`] executes [`IterativeJob`]s: same programming model
//! (persistent map/reduce pairs, state/static separation, one2one or
//! one2all state routing, distance-based termination), different
//! substrate. [`IterativeRunner`](crate::IterativeRunner) interprets the
//! job on a simulated cluster under a deterministic cost model;
//! `imr-native`'s `NativeRunner` executes it in wall-clock time, on OS
//! threads or, with worker processes attached, over localhost TCP — the
//! transport is `cfg.transport`, the same call either way. Every engine
//! consumes the same partitioned DFS inputs and, for the same job and
//! configuration, produces identical `final_state`, `iterations` and
//! `distances` — a property the cross-engine tests pin down.

use crate::accum::Accumulative;
use crate::api::IterativeJob;
use crate::config::{FailureEvent, FaultEvent, IterConfig};
use crate::engine::IterOutcome;
use crate::incremental::{
    prepare_incremental, FixpointStore, GraphDelta, Incremental, IncrementalOutcome,
};
use imr_dfs::Dfs;
use imr_mapreduce::EngineError;
use imr_simcluster::TaskClock;

/// A backend that can run iterative jobs end to end.
///
/// Algorithms are written once against this trait (see
/// `imr-algorithms`): they load partitioned state/static data through
/// [`dfs`](IterEngine::dfs) and call [`run`](IterEngine::run) or
/// [`run_faults`](IterEngine::run_faults), which makes every algorithm
/// portable across backends without changes.
pub trait IterEngine {
    /// The DFS holding initial state, static data and job output.
    fn dfs(&self) -> &Dfs;

    /// Runs `job` to termination under a generalized fault schedule.
    ///
    /// * `state_dir` — initial state parts, partitioned with the job's
    ///   partition function;
    /// * `static_dir` — static data parts, co-partitioned with the
    ///   state;
    /// * `output_dir` — final state parts are committed here;
    /// * `faults` — scripted faults ([`FaultEvent`]): kills, bounded
    ///   delays and indefinite hangs. Both backends inject them
    ///   deterministically; kills and watchdog-detected hangs recover
    ///   from checkpoints (§3.4.1), delays merely slow the affected
    ///   node. A faulted run must produce the same `final_state`,
    ///   `iterations` and `distances` as a fault-free run. Invalid
    ///   combinations (kill/hang or load balancing with
    ///   `checkpoint_interval == 0`, a hang without a watchdog) are the
    ///   same [`EngineError::Config`] on every backend — see
    ///   [`IterConfig::validate`].
    fn run_faults<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError>;

    /// Runs an [`Accumulative`] job in the barrier-free
    /// delta-accumulative mode (`cfg.accumulative` must be set; see
    /// [`IterConfig::with_accumulative_mode`]). Tasks keep per-key
    /// `(value, delta)` stores, propagate only non-identity deltas,
    /// schedule work by largest-pending-delta priority, and terminate
    /// when the globally-summed pending progress drops below the
    /// distance threshold. `iterations` in the outcome counts
    /// termination-check epochs (`cfg.check_every` rounds each), and
    /// `distances` holds the global pending-progress sum at each check.
    fn run_accumulative<J: Accumulative>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError>;

    /// Re-converges `job` from a preserved fixpoint after `delta`
    /// mutates the graph (i2MapReduce-style; `cfg.incremental` and
    /// `cfg.accumulative` must both be set).
    ///
    /// Loads the latest fixpoint from `fix` and the previous static
    /// parts from `prev_static_dir`, computes the affected-key plan
    /// ([`plan_incremental`](crate::plan_incremental)), writes the warm
    /// `(value, pending)` state to `state_dir` and the patched statics
    /// to `static_dir`, then runs the accumulative engine on them.
    /// Because the warm parts are ordinary DFS inputs, the existing
    /// checkpoint/rollback supervision applies unchanged: a kill
    /// mid-incremental-run replays to a bit-identical outcome.
    #[allow(clippy::too_many_arguments)]
    fn run_incremental<J: Incremental>(
        &self,
        job: &J,
        cfg: &IterConfig,
        fix: &FixpointStore,
        prev_static_dir: &str,
        delta: &GraphDelta,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        faults: &[FaultEvent],
    ) -> Result<IncrementalOutcome<J::S>, EngineError> {
        if !cfg.incremental {
            return Err(EngineError::Config(
                "run_incremental requires IterConfig::with_incremental_mode".into(),
            ));
        }
        cfg.validate(faults)?;
        let mut clock = TaskClock::default();
        let stats = prepare_incremental(
            job,
            self.dfs(),
            fix,
            prev_static_dir,
            delta,
            cfg.num_tasks,
            state_dir,
            static_dir,
            &mut clock,
        )?;
        let outcome = self.run_accumulative(job, cfg, state_dir, static_dir, output_dir, faults)?;
        Ok(IncrementalOutcome { outcome, stats })
    }

    /// Runs `job` to termination with scripted kills only (the
    /// historical surface; each [`FailureEvent`] is a
    /// [`FaultEvent::Kill`]).
    fn run<J: IterativeJob>(
        &self,
        job: &J,
        cfg: &IterConfig,
        state_dir: &str,
        static_dir: &str,
        output_dir: &str,
        failures: &[FailureEvent],
    ) -> Result<IterOutcome<J::K, J::S>, EngineError> {
        let faults: Vec<FaultEvent> = failures.iter().map(|&f| f.into()).collect();
        self.run_faults(job, cfg, state_dir, static_dir, output_dir, &faults)
    }
}
