//! Auxiliary map-reduce phases (paper §5.3).
//!
//! An auxiliary phase consumes the main phase's per-iteration output
//! and produces auxiliary information — the paper's example is
//! convergence detection for K-means, where a main-phase `distance()`
//! over centroids is not expressive enough. The auxiliary phase runs
//! *in parallel* with the main iteration ("without pausing active
//! computation"), so its cost stays off the critical path; its
//! termination signal takes effect when it reaches the main phase's
//! map tasks.
//!
//! The phase is a step of the pair loop (`pair.rs`), not a loop of its
//! own: every pair sums the partials of every reduce partition from the
//! broadcast parts it already receives, and the simulator's master
//! clocks the phase off the critical path (`sim_env.rs`). This module
//! holds only its surface. The baseline comparison (Fig. 20) is a
//! Hadoop user running the same detection as an extra synchronous
//! MapReduce job between iterations.

use crate::api::{IterativeJob, Mapping};
use crate::config::IterConfig;
use crate::engine::IterativeRunner;
use crate::pair::pair_loop;
use imr_mapreduce::EngineError;
use imr_simcluster::RunReport;

/// The auxiliary phase: a distributed check over the main phase's
/// previous and current outputs.
///
/// `partial` plays the role of the paper's auxiliary Map (one partial
/// value per main reduce partition, e.g. `num_stay` per cluster);
/// `should_terminate` plays the auxiliary Reduce collecting all
/// partials under a single key and broadcasting the termination signal.
pub trait AuxPhase<K, S>: Send + Sync {
    /// Partial auxiliary value computed from one reduce partition's
    /// previous and current outputs.
    fn partial(&self, prev: &[(K, S)], cur: &[(K, S)]) -> f64;

    /// Whether the summed partials signal termination.
    fn should_terminate(&self, total: f64) -> bool;
}

/// Result of a run with an auxiliary phase.
#[derive(Debug, Clone)]
pub struct AuxOutcome<K, S> {
    /// Virtual-time report of the main phase.
    pub report: RunReport,
    /// Final state (sorted).
    pub final_state: Vec<(K, S)>,
    /// Iterations executed by the main phase.
    pub iterations: usize,
    /// The auxiliary total observed after each iteration (from
    /// iteration 2 on; iteration 1 has no previous snapshot).
    pub aux_values: Vec<f64>,
}

/// Runs a one2all (broadcast) iterative job with an auxiliary
/// convergence-detection phase (`job1.addAuxiliary(job2)`).
///
/// Restrictions match the paper's usage: the main job uses one2all
/// mapping (the K-means shape) and never migrates pairs; termination
/// comes from the auxiliary phase, the distance threshold or the
/// iteration cap. Everything else — checkpoints, tracing, placement —
/// is the one loop's.
pub fn run_with_aux<J, A>(
    runner: &IterativeRunner,
    job: &J,
    aux: &A,
    cfg: &IterConfig,
    state_dir: &str,
    static_dir: &str,
    output_dir: &str,
) -> Result<AuxOutcome<J::K, J::S>, EngineError>
where
    J: IterativeJob,
    A: AuxPhase<J::K, J::S>,
{
    if cfg.mode.mapping != Mapping::One2All {
        return Err(EngineError::Config(
            "auxiliary phases are supported for one2all (K-means-like) jobs".into(),
        ));
    }
    if cfg.mode.load_balance.is_some() {
        return Err(EngineError::Config(
            "the auxiliary phase never migrates pairs: load_balance does not apply".into(),
        ));
    }
    let dirs = [state_dir, static_dir, output_dir];
    let (out, aux_values) =
        runner.simulate(job, cfg, dirs, (&[], Some(aux)), |ctx| pair_loop(ctx))?;
    Ok(AuxOutcome {
        report: out.report,
        final_state: out.final_state,
        iterations: out.iterations,
        aux_values,
    })
}
