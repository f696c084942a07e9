//! Incremental iterative computation over mutating graphs
//! (i2MapReduce-style, DESIGN.md §13).
//!
//! A converged accumulative run leaves behind a fixpoint: per-key state
//! values plus the static (graph) side that produced them. When the
//! input graph mutates — edges inserted, removed, reweighted; nodes
//! added or retired — a production service should not recompute from
//! scratch. This module provides:
//!
//! * [`GraphDelta`] / [`GraphDeltaOp`] — the delta-input API describing
//!   a batch of graph mutations.
//! * [`Incremental`] — the job-side extension of [`Accumulative`]
//!   that teaches the planner how to reseed a key, patch per-key static
//!   data, enumerate emission targets and invert deltas (for group-like
//!   `⊕` such as `+`).
//! * [`apply_delta`] — deterministic application of a delta to a static
//!   store, shared by the incremental planner and by cold-recompute
//!   harnesses so both paths see bit-identical static bytes.
//! * [`plan_incremental`] — the affected-key analysis: starting from
//!   the previous fixpoint it computes exactly which keys must be
//!   reseeded and which correction deltas must be injected so that the
//!   accumulative engine re-converges to the new fixpoint while
//!   touching only the affected region.
//! * [`FixpointStore`] — an MRBGraph-style fine-grain store that
//!   preserves the converged kv-pair state keyed by `(k, iteration)`
//!   on the DFS, so later incremental runs (and audits of older
//!   fixpoints) can load it back.
//! * [`PatchStats`] — counters describing how much of the graph a delta
//!   actually touched.
//!
//! Two planning strategies are used depending on the algebra:
//!
//! * **Invertible `⊕` (e.g. PageRank's `+`)**: for every key whose
//!   static data changed, inject `invert(old emissions) ⊕ new
//!   emissions` as corrections. The previous fixpoint `v₀` satisfies
//!   `v₀ = (I − M)⁻¹ s`; injecting `(M' − M) v₀` row-wise and letting
//!   the engine propagate yields `v₀ + (I − M')⁻¹ (M' − M) v₀ =
//!   (I − M')⁻¹ s`, the cold fixpoint on the mutated graph, up to the
//!   termination detector's residual.
//! * **Idempotent min-like `⊕` (SSSP, connected components)**: deltas
//!   cannot be retracted, so keys whose current value was *witnessed*
//!   by a changed or removed emission are reseeded to their initial
//!   state and the reset set is closed transitively (a key whose value
//!   was witnessed by a reset key's old emission must also reset).
//!   Keys on the boundary re-extract their full emission so reset keys
//!   rebuild from surviving paths. Because the min lattice recomputes
//!   the same sums bit-identically, the incremental fixpoint equals
//!   the cold fixpoint exactly.

use std::collections::{BTreeMap, BTreeSet};

use imr_dfs::Dfs;
use imr_mapreduce::io::{num_parts, part_path, read_all, read_part};
use imr_mapreduce::{Emitter, EngineError};
use imr_records::{decode_pairs, encode_pairs, Value};
use imr_simcluster::{NodeId, TaskClock};

use crate::accum::Accumulative;
use crate::engine::IterOutcome;
use crate::store::partition_sorted;

/// One graph mutation inside a [`GraphDelta`].
///
/// Weights are carried as `f32` to match the weighted adjacency records
/// used by SSSP; unweighted workloads (PageRank, connected components)
/// ignore the weight — pass `1.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphDeltaOp {
    /// Add a fresh node with no edges. Errors if the node already
    /// exists in the static store.
    InsertNode {
        /// Node id to create.
        node: u32,
    },
    /// Remove a node and every edge incident to it (both directions).
    /// Errors if the node does not exist.
    RemoveNode {
        /// Node id to retire.
        node: u32,
    },
    /// Add a directed edge `src → dst`. Both endpoints must exist.
    InsertEdge {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Edge weight (ignored by unweighted workloads).
        weight: f32,
    },
    /// Remove the directed edge(s) `src → dst`. `src` must exist.
    RemoveEdge {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
    },
    /// Change the weight of the existing edge(s) `src → dst`.
    ReweightEdge {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// New edge weight.
        weight: f32,
    },
}

/// An ordered batch of graph mutations to apply to a converged run.
///
/// Ops are applied strictly in insertion order; the same delta applied
/// to the same static store always produces the same result, which is
/// what makes incremental runs replayable and comparable against cold
/// recomputes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GraphDelta {
    /// The mutations, in application order.
    pub ops: Vec<GraphDeltaOp>,
}

impl GraphDelta {
    /// Create an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an arbitrary op.
    pub fn push(&mut self, op: GraphDeltaOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Append an `InsertNode` op.
    pub fn insert_node(&mut self, node: u32) -> &mut Self {
        self.push(GraphDeltaOp::InsertNode { node })
    }

    /// Append a `RemoveNode` op.
    pub fn remove_node(&mut self, node: u32) -> &mut Self {
        self.push(GraphDeltaOp::RemoveNode { node })
    }

    /// Append an `InsertEdge` op.
    pub fn insert_edge(&mut self, src: u32, dst: u32, weight: f32) -> &mut Self {
        self.push(GraphDeltaOp::InsertEdge { src, dst, weight })
    }

    /// Append a `RemoveEdge` op.
    pub fn remove_edge(&mut self, src: u32, dst: u32) -> &mut Self {
        self.push(GraphDeltaOp::RemoveEdge { src, dst })
    }

    /// Append a `ReweightEdge` op.
    pub fn reweight_edge(&mut self, src: u32, dst: u32, weight: f32) -> &mut Self {
        self.push(GraphDeltaOp::ReweightEdge { src, dst, weight })
    }

    /// Number of ops in the delta.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the delta carries no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Job-side support for incremental re-convergence. Extends
/// [`Accumulative`] with the operations the affected-key planner needs.
///
/// Keys are fixed to `u32` node ids — graph deltas name nodes, and all
/// shipped graph workloads already use `u32` keys. States compare with
/// `==` (the witness test), and `T::default()` is the static datum of a
/// node with no edges (what `InsertNode` seeds).
pub trait Incremental: Accumulative<K = u32, S: PartialEq, T: Default> {
    /// The state a fresh (or reset) key re-converges from. For min-like
    /// lattices this is the lattice top (`∞` / `u32::MAX` / own id);
    /// for PageRank it is the uniform prior (unused by `seed`, which
    /// derives the warm value itself).
    fn initial_state(&self, key: u32) -> Self::S;

    /// Apply one edge op to a key's static datum in place. Only edge
    /// ops are passed here — node ops are resolved by [`apply_delta`]
    /// into synthesized edge removals plus store insert/remove.
    fn patch_static(&self, key: u32, stat: &mut Self::T, op: &GraphDeltaOp);

    /// The keys this key's `extract` can emit to, given its static
    /// datum (its out-neighbours).
    fn targets(&self, stat: &Self::T) -> Vec<u32>;

    /// The `⊕`-inverse of a delta, when `⊕` is a group operation
    /// (`Some(-d)` for `+`), or `None` for idempotent lattices (min).
    /// Must be `Some` for all deltas or `None` for all deltas; a job
    /// that mixes them gets an error from the planner.
    fn invert(&self, delta: &Self::S) -> Option<Self::S>;
}

/// Counters describing what an incremental plan touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatchStats {
    /// Ops in the applied delta.
    pub ops: usize,
    /// Nodes inserted by the delta.
    pub inserted: usize,
    /// Nodes removed by the delta.
    pub removed: usize,
    /// Surviving keys whose static datum changed.
    pub patched: usize,
    /// Keys reseeded to their initial state (inserted nodes, plus the
    /// witness closure under min-like ⊕).
    pub reset: usize,
    /// Correction deltas folded into the warm pending state.
    pub corrections: usize,
    /// Total live keys after the delta.
    pub total: usize,
}

/// Outcome of [`apply_delta`]: the mutated store plus the bookkeeping
/// the planner needs to compute corrections.
#[derive(Debug, Clone)]
pub struct AppliedDelta<T> {
    /// Pre-delta static snapshots of surviving keys whose datum
    /// changed (first-change snapshot; inserted keys are excluded).
    pub old_statics: BTreeMap<u32, T>,
    /// Pre-delta static data of removed keys that existed before the
    /// delta (insert-then-remove within one delta leaves no entry; a
    /// removed key inserted again is in `inserted` too, and its old row
    /// is still retracted).
    pub removed: BTreeMap<u32, T>,
    /// Keys inserted by the delta and still alive at the end of it.
    pub inserted: BTreeSet<u32>,
    /// Total ops applied.
    pub ops: usize,
}

// Patch one key, snapshotting its pre-delta static the first time it
// changes (unless it was inserted by this same delta).
fn patch_one<J: Incremental>(
    job: &J,
    statics: &mut BTreeMap<u32, J::T>,
    out: &mut AppliedDelta<J::T>,
    key: u32,
    op: &GraphDeltaOp,
) {
    // unreachable: every caller passes a key it just found in `statics`
    // (the RemoveNode in-edge scan, the `contains_key(&src)` guards).
    let stat = statics.get_mut(&key).expect("patch target must exist");
    if !out.inserted.contains(&key) && !out.old_statics.contains_key(&key) {
        out.old_statics.insert(key, stat.clone());
    }
    job.patch_static(key, stat, op);
}

/// Apply a [`GraphDelta`] to a static store in place, deterministically.
///
/// Shared by the incremental planner and by cold-recompute harnesses so
/// that the incremental and cold paths produce bit-identical static
/// bytes for every surviving key. Node removal scans the store for
/// in-edges (`O(|V|)` per removal) and synthesizes `RemoveEdge` ops so
/// jobs only ever see edge-level patches.
pub fn apply_delta<J: Incremental>(
    job: &J,
    statics: &mut BTreeMap<u32, J::T>,
    delta: &GraphDelta,
) -> Result<AppliedDelta<J::T>, String> {
    let mut out = AppliedDelta {
        old_statics: BTreeMap::new(),
        removed: BTreeMap::new(),
        inserted: BTreeSet::new(),
        ops: delta.ops.len(),
    };
    for op in &delta.ops {
        match *op {
            GraphDeltaOp::InsertNode { node } => {
                if statics.contains_key(&node) {
                    return Err(format!("InsertNode {node}: node already exists"));
                }
                // A node removed earlier in this delta keeps its entry
                // in `removed`: the re-inserted node starts empty, so the
                // old row's emissions must still be retracted.
                statics.insert(node, J::T::default());
                out.inserted.insert(node);
            }
            GraphDeltaOp::RemoveNode { node } => {
                if !statics.contains_key(&node) {
                    return Err(format!("RemoveNode {node}: node does not exist"));
                }
                // Strip in-edges from every surviving node.
                let sources: Vec<u32> = statics
                    .iter()
                    .filter(|(k, stat)| **k != node && job.targets(stat).contains(&node))
                    .map(|(k, _)| *k)
                    .collect();
                for src in sources {
                    let op = GraphDeltaOp::RemoveEdge { src, dst: node };
                    patch_one(job, statics, &mut out, src, &op);
                }
                // unreachable: `contains_key(&node)` held on entry to this
                // arm and the patches above touch other keys only.
                let stat = statics.remove(&node).expect("checked above");
                if out.inserted.remove(&node) {
                    // Inserted and removed within the same delta: the
                    // node never existed in the previous fixpoint, so
                    // there is nothing to retract.
                    out.old_statics.remove(&node);
                } else {
                    // Prefer the pre-delta snapshot if earlier ops
                    // already patched this node.
                    let original = out.old_statics.remove(&node).unwrap_or(stat);
                    out.removed.insert(node, original);
                }
            }
            GraphDeltaOp::InsertEdge { src, dst, .. } => {
                if !statics.contains_key(&src) {
                    return Err(format!("InsertEdge {src}->{dst}: src does not exist"));
                }
                if !statics.contains_key(&dst) {
                    return Err(format!("InsertEdge {src}->{dst}: dst does not exist"));
                }
                patch_one(job, statics, &mut out, src, op);
            }
            GraphDeltaOp::RemoveEdge { src, dst } | GraphDeltaOp::ReweightEdge { src, dst, .. } => {
                if !statics.contains_key(&src) {
                    return Err(format!("edge op {src}->{dst}: src does not exist"));
                }
                patch_one(job, statics, &mut out, src, op);
            }
        }
    }
    Ok(out)
}

/// A partitioned warm-start plan produced by [`plan_incremental`]:
/// per-task `(key, (value, pending))` state entries plus the patched
/// per-task static entries, ready for `write_parts`.
#[derive(Debug, Clone)]
pub(crate) struct IncrementalPlan<S, T> {
    /// Per-task warm `(key, (value, pending_delta))` entries,
    /// key-sorted within each part.
    pub state_parts: Vec<Vec<(u32, (S, S))>>,
    /// Per-task patched static entries, co-partitioned with
    /// `state_parts`.
    pub static_parts: Vec<Vec<(u32, T)>>,
    /// What the plan touched.
    pub stats: PatchStats,
}

// Run `extract` for one key and collect the emitted deltas.
fn extract_with<J: Incremental>(job: &J, stat: &J::T, k: u32, v: &J::S) -> Vec<(u32, J::S)> {
    let mut em = Emitter::new();
    job.extract(&k, v, stat, &mut em);
    em.into_pairs()
}

// Push the ⊕-inverse of every delta key `k` emitted from `stat` at
// value `v`: the retraction of a changed or removed row under group ⊕.
fn retract<J: Incremental>(
    job: &J,
    stat: &J::T,
    k: u32,
    v: &J::S,
    out: &mut Vec<(u32, J::S)>,
) -> Result<(), String> {
    for (t, d) in extract_with(job, stat, k, v) {
        let inv = job.invert(&d).ok_or_else(|| {
            format!(
                "Incremental::invert is Some for the identity but None for a delta \
                 key {k} emits to key {t}: it must be Some for all deltas or None for all"
            )
        })?;
        out.push((t, inv));
    }
    Ok(())
}

/// Compute the affected-key warm-start plan for re-converging from a
/// previous fixpoint after `delta` mutates the graph.
///
/// `prev_values` are the converged per-key values, `prev_statics` the
/// static data that produced them (both must cover exactly the same
/// key set). Returns co-partitioned state/static parts for
/// `num_tasks` map/reduce pairs.
pub(crate) fn plan_incremental<J: Incremental>(
    job: &J,
    prev_values: &[(u32, J::S)],
    prev_statics: &[(u32, J::T)],
    delta: &GraphDelta,
    num_tasks: usize,
) -> Result<IncrementalPlan<J::S, J::T>, String> {
    let mut values: BTreeMap<u32, J::S> = BTreeMap::new();
    for (k, v) in prev_values {
        if values.insert(*k, v.clone()).is_some() {
            return Err(format!("duplicate key {k} in previous fixpoint state"));
        }
    }
    let mut statics: BTreeMap<u32, J::T> = BTreeMap::new();
    for (k, t) in prev_statics {
        if statics.insert(*k, t.clone()).is_some() {
            return Err(format!("duplicate key {k} in previous fixpoint statics"));
        }
    }
    if values.len() != statics.len() || !values.keys().eq(statics.keys()) {
        return Err("previous fixpoint state and statics are not co-keyed".into());
    }

    let applied = apply_delta(job, &mut statics, delta)?;

    // Converged values of removed keys, needed to retract/rewitness
    // their old emissions.
    let mut removed_values: BTreeMap<u32, J::S> = BTreeMap::new();
    for k in applied.removed.keys() {
        let v = values
            .remove(k)
            .ok_or_else(|| format!("removed key {k} missing from previous state"))?;
        removed_values.insert(*k, v);
    }

    let invertible = job.invert(&job.identity()).is_some();
    // Keys re-converging from their initial state: always the freshly
    // inserted nodes, plus (for non-invertible ⊕) the witness closure.
    let mut reset: BTreeSet<u32> = applied.inserted.clone();
    // Correction deltas to fold into the warm pending state.
    let mut emissions: Vec<(u32, J::S)> = Vec::new();

    if invertible {
        // Group ⊕: inject (new emissions − old emissions) per changed
        // row; retract removed rows entirely.
        for (u, old_stat) in &applied.old_statics {
            let v = values
                .get(u)
                .or_else(|| removed_values.get(u))
                // unreachable: `old_statics` only holds keys that pre-date
                // the delta (in `values` by the co-keyed check above), and
                // RemoveNode strips a key from it, so `values` still has `u`.
                .expect("changed key has a previous value");
            retract(job, old_stat, *u, v, &mut emissions)?;
            if values.contains_key(u) {
                emissions.extend(extract_with(job, &statics[u], *u, v));
            }
        }
        for (r, old_stat) in &applied.removed {
            if applied.old_statics.contains_key(r) {
                continue; // already retracted above
            }
            retract(job, old_stat, *r, &removed_values[r], &mut emissions)?;
        }
    } else {
        // Idempotent min-like ⊕: deltas cannot be retracted. Reset any
        // key whose converged value was witnessed by an emission that
        // the delta changed or removed, close transitively, then
        // re-extract boundary emissions so reset keys rebuild from
        // surviving paths.
        // `t`'s converged value `v` was witnessed by the emission `d`
        // when `v ⊕ d = v` and `d ⊕ v = d` (⊕ is the job's fold).
        let achieves = |t: u32, d: &J::S| -> bool {
            let Some(v) = values.get(&t) else {
                return false;
            };
            let (mut vd, mut dv) = (v.clone(), d.clone());
            job.fold(&t, &mut vd, d.clone());
            job.fold(&t, &mut dv, v.clone());
            vd == *v && dv == *d
        };
        let mut queue: Vec<u32> = Vec::new();
        // Seeds from changed rows: old emissions that witnessed the
        // target and are no longer reproduced by the new row.
        for (u, old_stat) in &applied.old_statics {
            let v = values
                .get(u)
                .or_else(|| removed_values.get(u))
                // unreachable: as in the invertible arm above.
                .expect("changed key has a previous value");
            let new_em: Vec<(u32, J::S)> = if values.contains_key(u) {
                extract_with(job, &statics[u], *u, v)
            } else {
                Vec::new()
            };
            for (t, d) in extract_with(job, old_stat, *u, v) {
                if !achieves(t, &d) {
                    continue;
                }
                let still = new_em.iter().any(|(t2, d2)| *t2 == t && achieves(t, d2));
                if !still && reset.insert(t) {
                    queue.push(t);
                }
            }
        }
        // Seeds from removed rows that were never patched first.
        for (r, old_stat) in &applied.removed {
            if applied.old_statics.contains_key(r) {
                continue;
            }
            let v = &removed_values[r];
            for (t, d) in extract_with(job, old_stat, *r, v) {
                if achieves(t, &d) && reset.insert(t) {
                    queue.push(t);
                }
            }
        }
        // Transitive closure: a reset key's *old* emissions may have
        // witnessed downstream values.
        while let Some(a) = queue.pop() {
            let Some(va) = values.get(&a) else { continue };
            let stat_a = applied.old_statics.get(&a).unwrap_or_else(|| &statics[&a]);
            for (t, d) in extract_with(job, stat_a, a, va) {
                if reset.contains(&t) {
                    continue;
                }
                if achieves(t, &d) {
                    reset.insert(t);
                    queue.push(t);
                }
            }
        }
        // Boundary re-extraction: every surviving key whose statics
        // changed, or that points into the reset region, re-emits its
        // full row so reset keys rebuild from surviving paths (and new
        // improving edges propagate).
        for (u, v) in &values {
            if reset.contains(u) {
                continue;
            }
            let stat = &statics[u];
            let touches_reset = applied.old_statics.contains_key(u)
                || job.targets(stat).iter().any(|t| reset.contains(t));
            if touches_reset {
                emissions.extend(extract_with(job, stat, *u, v));
            }
        }
    }

    // Build the warm entries: reset keys reseed from their initial
    // state; survivors keep their converged value with identity
    // pending.
    let mut entries: BTreeMap<u32, (J::S, J::S)> = BTreeMap::new();
    for k in statics.keys() {
        if reset.contains(k) {
            let init = job.initial_state(*k);
            entries.insert(*k, job.seed(k, &init));
        } else {
            entries.insert(*k, (values[k].clone(), job.identity()));
        }
    }
    // Fold corrections into pending, in deterministic order (emissions
    // were produced by BTreeMap iteration; merge sequentially).
    let mut corrections = 0usize;
    for (t, d) in emissions {
        if let Some((_, pending)) = entries.get_mut(&t) {
            job.fold(&t, pending, d);
            corrections += 1;
        }
        // Emissions to removed keys are dropped, as the engines' delta
        // merge drops deltas for foreign keys.
    }

    let stats = PatchStats {
        ops: applied.ops,
        inserted: applied.inserted.len(),
        removed: applied.removed.len(),
        patched: applied
            .old_statics
            .keys()
            .filter(|k| statics.contains_key(k))
            .count(),
        reset: reset.len(),
        corrections,
        total: statics.len(),
    };

    let state_pairs: Vec<(u32, (J::S, J::S))> = entries.into_iter().collect();
    let static_pairs: Vec<(u32, J::T)> = statics.into_iter().collect();
    let state_parts = partition_sorted(state_pairs, num_tasks, |k, n| job.partition(k, n))
        .map_err(|e| format!("partitioning warm state: {e}"))?;
    let static_parts = partition_sorted(static_pairs, num_tasks, |k, n| job.partition(k, n))
        .map_err(|e| format!("partitioning patched statics: {e}"))?;
    Ok(IncrementalPlan {
        state_parts,
        static_parts,
        stats,
    })
}

/// MRBGraph-style fine-grain fixpoint store: preserves the converged
/// per-key state of a run keyed by `(k, iteration)` under a DFS root,
/// so incremental runs can warm-start from it and audits can read
/// older fixpoints back.
///
/// Layout: `{root}/fix-{iteration:05}/part-{i:05}` holds the encoded
/// `(u32, S)` pairs of output part `i`; `{root}/MANIFEST` is an
/// encoded `(u64, u64)` list of `(iteration, num_parts)` entries,
/// newest last.
#[derive(Debug, Clone)]
pub struct FixpointStore {
    root: String,
}

impl FixpointStore {
    /// Create a handle rooted at `root` (no I/O happens here).
    pub fn new(root: impl Into<String>) -> Self {
        Self { root: root.into() }
    }

    fn fix_dir(&self, iteration: usize) -> String {
        format!("{}/fix-{iteration:05}", self.root)
    }

    fn manifest_path(&self) -> String {
        format!("{}/MANIFEST", self.root)
    }

    fn manifest(&self, dfs: &Dfs, clock: &mut TaskClock) -> Result<Vec<(u64, u64)>, EngineError> {
        let path = self.manifest_path();
        if !dfs.exists(&path) {
            return Ok(Vec::new());
        }
        let bytes = dfs.read(&path, NodeId(0), clock)?;
        decode_pairs::<u64, u64>(bytes)
            .map_err(|e| EngineError::Config(format!("corrupt fixpoint manifest: {e}")))
    }

    /// Preserve the converged output parts of iteration `iteration`
    /// (as written to `output_dir`) into the store. Returns the number
    /// of parts preserved.
    pub fn preserve(
        &self,
        dfs: &Dfs,
        iteration: usize,
        output_dir: &str,
        clock: &mut TaskClock,
    ) -> Result<usize, EngineError> {
        let num = num_parts(dfs, output_dir);
        if num == 0 {
            return Err(EngineError::Config(format!(
                "fixpoint preserve: no parts under {output_dir}"
            )));
        }
        for i in 0..num {
            let bytes = dfs.read(&part_path(output_dir, i), NodeId(0), clock)?;
            let dst = part_path(&self.fix_dir(iteration), i);
            dfs.put_atomic(&dst, bytes, NodeId(0), clock)?;
        }
        let mut entries = self.manifest(dfs, clock)?;
        entries.retain(|(it, _)| *it != iteration as u64);
        entries.push((iteration as u64, num as u64));
        dfs.put_atomic(
            &self.manifest_path(),
            encode_pairs(&entries),
            NodeId(0),
            clock,
        )?;
        Ok(num)
    }

    /// The most recently preserved `(iteration, num_parts)`, if any.
    pub fn latest(
        &self,
        dfs: &Dfs,
        clock: &mut TaskClock,
    ) -> Result<Option<(usize, usize)>, EngineError> {
        Ok(self
            .manifest(dfs, clock)?
            .last()
            .map(|(it, n)| (*it as usize, *n as usize)))
    }

    /// Load the full converged state of `iteration`, key-sorted.
    pub fn load<S: Value>(
        &self,
        dfs: &Dfs,
        iteration: usize,
        clock: &mut TaskClock,
    ) -> Result<Vec<(u32, S)>, EngineError> {
        let entries = self.manifest(dfs, clock)?;
        let Some((_, num)) = entries.iter().find(|(it, _)| *it == iteration as u64) else {
            return Err(EngineError::Config(format!(
                "fixpoint iteration {iteration} not preserved"
            )));
        };
        let dir = self.fix_dir(iteration);
        let mut out: Vec<(u32, S)> = Vec::new();
        for i in 0..*num as usize {
            out.extend(read_part(dfs, &dir, i, NodeId(0), clock)?);
        }
        out.sort_by_key(|&(k, _)| k);
        Ok(out)
    }
}

/// Result of an incremental run: the engine outcome plus what the
/// planner touched.
#[derive(Debug, Clone)]
pub struct IncrementalOutcome<S> {
    /// The accumulative engine outcome of the warm re-convergence.
    pub outcome: IterOutcome<u32, S>,
    /// Affected-key planner counters.
    pub stats: PatchStats,
}

/// Shared preparation for incremental runs: load the latest preserved
/// fixpoint and the previous statics, plan, and write the
/// co-partitioned warm state/static parts to `state_dir`/`static_dir`.
/// Returns the planner stats.
#[allow(clippy::too_many_arguments)]
pub(crate) fn prepare_incremental<J: Incremental>(
    job: &J,
    dfs: &Dfs,
    fix: &FixpointStore,
    prev_static_dir: &str,
    delta: &GraphDelta,
    num_tasks: usize,
    state_dir: &str,
    static_dir: &str,
    clock: &mut TaskClock,
) -> Result<PatchStats, EngineError> {
    let Some((iteration, _)) = fix.latest(dfs, clock)? else {
        return Err(EngineError::Config(
            "incremental run requires a preserved fixpoint (FixpointStore::preserve)".into(),
        ));
    };
    let prev_values = fix.load::<J::S>(dfs, iteration, clock)?;
    let mut prev_statics: Vec<(u32, J::T)> = read_all(dfs, prev_static_dir, NodeId(0), clock)?;
    prev_statics.sort_by_key(|&(k, _)| k);
    let plan = plan_incremental(job, &prev_values, &prev_statics, delta, num_tasks)
        .map_err(EngineError::Config)?;
    for (i, part) in plan.state_parts.iter().enumerate() {
        dfs.put_atomic(
            &part_path(state_dir, i),
            encode_pairs(part),
            NodeId(0),
            clock,
        )?;
    }
    for (i, part) in plan.static_parts.iter().enumerate() {
        dfs.put_atomic(
            &part_path(static_dir, i),
            encode_pairs(part),
            NodeId(0),
            clock,
        )?;
    }
    Ok(plan.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{IterativeJob, StateInput};
    use imr_simcluster::{ClusterSpec, Metrics};
    use std::sync::Arc;

    fn dfs() -> Dfs {
        Dfs::with_block_size(
            Arc::new(ClusterSpec::local(2)),
            Arc::new(Metrics::default()),
            1,
            1 << 16,
        )
    }

    /// Toy invertible job: each node forwards half its delta along
    /// each out-edge; ⊕ = +. With `inverts_identity_only` it breaks the
    /// [`Incremental::invert`] contract: `Some` for the identity, `None`
    /// for every other delta.
    #[derive(Default)]
    struct ToySum {
        inverts_identity_only: bool,
    }

    impl IterativeJob for ToySum {
        type K = u32;
        type S = f64;
        type T = Vec<u32>;

        fn map(
            &self,
            _k: &u32,
            _s: StateInput<'_, u32, f64>,
            _t: &Vec<u32>,
            _out: &mut Emitter<u32, f64>,
        ) {
            unreachable!("accumulative path only")
        }
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc += v;
        }
    }

    impl Accumulative for ToySum {
        fn identity(&self) -> f64 {
            0.0
        }
        fn seed(&self, _k: &u32, _loaded: &f64) -> (f64, f64) {
            (0.0, 1.0)
        }
        fn extract(&self, _k: &u32, delta: &f64, stat: &Vec<u32>, out: &mut Emitter<u32, f64>) {
            if stat.is_empty() {
                return;
            }
            let share = 0.5 * *delta / stat.len() as f64;
            for t in stat {
                out.emit(*t, share);
            }
        }
        fn progress(&self, _k: &u32, _value: &f64, delta: &f64) -> f64 {
            delta.abs()
        }
    }

    impl Incremental for ToySum {
        fn initial_state(&self, _key: u32) -> f64 {
            0.0
        }
        fn patch_static(&self, _key: u32, stat: &mut Vec<u32>, op: &GraphDeltaOp) {
            match *op {
                GraphDeltaOp::InsertEdge { dst, .. } => {
                    let pos = stat.partition_point(|x| *x < dst);
                    stat.insert(pos, dst);
                }
                GraphDeltaOp::RemoveEdge { dst, .. } => stat.retain(|x| *x != dst),
                _ => {}
            }
        }
        fn targets(&self, stat: &Vec<u32>) -> Vec<u32> {
            stat.clone()
        }
        fn invert(&self, delta: &f64) -> Option<f64> {
            (!self.inverts_identity_only || *delta == 0.0).then_some(-delta)
        }
    }

    /// Toy min job over weighted edges: SSSP-like relaxation; ⊕ = min.
    struct ToyMin {
        source: u32,
    }

    impl IterativeJob for ToyMin {
        type K = u32;
        type S = f64;
        type T = Vec<(u32, f32)>;

        fn map(
            &self,
            _k: &u32,
            _s: StateInput<'_, u32, f64>,
            _t: &Vec<(u32, f32)>,
            _out: &mut Emitter<u32, f64>,
        ) {
            unreachable!("accumulative path only")
        }
        fn fold(&self, _k: &u32, acc: &mut f64, v: f64) {
            *acc = acc.min(v);
        }
    }

    impl Accumulative for ToyMin {
        fn identity(&self) -> f64 {
            f64::INFINITY
        }
        fn seed(&self, k: &u32, _loaded: &f64) -> (f64, f64) {
            if *k == self.source {
                (f64::INFINITY, 0.0)
            } else {
                (f64::INFINITY, f64::INFINITY)
            }
        }
        fn extract(
            &self,
            _k: &u32,
            delta: &f64,
            stat: &Vec<(u32, f32)>,
            out: &mut Emitter<u32, f64>,
        ) {
            if !delta.is_finite() {
                return;
            }
            for (t, w) in stat {
                out.emit(*t, *delta + *w as f64);
            }
        }
        fn progress(&self, _k: &u32, _value: &f64, delta: &f64) -> f64 {
            if delta.is_finite() {
                1e15 - *delta
            } else {
                0.0
            }
        }
    }

    impl Incremental for ToyMin {
        fn initial_state(&self, key: u32) -> f64 {
            if key == self.source {
                0.0
            } else {
                f64::INFINITY
            }
        }
        fn patch_static(&self, _key: u32, stat: &mut Vec<(u32, f32)>, op: &GraphDeltaOp) {
            match *op {
                GraphDeltaOp::InsertEdge { dst, weight, .. } => {
                    let pos = stat.partition_point(|(d, _)| *d < dst);
                    stat.insert(pos, (dst, weight));
                }
                GraphDeltaOp::RemoveEdge { dst, .. } => stat.retain(|(d, _)| *d != dst),
                GraphDeltaOp::ReweightEdge { dst, weight, .. } => {
                    for (d, w) in stat.iter_mut() {
                        if *d == dst {
                            *w = weight;
                        }
                    }
                }
                _ => {}
            }
        }
        fn targets(&self, stat: &Vec<(u32, f32)>) -> Vec<u32> {
            stat.iter().map(|(d, _)| *d).collect()
        }
        fn invert(&self, _delta: &f64) -> Option<f64> {
            None
        }
    }

    fn chain_statics() -> Vec<(u32, Vec<(u32, f32)>)> {
        // 0 -> 1 (1.0) -> 2 (1.0) -> 3 (1.0); plus 0 -> 3 (10.0).
        vec![
            (0, vec![(1, 1.0), (3, 10.0)]),
            (1, vec![(2, 1.0)]),
            (2, vec![(3, 1.0)]),
            (3, vec![]),
        ]
    }

    fn chain_fixpoint() -> Vec<(u32, f64)> {
        vec![(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]
    }

    #[test]
    fn apply_delta_tracks_snapshots_and_removals() {
        let job = ToyMin { source: 0 };
        let mut statics: BTreeMap<u32, Vec<(u32, f32)>> = chain_statics().into_iter().collect();
        let mut delta = GraphDelta::new();
        delta.insert_node(4);
        delta.insert_edge(2, 4, 0.5);
        delta.remove_node(1);
        let applied = apply_delta(&job, &mut statics, &delta).unwrap();
        assert_eq!(applied.inserted, BTreeSet::from([4]));
        assert_eq!(applied.removed.len(), 1);
        // Node 1's original static survives in `removed`.
        assert_eq!(applied.removed[&1], vec![(2, 1.0)]);
        // Node 0 lost its edge to 1 and was snapshotted pre-delta.
        assert_eq!(applied.old_statics[&0], vec![(1, 1.0), (3, 10.0)]);
        assert_eq!(statics[&0], vec![(3, 10.0)]);
        // Node 2 gained the edge to 4 and was snapshotted pre-delta.
        assert_eq!(applied.old_statics[&2], vec![(3, 1.0)]);
        assert_eq!(statics[&2], vec![(3, 1.0), (4, 0.5)]);
        assert!(!statics.contains_key(&1));
    }

    #[test]
    fn apply_delta_insert_then_remove_leaves_no_retraction() {
        let job = ToyMin { source: 0 };
        let mut statics: BTreeMap<u32, Vec<(u32, f32)>> = chain_statics().into_iter().collect();
        let mut delta = GraphDelta::new();
        delta.insert_node(9);
        delta.insert_edge(9, 3, 1.0);
        delta.remove_node(9);
        let applied = apply_delta(&job, &mut statics, &delta).unwrap();
        assert!(applied.removed.is_empty());
        assert!(applied.inserted.is_empty());
        assert!(!statics.contains_key(&9));
    }

    #[test]
    fn a_node_removed_and_reinserted_by_one_delta_retracts_its_old_row() {
        let job = ToySum::default();
        let statics: Vec<(u32, Vec<u32>)> = vec![(0, vec![1, 2]), (1, vec![2]), (2, vec![])];
        let values: Vec<(u32, f64)> = vec![(0, 1.0), (1, 1.25), (2, 1.875)];
        let mut delta = GraphDelta::new();
        delta.remove_node(0);
        delta.insert_node(0);
        let mut store: BTreeMap<u32, Vec<u32>> = statics.iter().cloned().collect();
        let applied = apply_delta(&job, &mut store, &delta).unwrap();
        assert_eq!(applied.removed[&0], vec![1, 2]);
        assert_eq!(applied.inserted, BTreeSet::from([0]));
        assert!(store[&0].is_empty());

        let plan = plan_incremental(&job, &values, &statics, &delta, 1).unwrap();
        let part = &plan.state_parts[0];
        let entry = |k: u32| part.iter().find(|(key, _)| *key == k).unwrap().1;
        // Old row 0 sent 0.25 to each of {1, 2}; the node that replaces
        // it has no edges, so both shares are retracted.
        assert_eq!(entry(1), (1.25, -0.25));
        assert_eq!(entry(2), (1.875, -0.25));
        // Node 0 itself restarts from its seed.
        assert_eq!(entry(0), (0.0, 1.0));
        assert_eq!((plan.stats.removed, plan.stats.inserted), (1, 1));
    }

    #[test]
    fn apply_delta_rejects_bad_ops() {
        let job = ToyMin { source: 0 };
        let statics: BTreeMap<u32, Vec<(u32, f32)>> = chain_statics().into_iter().collect();
        let mut d = GraphDelta::new();
        d.insert_node(0);
        assert!(apply_delta(&job, &mut statics.clone(), &d)
            .unwrap_err()
            .contains("already exists"));
        let mut d = GraphDelta::new();
        d.remove_node(77);
        assert!(apply_delta(&job, &mut statics.clone(), &d)
            .unwrap_err()
            .contains("does not exist"));
        let mut d = GraphDelta::new();
        d.insert_edge(0, 77, 1.0);
        assert!(apply_delta(&job, &mut statics.clone(), &d)
            .unwrap_err()
            .contains("dst does not exist"));
    }

    #[test]
    fn min_plan_resets_witnessed_cone_only() {
        let job = ToyMin { source: 0 };
        // Remove the witness edge 1 -> 2: keys 2 and 3 must reset,
        // keys 0 and 1 must keep their converged values.
        let mut delta = GraphDelta::new();
        delta.remove_edge(1, 2);
        let plan = plan_incremental(&job, &chain_fixpoint(), &chain_statics(), &delta, 1).unwrap();
        assert_eq!(plan.stats.reset, 2);
        let part = &plan.state_parts[0];
        let entry = |k: u32| part.iter().find(|(key, _)| *key == k).unwrap().1;
        assert_eq!(entry(0).0, 0.0); // survivor keeps value
        assert_eq!(entry(1).0, 1.0);
        assert_eq!(entry(2).0, f64::INFINITY); // reset
        assert_eq!(entry(3).0, f64::INFINITY); // transitively reset
                                               // Boundary key 0 re-emitted 0 -> 3 (10.0): pending on 3 holds
                                               // the surviving path.
        assert_eq!(entry(3).1, 10.0);
    }

    #[test]
    fn min_plan_improving_edge_resets_nothing() {
        let job = ToyMin { source: 0 };
        let mut delta = GraphDelta::new();
        delta.insert_edge(0, 2, 0.5);
        let plan = plan_incremental(&job, &chain_fixpoint(), &chain_statics(), &delta, 1).unwrap();
        assert_eq!(plan.stats.reset, 0);
        let part = &plan.state_parts[0];
        let entry = |k: u32| part.iter().find(|(key, _)| *key == k).unwrap().1;
        // The improving emission 0 -> 2 (0.5) lands in 2's pending.
        assert_eq!(entry(2).0, 2.0);
        assert_eq!(entry(2).1, 0.5);
    }

    #[test]
    fn invertible_plan_injects_signed_corrections() {
        let job = ToySum::default();
        let statics: Vec<(u32, Vec<u32>)> = vec![(0, vec![1, 2]), (1, vec![2]), (2, vec![])];
        let values: Vec<(u32, f64)> = vec![(0, 1.0), (1, 1.25), (2, 1.875)];
        let mut delta = GraphDelta::new();
        delta.remove_edge(0, 2);
        let plan = plan_incremental(&job, &values, &statics, &delta, 1).unwrap();
        assert_eq!(plan.stats.reset, 0);
        assert!(plan.stats.corrections > 0);
        let part = &plan.state_parts[0];
        let entry = |k: u32| part.iter().find(|(key, _)| *key == k).unwrap().1;
        // Old row 0 emitted 0.25 to each of {1, 2}; new row emits 0.5
        // to 1 alone. Corrections: 1 gets -0.25 + 0.5 = 0.25; 2 gets
        // -0.25.
        assert!((entry(1).1 - 0.25).abs() < 1e-12);
        assert!((entry(2).1 + 0.25).abs() < 1e-12);
        // Values are kept.
        assert_eq!(entry(1).0, 1.25);
        assert_eq!(entry(2).0, 1.875);
    }

    #[test]
    fn plan_rejects_a_job_that_inverts_only_the_identity() {
        let job = ToySum {
            inverts_identity_only: true,
        };
        let statics: Vec<(u32, Vec<u32>)> = vec![(0, vec![1, 2]), (1, vec![2]), (2, vec![])];
        let values: Vec<(u32, f64)> = vec![(0, 1.0), (1, 1.25), (2, 1.875)];
        // Key 0's old emissions are retracted as a changed row by the
        // first delta and as a removed row by the second.
        for delta in [
            GraphDelta::new().remove_edge(0, 2).clone(),
            GraphDelta::new().remove_node(0).clone(),
        ] {
            let err = plan_incremental(&job, &values, &statics, &delta, 1).unwrap_err();
            assert!(err.contains("Incremental::invert"), "{err}");
            assert!(err.contains("key 0 emits to key 1"), "{err}");
        }
    }

    #[test]
    fn plan_rejects_mismatched_inputs() {
        let job = ToyMin { source: 0 };
        let err = plan_incremental(&job, &[(0, 0.0)], &chain_statics(), &GraphDelta::new(), 1)
            .unwrap_err();
        assert!(err.contains("not co-keyed"));
        let err = plan_incremental(
            &job,
            &[(0, 0.0), (0, 1.0)],
            &[(0, vec![])],
            &GraphDelta::new(),
            1,
        )
        .unwrap_err();
        assert!(err.contains("duplicate key"));
    }

    #[test]
    fn fixpoint_store_round_trips_and_tracks_latest() {
        let fs = dfs();
        let mut clock = TaskClock::default();
        let pairs: Vec<(u32, f64)> = vec![(0, 0.5), (1, 1.5)];
        fs.put_atomic(
            &part_path("/out", 0),
            encode_pairs(&pairs),
            NodeId(0),
            &mut clock,
        )
        .unwrap();
        let fix = FixpointStore::new("/fix");
        assert!(fix.latest(&fs, &mut clock).unwrap().is_none());
        assert_eq!(fix.preserve(&fs, 7, "/out", &mut clock).unwrap(), 1);
        assert_eq!(fix.latest(&fs, &mut clock).unwrap(), Some((7, 1)));
        assert_eq!(fix.load::<f64>(&fs, 7, &mut clock).unwrap(), pairs);
        // Preserving a later iteration updates `latest`.
        let pairs2: Vec<(u32, f64)> = vec![(0, 0.25), (1, 1.25)];
        fs.put_atomic(
            &part_path("/out2", 0),
            encode_pairs(&pairs2),
            NodeId(0),
            &mut clock,
        )
        .unwrap();
        assert_eq!(fix.preserve(&fs, 9, "/out2", &mut clock).unwrap(), 1);
        assert_eq!(fix.latest(&fs, &mut clock).unwrap(), Some((9, 1)));
        // The older fixpoint stays addressable by iteration.
        assert_eq!(fix.load::<f64>(&fs, 7, &mut clock).unwrap(), pairs);
        assert!(fix.load::<f64>(&fs, 8, &mut clock).is_err());
    }
}
