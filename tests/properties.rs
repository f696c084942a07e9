//! Workspace-level property tests: cross-crate invariants on random
//! inputs.

use imapreduce::{FailureEvent, FaultEvent, IterConfig, IterEngine, IterOutcome, WatchdogConfig};
use imr_algorithms::sssp::SsspIter;
use imr_algorithms::testutil::{imr_runner, native_runner};
use imr_algorithms::{pagerank, sssp};
use imr_graph::{
    generate_graph, generate_weighted_graph, pagerank_degree_dist, sssp_degree_dist,
    sssp_weight_dist, Graph,
};
use imr_simcluster::NodeId;
use proptest::prelude::*;
use std::time::Duration;

/// Loads SSSP from node 0 of `g` and runs it on `runner` under `faults`.
fn sssp_faulted(
    runner: &impl IterEngine,
    g: &Graph,
    cfg: &IterConfig,
    faults: &[FaultEvent],
) -> IterOutcome<u32, f64> {
    sssp::load_sssp_imr(runner, g, 0, cfg.num_tasks, "/s", "/t").unwrap();
    runner
        .run_faults(&SsspIter, cfg, "/s", "/t", "/o", faults)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// SSSP invariants on arbitrary weighted graphs: distances never
    /// increase across iterations, source stays 0, and every finite
    /// distance is witnessed by an in-edge relaxation (fixed point).
    #[test]
    fn sssp_fixed_point_invariants(seed in any::<u64>(), n in 30usize..100) {
        let g = generate_weighted_graph(n, n as u64 * 3, sssp_degree_dist(), sssp_weight_dist(), seed);
        let r = imr_runner(3);
        let cfg = IterConfig::new("sssp", 3, 64).with_distance_threshold(1e-12);
        let out = sssp::run_sssp_imr(&r, &g, 0, &cfg).unwrap();
        let dist: Vec<f64> = out.final_state.iter().map(|&(_, d)| d).collect();
        prop_assert_eq!(dist[0], 0.0);
        // Fixed point: no edge can still relax.
        for u in 0..n as u32 {
            if dist[u as usize].is_finite() {
                for (v, w) in g.weighted_neighbors(u) {
                    prop_assert!(
                        dist[v as usize] <= dist[u as usize] + f64::from(w) + 1e-9,
                        "edge {}->{} still relaxes", u, v
                    );
                }
            }
        }
    }

    /// PageRank invariants: ranks positive, bounded by 1, and the total
    /// never exceeds 1 (dangling mass only leaks out).
    #[test]
    fn pagerank_mass_invariants(seed in any::<u64>(), n in 30usize..100) {
        let g = generate_graph(n, n as u64 * 3, pagerank_degree_dist(), seed);
        let r = imr_runner(2);
        let cfg = IterConfig::new("pr", 2, 6);
        let out = pagerank::run_pagerank_imr(&r, &g, &cfg).unwrap();
        let total: f64 = out.final_state.iter().map(|&(_, v)| v).sum();
        prop_assert!(total <= 1.0 + 1e-9, "mass {total}");
        for (k, v) in &out.final_state {
            prop_assert!(*v > 0.0 && *v <= 1.0, "rank of {k} is {v}");
        }
    }

    /// Virtual timelines are monotone: each iteration completes
    /// strictly after the previous one, and the job finishes after the
    /// last iteration.
    #[test]
    fn timelines_are_monotone(seed in any::<u64>(), n in 20usize..60, iters in 2usize..6) {
        let g = generate_graph(n, n as u64 * 2, pagerank_degree_dist(), seed);
        let r = imr_runner(2);
        let cfg = IterConfig::new("pr", 2, iters);
        let out = pagerank::run_pagerank_imr(&r, &g, &cfg).unwrap();
        let times = &out.report.iteration_done;
        prop_assert_eq!(times.len(), iters);
        for w in times.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        prop_assert!(out.report.finished >= *times.last().unwrap());
    }

    /// The native multi-threaded backend, running asynchronously on
    /// several worker threads, reproduces the sequential SSSP reference
    /// bit for bit on arbitrary graphs (min-relaxation is
    /// order-independent, so thread interleaving must not show).
    #[test]
    fn native_async_matches_sequential_reference(seed in any::<u64>(), n in 20usize..80) {
        let g = generate_weighted_graph(n, n as u64 * 3, sssp_degree_dist(), sssp_weight_dist(), seed);
        let iters = 8;
        let r = native_runner(3);
        let cfg = IterConfig::new("sssp", 3, iters);
        let out = sssp::run_sssp_imr(&r, &g, 0, &cfg).unwrap();
        let expect = sssp::reference_sssp_rounds(&g, 0, iters);
        prop_assert_eq!(out.final_state.len(), n);
        for (k, d) in &out.final_state {
            let e = expect[*k as usize];
            prop_assert!(
                *d == e || (d.is_infinite() && e.is_infinite()),
                "node {}: native={} ref={}", k, d, e
            );
        }
    }

    /// Native checkpoint/rollback recovery under random failure
    /// schedules: whatever the (node, iteration) script — including
    /// back-to-back failures and a failure on the checkpoint iteration
    /// itself, both forced below — the recovered run is bit-identical
    /// to a failure-free run and matches the sequential reference.
    #[test]
    fn native_recovery_is_invisible_under_random_schedules(
        seed in any::<u64>(),
        n in 20usize..60,
        interval in 1usize..4,
        schedule in proptest::collection::vec((0u32..4, 1usize..7), 0..4),
    ) {
        let g = generate_weighted_graph(n, n as u64 * 3, sssp_degree_dist(), sssp_weight_dist(), seed);
        let iters = 8;
        let mut failures: Vec<FailureEvent> = schedule
            .iter()
            .map(|&(node, at)| FailureEvent { node: NodeId(node), at_iteration: at })
            .collect();
        // Always cover the two nastiest cases: a failure on the very
        // iteration that checkpoints, and the same failure again back
        // to back. (Events the replay never reaches again — e.g. a
        // duplicate behind an already-committed checkpoint — stay
        // pending and are simply never consumed.)
        failures.push(FailureEvent { node: NodeId(0), at_iteration: interval });
        failures.push(FailureEvent { node: NodeId(0), at_iteration: interval });

        let cfg = IterConfig::new("sssp", 4, iters).with_checkpoint_interval(interval);
        let failed = {
            let r = native_runner(4);
            sssp::load_sssp_imr(&r, &g, 0, 4, "/s", "/t").unwrap();
            r.run(&SsspIter, &cfg, "/s", "/t", "/o", &failures).unwrap()
        };
        let clean = {
            let r = native_runner(4);
            sssp::load_sssp_imr(&r, &g, 0, 4, "/s", "/t").unwrap();
            r.run(&SsspIter, &cfg, "/s", "/t", "/o", &[]).unwrap()
        };
        prop_assert!(failed.recoveries >= 1, "forced failure never fired");
        prop_assert_eq!(&failed.final_state, &clean.final_state);
        prop_assert_eq!(failed.iterations, clean.iterations);
        prop_assert_eq!(&failed.distances, &clean.distances);
        let expect = sssp::reference_sssp_rounds(&g, 0, iters);
        for (k, d) in &failed.final_state {
            let e = expect[*k as usize];
            prop_assert!(
                *d == e || (d.is_infinite() && e.is_infinite()),
                "node {}: recovered={} ref={}", k, d, e
            );
        }
    }

    /// Mixed kill/hang schedules on the native backend and the
    /// simulator, with and without a distance threshold: killed pairs
    /// are detected instantly, hung pairs only through the watchdog's
    /// stall timeout — and recovery from either (including both in the
    /// same generation) leaves the run bit-identical to a clean one, and
    /// the simulator's run bit-identical to the threads' one, recoveries
    /// and migrations included.
    #[test]
    fn native_mixed_kill_hang_schedules_are_invisible(
        seed in any::<u64>(),
        n in 20usize..60,
        schedule in proptest::collection::vec((0u32..4, 1usize..7, any::<bool>()), 0..3),
    ) {
        let g = generate_weighted_graph(n, n as u64 * 3, sssp_degree_dist(), sssp_weight_dist(), seed);
        let iters = 8;
        let mut faults: Vec<FaultEvent> = schedule
            .iter()
            .map(|&(node, at, hang)| if hang {
                FaultEvent::Hang { node: NodeId(node), at_iteration: at }
            } else {
                FaultEvent::Kill { node: NodeId(node), at_iteration: at }
            })
            .collect();
        // Always include one guaranteed hang so every case exercises
        // the watchdog path at least once.
        faults.push(FaultEvent::Hang { node: NodeId(1), at_iteration: 3 });

        for threshold in [None, Some(1e-9)] {
            let mut cfg = IterConfig::new("sssp", 4, iters)
                .with_checkpoint_interval(2)
                .with_watchdog(WatchdogConfig {
                    poll: Duration::from_millis(5),
                    stall_timeout: Duration::from_millis(150),
                });
            if let Some(eps) = threshold {
                cfg = cfg.with_distance_threshold(eps);
            }
            let failed = sssp_faulted(&native_runner(4), &g, &cfg, &faults);
            let clean = sssp_faulted(&native_runner(4), &g, &cfg, &[]);
            // Under a threshold the run may converge before the hang.
            if threshold.is_none() {
                prop_assert!(failed.recoveries >= 1, "forced hang never fired");
            }
            prop_assert_eq!(&failed.final_state, &clean.final_state);
            prop_assert_eq!(failed.iterations, clean.iterations);
            prop_assert_eq!(&failed.distances, &clean.distances);
            let sim = sssp_faulted(&imr_runner(4), &g, &cfg, &faults);
            let bits = |out: &IterOutcome<u32, f64>| -> Vec<u64> {
                out.distances.iter().map(|d| d.to_bits()).collect()
            };
            prop_assert_eq!(&sim.final_state, &failed.final_state);
            prop_assert_eq!(sim.iterations, failed.iterations);
            prop_assert_eq!(bits(&sim), bits(&failed));
            prop_assert_eq!(sim.recoveries, failed.recoveries);
            prop_assert_eq!(sim.migrations, failed.migrations);
        }
    }

    /// Sync-mode native runs are deterministic: two runs over the same
    /// inputs produce identical states, distances and iteration counts.
    #[test]
    fn native_sync_is_deterministic(seed in any::<u64>(), n in 20usize..60) {
        let g = generate_graph(n, n as u64 * 3, pagerank_degree_dist(), seed);
        let cfg = IterConfig::new("pr", 4, 5).with_sync_maps().with_distance_threshold(1e-9);
        let a = pagerank::run_pagerank_imr(&native_runner(2), &g, &cfg).unwrap();
        let b = pagerank::run_pagerank_imr(&native_runner(2), &g, &cfg).unwrap();
        prop_assert_eq!(a.final_state, b.final_state);
        prop_assert_eq!(a.distances, b.distances);
        prop_assert_eq!(a.iterations, b.iterations);
    }

    /// Delta-accumulative SSSP under arbitrary delta arrival orders:
    /// random batch sizes, check cadences and task counts reshuffle
    /// which deltas travel when, but ⊕ = min is associative and
    /// commutative, so every schedule reaches the same Dijkstra
    /// fixpoint — and sim and native agree bit-for-bit per schedule.
    #[test]
    fn delta_schedules_converge_to_the_same_fixpoint(
        seed in any::<u64>(),
        n in 20usize..60,
        batch in 0usize..48,
        every in 1usize..4,
        tasks in 1usize..5,
    ) {
        let g = generate_weighted_graph(n, n as u64 * 3, sssp_degree_dist(), sssp_weight_dist(), seed);
        let cfg = IterConfig::new("ssspd", tasks, 200)
            .with_accumulative_mode()
            .with_distance_threshold(1e-9)
            .with_delta_batch(batch)
            .with_check_every(every);
        let sim = sssp::run_sssp_delta(&imr_runner(2), &g, 0, &cfg).unwrap();
        let nat = sssp::run_sssp_delta(&native_runner(2), &g, 0, &cfg).unwrap();
        prop_assert_eq!(&sim.final_state, &nat.final_state);
        prop_assert_eq!(sim.iterations, nat.iterations);
        prop_assert_eq!(&sim.distances, &nat.distances);
        let expect = sssp::reference_sssp(&g, 0);
        for (k, d) in &sim.final_state {
            let e = expect[*k as usize];
            prop_assert!(
                (d - e).abs() < 1e-9 || (d.is_infinite() && e.is_infinite()),
                "node {}: delta={} dijkstra={} batch={} every={} tasks={}",
                k, d, e, batch, every, tasks
            );
        }
    }

    /// Random kill/hang schedules mid-delta-propagation on the native
    /// backend: checkpoint rollback restores the per-key (value, delta)
    /// store, so the recovered run is bit-identical to a clean one —
    /// same values, same check count, same progress trace.
    #[test]
    fn delta_fault_schedules_are_invisible(
        seed in any::<u64>(),
        n in 20usize..60,
        schedule in proptest::collection::vec((0u32..4, 1usize..6, any::<bool>()), 0..3),
    ) {
        let g = generate_graph(n, n as u64 * 3, pagerank_degree_dist(), seed);
        let mut faults: Vec<FaultEvent> = schedule
            .iter()
            .map(|&(node, at, hang)| if hang {
                FaultEvent::Hang { node: NodeId(node), at_iteration: at }
            } else {
                FaultEvent::Kill { node: NodeId(node), at_iteration: at }
            })
            .collect();
        // One guaranteed hang so every case recovers at least once
        // (PageRank at this threshold always runs well past check 3).
        faults.push(FaultEvent::Hang { node: NodeId(1), at_iteration: 3 });

        let cfg = IterConfig::new("prd", 4, 400)
            .with_accumulative_mode()
            .with_distance_threshold(1e-6)
            .with_checkpoint_interval(2)
            .with_watchdog(WatchdogConfig {
                poll: Duration::from_millis(5),
                stall_timeout: Duration::from_millis(150),
            });
        let failed = {
            let r = native_runner(4);
            pagerank::load_pagerank_imr(&r, &g, 4, "/s", "/t").unwrap();
            let job = pagerank::PageRankIter::new(g.num_nodes() as u64);
            r.run_accumulative(&job, &cfg, "/s", "/t", "/o", &faults).unwrap()
        };
        let clean = {
            let r = native_runner(4);
            pagerank::load_pagerank_imr(&r, &g, 4, "/s", "/t").unwrap();
            let job = pagerank::PageRankIter::new(g.num_nodes() as u64);
            r.run_accumulative(&job, &cfg, "/s", "/t", "/o", &[]).unwrap()
        };
        prop_assert!(failed.recoveries >= 1, "forced hang never fired");
        prop_assert_eq!(&failed.final_state, &clean.final_state);
        prop_assert_eq!(failed.iterations, clean.iterations);
        prop_assert_eq!(&failed.distances, &clean.distances);
    }

    /// Incremental runs compose: an arbitrary sequence of small graph
    /// deltas (edge inserts/removals/reweights, node inserts) applied
    /// one warm re-convergence at a time — each chained off the
    /// previous run's preserved fixpoint — lands on exactly the
    /// fixpoint one cold run computes on the final mutated graph, and
    /// the sim and native engines agree bit for bit along the way.
    #[test]
    fn incremental_delta_sequences_match_one_cold_run(
        seed in any::<u64>(),
        n in 20usize..50,
        ops in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>(), 1u32..60), 1..5),
    ) {
        use imapreduce::GraphDelta;
        use imr_algorithms::incremental::{converge_cold, patched_statics, weighted_statics};
        use imr_algorithms::sssp::SsspInc;

        let g = generate_weighted_graph(n, n as u64 * 3, sssp_degree_dist(), sssp_weight_dist(), seed);
        let job = SsspInc { source: 0 };
        let base = weighted_statics(&g);

        // Derive a valid delta sequence from the raw op tuples,
        // tracking the mutated graph through the same `apply_delta`
        // the planner uses (weights are halves, exact in f32/f64).
        let mut statics = base.clone();
        let mut next_node = n as u32;
        let mut deltas: Vec<GraphDelta> = Vec::new();
        for &(kind, x, y, w) in &ops {
            let keys: Vec<u32> = statics.keys().copied().collect();
            let u = keys[x as usize % keys.len()];
            let v = keys[y as usize % keys.len()];
            let wt = w as f32 * 0.5;
            let mut delta = GraphDelta::new();
            match kind {
                0 => {
                    delta.insert_edge(u, v, wt);
                }
                1 => match statics[&u].first().copied() {
                    Some((t, _)) => {
                        delta.remove_edge(u, t);
                    }
                    None => {
                        delta.insert_edge(u, v, wt);
                    }
                },
                2 => match statics[&u].last().copied() {
                    Some((t, _)) => {
                        delta.reweight_edge(u, t, wt);
                    }
                    None => {
                        delta.insert_edge(u, v, wt);
                    }
                },
                _ => {
                    delta.insert_node(next_node).insert_edge(u, next_node, wt);
                    next_node += 1;
                }
            }
            statics = patched_statics(&job, &statics, &delta).unwrap();
            deltas.push(delta);
        }

        let cfg = IterConfig::new("ssspi", 3, 200)
            .with_accumulative_mode()
            .with_distance_threshold(1e-9);
        let sim = chain_incremental(&imr_runner(3), &job, &base, &deltas, &cfg);
        let nat = chain_incremental(&native_runner(3), &job, &base, &deltas, &cfg);
        let cold = converge_cold(&imr_runner(3), &job, &statics, &cfg, "/final").unwrap();
        prop_assert_eq!(&sim.final_state, &cold.final_state);
        prop_assert_eq!(&nat.final_state, &cold.final_state);
        prop_assert_eq!(&sim.final_state, &nat.final_state);
    }
}

/// Chain `deltas` through warm incremental re-convergences on `runner`,
/// each step preserving its converged output as the fixpoint the next
/// step starts from. Returns the last step's outcome.
fn chain_incremental(
    runner: &impl IterEngine,
    job: &imr_algorithms::sssp::SsspInc,
    base: &std::collections::BTreeMap<u32, imr_algorithms::sssp::Adj>,
    deltas: &[imapreduce::GraphDelta],
    cfg: &IterConfig<imapreduce::Delta>,
) -> imapreduce::IterOutcome<u32, f64> {
    use imapreduce::FixpointStore;
    use imr_algorithms::incremental::{converge_and_preserve, inc_dirs};
    use imr_simcluster::TaskClock;

    let (cold, mut fix) = converge_and_preserve(runner, job, base, cfg, "/chain").unwrap();
    let mut prev_static = inc_dirs("/chain").static_;
    let mut clock = TaskClock::default();
    let mut last = cold;
    for (i, delta) in deltas.iter().enumerate() {
        let d = inc_dirs(&format!("/chain/{i}"));
        let out = runner
            .run_incremental(
                job,
                cfg,
                &fix,
                &prev_static,
                delta,
                &d.inc_state,
                &d.inc_static,
                &d.inc_out,
                &[],
            )
            .unwrap();
        let next = FixpointStore::new(d.fix);
        next.preserve(runner.dfs(), out.outcome.iterations, &d.inc_out, &mut clock)
            .unwrap();
        fix = next;
        prev_static = d.inc_static;
        last = out.outcome;
    }
    last
}

/// Every engine rejects a delta-mode config it cannot run with a
/// configuration error instead of running: `run_accumulative` refuses
/// one without the accumulated-progress threshold on the simulator and
/// natively, and `check_every` 0 is refused before any engine runs.
#[test]
fn delta_validation_rejects_unsupported_combos_on_every_engine() {
    use imapreduce::EngineError;
    use imr_algorithms::sssp::SsspIter;

    let g = generate_weighted_graph(24, 72, sssp_degree_dist(), sssp_weight_dist(), 7);
    let no_threshold = IterConfig::new("ssspd", 2, 10).with_accumulative_mode();
    fn expect_config<T>(r: Result<T, EngineError>, needle: &str) {
        match r {
            Err(EngineError::Config(msg)) => assert!(msg.contains(needle), "{msg}"),
            Err(other) => panic!("expected a Config error, got {other}"),
            Ok(_) => panic!("expected a Config error, got success"),
        }
    }

    let sim = imr_runner(2);
    sssp::load_sssp_imr(&sim, &g, 0, 2, "/s", "/t").unwrap();
    expect_config(
        sim.run_accumulative(&SsspIter, &no_threshold, "/s", "/t", "/o", &[]),
        "distance_threshold",
    );

    let nat = native_runner(2);
    sssp::load_sssp_imr(&nat, &g, 0, 2, "/s", "/t").unwrap();
    expect_config(
        nat.run_accumulative(&SsspIter, &no_threshold, "/s", "/t", "/o", &[]),
        "distance_threshold",
    );

    // Config-level values are rejected before any engine is involved.
    let no_checks = no_threshold
        .clone()
        .with_distance_threshold(1e-9)
        .with_check_every(0);
    for bad in [no_checks, no_threshold] {
        expect_config(bad.validate(&[]), "accumulative");
    }
}
