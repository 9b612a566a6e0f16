//! Reproducibility: every stochastic component is seeded, so identical
//! configurations must give bit-identical results across runs.

use std::sync::Arc;

use helio_ann::{
    CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable,
};
use helio_solar::WeatherProcess;
use heliosched::prelude::*;
use heliosched::{DpConfig, NodeConfig, OfflineConfig, SwitchRule};

fn grid(days: usize) -> TimeGrid {
    TimeGrid::new(days, 24, 10, Seconds::new(60.0)).expect("valid grid")
}

fn trace(days: usize, seed: u64) -> helio_solar::SolarTrace {
    TraceBuilder::new(grid(days), SolarPanel::paper_panel())
        .seed(seed)
        .weather(WeatherProcess::temperate())
        .build()
}

#[test]
fn traces_are_reproducible() {
    assert_eq!(trace(5, 1), trace(5, 1));
    assert_ne!(trace(5, 1), trace(5, 2));
}

#[test]
fn baseline_runs_are_reproducible() {
    let t = trace(2, 3);
    let node = NodeConfig::builder(grid(2))
        .capacitors(&[Farads::new(10.0)])
        .build()
        .expect("node");
    let graph = benchmarks::wam();
    let engine = Engine::new(&node, &graph, &t).expect("engine");
    let a = engine
        .run(&mut FixedPlanner::new(Pattern::Inter, 0))
        .expect("run");
    let b = engine
        .run(&mut FixedPlanner::new(Pattern::Inter, 0))
        .expect("run");
    assert_eq!(a, b);
}

#[test]
fn optimal_plans_are_reproducible() {
    let t = trace(2, 4);
    let node = NodeConfig::builder(grid(2))
        .capacitors(&[Farads::new(2.0), Farads::new(22.0)])
        .build()
        .expect("node");
    let graph = benchmarks::ecg();
    let engine = Engine::new(&node, &graph, &t).expect("engine");
    let run = || {
        let mut p =
            OptimalPlanner::compute(&node, &graph, &t, &DpConfig::default(), 0.5).expect("optimal");
        engine.run(&mut p).expect("run")
    };
    assert_eq!(run(), run());
}

#[test]
fn trained_planners_are_reproducible() {
    let training = trace(2, 5);
    let node = NodeConfig::builder(grid(2))
        .capacitors(&[Farads::new(2.0), Farads::new(22.0)])
        .build()
        .expect("node");
    let graph = benchmarks::shm();
    let mut cfg = OfflineConfig::default();
    cfg.dbn.bp_epochs = 60;
    let engine = Engine::new(&node, &graph, &training).expect("engine");
    let run = || {
        let mut p = train_proposed(&node, &graph, &training, &cfg).expect("train");
        engine.run(&mut p).expect("run")
    };
    assert_eq!(run(), run());
}

#[test]
fn mpc_with_noisy_oracle_is_reproducible() {
    let t = trace(2, 6);
    let node = NodeConfig::builder(grid(2))
        .capacitors(&[Farads::new(10.0)])
        .build()
        .expect("node");
    let graph = benchmarks::random_case(2);
    let engine = Engine::new(&node, &graph, &t).expect("engine");
    let run = || {
        let mut p = heliosched::ProposedPlanner::mpc(
            Box::new(NoisyOracle::new(9, 0.05, 0.1)),
            24,
            DpConfig::default(),
            0.5,
            SwitchRule::default(),
        );
        engine.run(&mut p).expect("run")
    };
    assert_eq!(run(), run());
}

/// A batch of inter, shared-DBN, resilient-wrapped DBN and two
/// distilled lanes on one fold table, run sharded at 1 and 2 workers
/// with the table at its default capacity and at capacity 1: every
/// report is byte-identical to its own sequential engine run.
#[test]
fn batched_engine_matches_sequential() {
    let node = NodeConfig::builder(grid(1))
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .expect("node");
    let graph = benchmarks::ecg();
    // Debug-mode-small models: a synthetic training set, a short
    // back-propagation run and a shallow distilled tree.
    let in_dim = 10 + 2 + 1;
    let inputs: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let mut v = vec![(i % 7) as f64 * 10.0; in_dim];
            v[in_dim - 1] = 0.3;
            v
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..40)
        .map(|i| {
            let mut v = vec![(i % 2) as f64, 1.0];
            v.extend(vec![1.0; graph.len()]);
            v
        })
        .collect();
    let mut dbn_cfg = DbnConfig::small(2);
    dbn_cfg.bp_epochs = 60;
    let dbn = Arc::new(Dbn::train(&inputs, &targets, &dbn_cfg).expect("train"));
    let fallback = Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).expect("compile"));
    let distill_cfg = DistillConfig {
        depth_const: 2,
        depth_vary: 2,
        samples: 512,
        candidates: 8,
        holdout: 128,
        ..DistillConfig::small(3)
    };
    let policy = Arc::new(DistilledPolicy::distill(&dbn, 10, &[], &distill_cfg).expect("distill"));
    let traces: Vec<_> = (0..5).map(|i| trace(1, 40 + i)).collect();

    // Capacity 1 evicts on every first sighting, so the two distilled
    // lanes keep pushing each other's prefix out: output bytes must
    // not depend on what the shared fold table holds.
    for capacity in [FoldTable::DEFAULT_CAPACITY, 1] {
        let table = Arc::new(FoldTable::new(Arc::clone(&policy), capacity));
        let make = |i: usize| -> Box<dyn PeriodPlanner> {
            let shared_dbn =
                || ProposedPlanner::from_shared_dbn(Arc::clone(&dbn), 0.5, SwitchRule::default());
            match i {
                0 => Box::new(FixedPlanner::new(Pattern::Inter, 1)),
                1 => Box::new(shared_dbn()),
                2 => Box::new(ResilientPlanner::new(Box::new(shared_dbn()))),
                _ => Box::new(ProposedPlanner::from_distilled_with_table(
                    Arc::clone(&table),
                    Arc::clone(&fallback),
                    0.5,
                    SwitchRule::default(),
                )),
            }
        };
        for shards in [1, 2] {
            let mut batch = BatchEngine::new(&node, &graph).expect("batch engine");
            for (i, t) in traces.iter().enumerate() {
                batch.push(BatchScenario::new(t, make(i))).expect("push");
            }
            let batched = batch.run_sharded(shards).expect("batched run");
            assert_eq!(batched.len(), traces.len());
            for (i, (t, b)) in traces.iter().zip(&batched).enumerate() {
                let mut planner = make(i);
                let sequential = Engine::new(&node, &graph, t)
                    .expect("engine")
                    .run(planner.as_mut())
                    .expect("run");
                assert_eq!(
                    serde_json::to_string(b).expect("encode"),
                    serde_json::to_string(&sequential).expect("encode"),
                    "scenario {i} diverged at {shards} shards, fold capacity {capacity}"
                );
            }
        }
        assert!(table.len() <= capacity);
    }
}
