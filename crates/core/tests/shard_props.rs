//! Property test: a sharded [`BatchEngine`] run — scenarios
//! partitioned into contiguous per-worker shards, each worker with its
//! own scratch — is byte-identical to the sequential engine for
//! arbitrary scenario mixes (planner backends × fault plans × shard
//! counts 1..=8). The backends interleave DBN lanes, distilled lanes
//! (on one shared fold table, on a private table, and behind a
//! resilient wrapper) and fixed baselines, so one period's batched
//! inference pass groups both kinds of shared model at once.

use std::sync::{Arc, OnceLock};

use helio_ann::{
    CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable,
};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_faults::{
    AgingFault, DbnFault, DbnFaultMode, FaultHarness, FaultPlan, PeriodWindow, PmuStuckFault,
    RandomBlackouts, SolarFault,
};
use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::online::{ProposedPlanner, SwitchRule};
use heliosched::{
    BatchEngine, BatchScenario, Engine, FixedPlanner, NodeConfig, Pattern, PeriodPlanner,
    ResilientPlanner,
};
use proptest::prelude::*;

const DAYS: usize = 1;
const PERIODS: usize = 12;
const SLOTS: usize = 10;

fn grid() -> TimeGrid {
    TimeGrid::new(DAYS, PERIODS, SLOTS, Seconds::new(60.0)).unwrap()
}

fn node() -> NodeConfig {
    NodeConfig::builder(grid())
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .unwrap()
}

fn trace(seed: u64) -> SolarTrace {
    let archetypes = [
        DayArchetype::Clear,
        DayArchetype::BrokenClouds,
        DayArchetype::Overcast,
        DayArchetype::Storm,
    ];
    TraceBuilder::new(grid(), SolarPanel::paper_panel())
        .seed(seed)
        .days(&[archetypes[(seed % 4) as usize]])
        .build()
}

/// One DBN trained once and shared by every proptest case.
fn shared_dbn(graph: &TaskGraph) -> Arc<Dbn> {
    static DBN: OnceLock<Arc<Dbn>> = OnceLock::new();
    DBN.get_or_init(|| {
        let in_dim = SLOTS + 2 + 1;
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
        let mut cfg = DbnConfig::small(3);
        cfg.bp_epochs = 100;
        Arc::new(Dbn::train(&inputs, &targets, &cfg).unwrap())
    })
    .clone()
}

/// The shared DBN distilled once (with a debug-mode-small tree) and
/// compiled as the artifact's fallback tier.
fn distilled(graph: &TaskGraph) -> (Arc<DistilledPolicy>, Arc<CompiledDbn>) {
    static CELL: OnceLock<(Arc<DistilledPolicy>, Arc<CompiledDbn>)> = OnceLock::new();
    CELL.get_or_init(|| {
        let dbn = shared_dbn(graph);
        let compiled = Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).unwrap());
        let cfg = DistillConfig {
            depth_const: 3,
            depth_vary: 3,
            samples: 2048,
            candidates: 16,
            holdout: 512,
            ..DistillConfig::small(3)
        };
        let policy = Arc::new(DistilledPolicy::distill(&dbn, SLOTS, &[], &cfg).unwrap());
        (policy, compiled)
    })
    .clone()
}

/// The immutable models a case's planners are built from: the shared
/// DBN, and the distilled artifact with its fallback and one fold
/// table shared by every shared-table lane of the case.
struct Models {
    dbn: Arc<Dbn>,
    policy: Arc<DistilledPolicy>,
    fallback: Arc<CompiledDbn>,
    table: Arc<FoldTable>,
}

impl Models {
    fn new(graph: &TaskGraph) -> Self {
        let (policy, fallback) = distilled(graph);
        let table = Arc::new(FoldTable::new(
            Arc::clone(&policy),
            FoldTable::DEFAULT_CAPACITY,
        ));
        Self {
            dbn: shared_dbn(graph),
            policy,
            fallback,
            table,
        }
    }

    fn distilled_on_shared_table(&self) -> ProposedPlanner {
        ProposedPlanner::from_distilled_with_table(
            Arc::clone(&self.table),
            Arc::clone(&self.fallback),
            0.5,
            SwitchRule::default(),
        )
    }
}

const PLANNER_KINDS: u64 = 7;

fn make_planner<'a>(kind: u8, models: &Models) -> Box<dyn PeriodPlanner + 'a> {
    let dbn = &models.dbn;
    match kind % PLANNER_KINDS as u8 {
        0 => Box::new(FixedPlanner::new(Pattern::Inter, 1)),
        1 => Box::new(ProposedPlanner::from_shared_dbn(
            Arc::clone(dbn),
            0.5,
            SwitchRule::default(),
        )),
        2 => Box::new(ResilientPlanner::new(Box::new(
            ProposedPlanner::from_shared_dbn(Arc::clone(dbn), 0.5, SwitchRule::default()),
        ))),
        3 => Box::new(FixedPlanner::new(Pattern::Intra, 0)),
        4 => Box::new(models.distilled_on_shared_table()),
        // A private table: its own batch group, apart from the shared
        // table's lanes.
        5 => Box::new(ProposedPlanner::from_distilled(
            Arc::clone(&models.policy),
            Arc::clone(&models.fallback),
            0.5,
            SwitchRule::default(),
        )),
        _ => Box::new(ResilientPlanner::new(Box::new(
            models.distilled_on_shared_table(),
        ))),
    }
}

fn make_plan(kind: u8, seed: u64) -> FaultPlan {
    let total = DAYS * PERIODS;
    match kind % 5 {
        0 => FaultPlan::default(),
        1 => FaultPlan {
            solar: vec![SolarFault {
                window: PeriodWindow::new((seed % total as u64) as usize, 3),
                factor: 0.0,
            }],
            ..FaultPlan::default()
        },
        2 => FaultPlan {
            seed,
            random_blackouts: Some(RandomBlackouts {
                per_period_probability: 0.25,
                min_periods: 1,
                max_periods: 2,
            }),
            dbn: vec![DbnFault {
                window: PeriodWindow::new((seed % 6) as usize, 4),
                mode: if seed.is_multiple_of(2) {
                    DbnFaultMode::Nan
                } else {
                    DbnFaultMode::Unavailable
                },
            }],
            ..FaultPlan::default()
        },
        3 => FaultPlan {
            aging: Some(AgingFault {
                capacitance_fade_per_day: 0.9,
                leakage_growth_per_day: 1.3,
            }),
            pmu_stuck: vec![PmuStuckFault {
                window: PeriodWindow::new(2, 4),
                channel: (seed % 3) as usize,
            }],
            ..FaultPlan::default()
        },
        _ => FaultPlan {
            dbn: vec![DbnFault {
                window: PeriodWindow::new(0, total),
                mode: DbnFaultMode::Unavailable,
            }],
            ..FaultPlan::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_matches_sequential_for_arbitrary_scenarios(
        raw in prop::collection::vec(any::<u64>(), 1..9),
    ) {
        // The vendored proptest has no tuple strategies; decompose one
        // u64 per scenario into (planner kind, fault-plan kind, seed),
        // and take the shard count 1..=8 from the first element's high
        // bits so every case also picks an arbitrary partition.
        let scenarios: Vec<(u8, u8, u64)> = raw
            .iter()
            .map(|&v| {
                (
                    (v % PLANNER_KINDS) as u8,
                    ((v / PLANNER_KINDS) % 5) as u8,
                    (v / (PLANNER_KINDS * 5)) % 32,
                )
            })
            .collect();
        let shards = 1 + ((raw[0] >> 32) % 8) as usize;
        let node = node();
        let graph = benchmarks::ecg();
        let models = Models::new(&graph);
        let total = DAYS * PERIODS;

        let traces: Vec<SolarTrace> =
            scenarios.iter().map(|&(_, _, seed)| trace(seed)).collect();
        let harnesses: Vec<FaultHarness> = scenarios
            .iter()
            .map(|&(_, plan_kind, seed)| {
                FaultHarness::new(&make_plan(plan_kind, seed), total, PERIODS)
            })
            .collect();

        let mut engine = BatchEngine::new(&node, &graph).unwrap();
        for (i, &(planner_kind, _, _)) in scenarios.iter().enumerate() {
            engine
                .push(
                    BatchScenario::new(&traces[i], make_planner(planner_kind, &models))
                        .with_harness(&harnesses[i]),
                )
                .unwrap();
        }
        let sharded = engine.run_sharded(shards).unwrap();
        prop_assert_eq!(sharded.len(), scenarios.len());

        for (i, &(planner_kind, _, _)) in scenarios.iter().enumerate() {
            let mut planner = make_planner(planner_kind, &models);
            let sequential = Engine::new(&node, &graph, &traces[i])
                .unwrap()
                .run_with_faults(planner.as_mut(), Some(&harnesses[i]))
                .unwrap();
            prop_assert_eq!(
                serde_json::to_string(&sharded[i]).unwrap(),
                serde_json::to_string(&sequential).unwrap(),
                "scenario {} diverged at {} shards", i, shards
            );
        }
    }
}
