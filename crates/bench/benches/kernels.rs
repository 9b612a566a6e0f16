//! Criterion benchmarks of the kernels behind every table and figure.
//! End-to-end numbers come from elsewhere: the `src/bin/*` binaries
//! regenerate the paper's results, and `fleetbench/` (driven by
//! `BENCHMARK.json`) times the served fleet request path layer by
//! layer. These benches time the building blocks in isolation, so a
//! regression in the simulator, the optimiser or an inference kernel
//! shows up on its own.
//!
//! Groups:
//! * `fig5_regulator` — efficiency-curve evaluation
//! * `fig7_solar` — synthetic trace generation
//! * `table2_migration` — migration experiment (model + reference)
//! * `fig8_engine` — one simulated day per scheduler pattern
//! * `slot_loop` — the online hot path over a four-day run (the loop
//!   `bench_online` reports in results/BENCH_online.json)
//! * `batch_loop` — **kernel-only**, `[128,128]` DBN: a sequential
//!   `Engine::run` loop vs one `BatchEngine::run` at B = 16, and
//!   `run_sharded` over 1, 2 and 4 shards at B = 64
//! * `fig8_fig9_dp` — the long-term DP over one day
//! * `matmul` — one `matvec` per row vs the blocked `matmul_bt`
//! * `dp_memoization` — serial reference DP vs memoized + parallel
//!   (the speedup `bench_offline` reports)
//! * `fig10a_mpc` — an MPC replan at several horizons
//! * `fig10b_sizing` — per-day capacitor sizing
//! * `sec65_dbn` — DBN training and inference (the on-node coarse step)
//! * `decision_loop` — f64 `predict_into` vs the compiled f32 forward
//!   (the distilled artifact's fallback tier) on the golden `[16,10]`
//!   network
//! * `distill_loop` — the distilled artifact's flat, prewalk + fold and
//!   folded paths on the golden network; plus, **kernel-only** on the
//!   `[128,128]` DBN's artifact over a synthetic decision stream, the
//!   fleet-shared `FoldTable` + `predict_batch_folded` against
//!   per-scenario `predict_folded` at B = 64
//! * `train_loop` — scratch-based CD-1 and back-propagation epochs vs
//!   the per-step loops they replaced (`bench_train`'s stages)
//!
//! No planner serves the `[128,128]` network: the paper's planner runs
//! the `[16,10]` DBN or its distilled artifact once per period. The
//! kernel-only rows measure batching on an inference-heavy network and
//! a synthetic stream, so their ratios are not end-to-end speedups.
//! Byte identity of the batched paths is gated by tests, not here:
//! `tests/golden_online.rs`, `crates/core/tests/batch_props.rs`,
//! `crates/core/tests/shard_props.rs`, `golden_distilled` and the
//! `helio-ann` unit tests.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use helio_ann::{Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldEntry, FoldTable};
use helio_bench::{paper_grid, weather_trace};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Joules, Seconds, Volts};
use helio_nvp::Pmu;
use helio_solar::{
    NoisyOracle, SolarPanel, SolarPredictor, SolarTrace, TraceBuilder, WeatherProcess,
};
use helio_storage::reference::measured_migration_efficiency;
use helio_storage::{
    migration_efficiency, optimal_capacitance, MigrationSpec, RegulatorCurve, StorageModelParams,
    SuperCap,
};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::{
    dmr_level_subsets, optimize_horizon, BatchEngine, BatchScenario, DpConfig, Engine,
    FixedPlanner, NodeConfig, Pattern, ProposedPlanner, SwitchRule,
};

fn fig5_regulator(c: &mut Criterion) {
    let chr = RegulatorCurve::default_charge();
    c.bench_function("fig5_regulator/efficiency_sweep", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            let mut v = 0.5;
            while v <= 5.0 {
                acc += chr.efficiency(Volts::new(black_box(v)));
                v += 0.01;
            }
            acc
        })
    });
}

fn fig7_solar(c: &mut Criterion) {
    let grid = paper_grid(4, 144);
    c.bench_function("fig7_solar/four_day_trace", |b| {
        b.iter(|| {
            TraceBuilder::new(grid, SolarPanel::paper_panel())
                .seed(black_box(7))
                .days(&helio_solar::DayArchetype::ALL)
                .build()
        })
    });
    c.bench_function("fig7_solar/month_weather_trace", |b| {
        b.iter(|| {
            TraceBuilder::new(paper_grid(30, 144), SolarPanel::paper_panel())
                .seed(black_box(7))
                .weather(WeatherProcess::temperate())
                .build()
        })
    });
}

fn table2_migration(c: &mut Criterion) {
    let params = StorageModelParams::default();
    let cap = SuperCap::new(Farads::new(10.0), &params).expect("valid");
    c.bench_function("table2_migration/model_30j_400min", |b| {
        b.iter(|| migration_efficiency(&cap, &params, black_box(MigrationSpec::large_long())))
    });
    c.bench_function("table2_migration/reference_7j_60min", |b| {
        b.iter(|| {
            measured_migration_efficiency(&cap, &params, black_box(MigrationSpec::small_short()))
        })
    });
}

fn fig8_engine(c: &mut Criterion) {
    let grid = paper_grid(1, 144);
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(1)
        .days(&[helio_solar::DayArchetype::BrokenClouds])
        .build();
    let graph = benchmarks::wam();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(10.0)])
        .build()
        .expect("node");
    let engine = Engine::new(&node, &graph, &trace).expect("engine");
    let mut group = c.benchmark_group("fig8_engine");
    group.sample_size(20);
    for pattern in [Pattern::Asap, Pattern::Inter, Pattern::Intra] {
        group.bench_with_input(
            BenchmarkId::new("one_day_wam", format!("{pattern}")),
            &pattern,
            |b, &p| b.iter(|| engine.run(&mut FixedPlanner::new(p, 0)).expect("run")),
        );
    }
    group.finish();
}

fn slot_loop(c: &mut Criterion) {
    // The online hot path under Criterion's sampling: a four-day run
    // (4 × 24 × 10 = 960 slots) per scheduler pattern on the ecg graph.
    // This is the same loop `bench_online` times for
    // results/BENCH_online.json; here it guards against slot-path
    // regressions in CI without the JSON machinery.
    let grid = paper_grid(4, 24);
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(11)
        .days(&[
            helio_solar::DayArchetype::Clear,
            helio_solar::DayArchetype::BrokenClouds,
            helio_solar::DayArchetype::Overcast,
            helio_solar::DayArchetype::Clear,
        ])
        .build();
    let graph = benchmarks::ecg();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(10.0)])
        .build()
        .expect("node");
    let engine = Engine::new(&node, &graph, &trace).expect("engine");
    let mut group = c.benchmark_group("slot_loop");
    group.sample_size(30);
    for pattern in [Pattern::Asap, Pattern::Inter, Pattern::Intra] {
        group.bench_with_input(
            BenchmarkId::new("four_day_ecg_960_slots", format!("{pattern}")),
            &pattern,
            |b, &p| b.iter(|| engine.run(&mut FixedPlanner::new(p, 0)).expect("run")),
        );
    }
    group.finish();
}

/// The kernel-only `[128,128]` setup shared by `batch_loop` and
/// `distill_loop`: a decision-dominated ECG grid (one day of 48
/// periods, two 300 s slots each), a two-capacitor node, and a DBN with
/// two 128-unit hidden layers trained on synthetic scheduler-shaped
/// samples. Decision cost is what these rows time, not decision
/// quality.
struct WideNet {
    grid: TimeGrid,
    graph: TaskGraph,
    node: NodeConfig,
    dbn: Arc<Dbn>,
}

fn wide_net() -> WideNet {
    let grid = TimeGrid::new(1, 48, 2, Seconds::new(300.0)).expect("grid");
    let graph = benchmarks::ecg();
    let node = NodeConfig::builder(grid)
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .expect("node");
    let in_dim = grid.slots_per_period() + node.capacitors.len() + 1;
    let out_dim = 2 + graph.len();
    let inputs: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..in_dim)
                .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..64)
        .map(|i| (0..out_dim).map(|k| ((i + k) % 2) as f64).collect())
        .collect();
    let cfg = DbnConfig {
        hidden: vec![128, 128],
        rbm_epochs: 10,
        rbm_lr: 0.1,
        bp_epochs: 30,
        bp_lr: 0.4,
        seed: 9,
    };
    let dbn = Arc::new(Dbn::train(&inputs, &targets, &cfg).expect("train"));
    WideNet {
        grid,
        graph,
        node,
        dbn,
    }
}

fn batch_loop(c: &mut Criterion) {
    // Kernel-only: DBN-planned scenarios (distinct weather-seeded
    // traces, shared task set and bank shape) on the `[128,128]`
    // network. A sequential `Engine::run` loop against one lockstep
    // `BatchEngine::run` at B = 16 times batched inference; the B = 64
    // batch split over 1, 2 and 4 shards times the partition-and-join
    // overhead of the `run_sharded` dispatch that `helio-fleet` drives.
    const B: usize = 16;
    const SHARDED_B: usize = 64;
    let WideNet {
        grid,
        graph,
        node,
        dbn,
    } = wide_net();
    let traces: Vec<SolarTrace> = (0..SHARDED_B)
        .map(|i| {
            TraceBuilder::new(grid, SolarPanel::paper_panel())
                .seed(9000 + i as u64)
                .weather(WeatherProcess::temperate())
                .build()
        })
        .collect();
    let planner = || ProposedPlanner::from_shared_dbn(Arc::clone(&dbn), 0.5, SwitchRule::default());
    let batch = |scenarios: usize| {
        let mut engine = BatchEngine::new(&node, &graph).expect("batch engine");
        for trace in &traces[..scenarios] {
            engine
                .push(BatchScenario::new(trace, Box::new(planner())))
                .expect("scenario");
        }
        engine
    };
    let mut group = c.benchmark_group("batch_loop");
    group.sample_size(20);
    group.bench_function("sequential_16_dbn_scenarios", |b| {
        b.iter(|| {
            for trace in &traces[..B] {
                let report = Engine::new(&node, &graph, trace)
                    .expect("engine")
                    .run(&mut planner())
                    .expect("run");
                black_box(report);
            }
        })
    });
    group.bench_function("batched_16_dbn_scenarios", |b| {
        b.iter(|| black_box(batch(B).run().expect("batched run")))
    });
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sharded_64_dbn_scenarios", shards),
            &shards,
            |b, &s| b.iter(|| black_box(batch(SHARDED_B).run_sharded(s).expect("sharded run"))),
        );
    }
    group.finish();
}

fn fig8_fig9_dp(c: &mut Criterion) {
    let storage = StorageModelParams::default();
    let pmu = Pmu::default();
    let graph = benchmarks::ecg();
    let subsets = dmr_level_subsets(&graph, 2);
    let cap = SuperCap::new(Farads::new(10.0), &storage).expect("valid");
    let grid = paper_grid(1, 144);
    let trace = weather_trace(1, 144, 5);
    let solar: Vec<Vec<Joules>> = (0..grid.periods_per_day())
        .map(|j| {
            grid.slots_in(helio_common::time::PeriodRef::new(0, j))
                .map(|s| trace.slot_energy(s))
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("fig8_fig9_dp");
    group.sample_size(10);
    group.bench_function("optimize_one_day_ecg", |b| {
        b.iter(|| {
            optimize_horizon(
                &graph,
                &subsets,
                black_box(&solar),
                Seconds::new(60.0),
                &cap,
                cap.empty_state(),
                &storage,
                &pmu,
                &DpConfig::default(),
            )
        })
    });
    group.finish();
}

fn matmul_kernels(c: &mut Criterion) {
    // Batch-forward shape: 128 samples × 64 features against a 32×64
    // weight matrix (X · Wᵀ). The blocked product replaces one matvec
    // per sample in the RBM/MLP batch paths.
    let x = helio_ann::Matrix::from_rows(
        &(0..128)
            .map(|i| {
                (0..64)
                    .map(|k| ((i * 31 + k * 7) % 97) as f64 / 97.0)
                    .collect()
            })
            .collect::<Vec<Vec<f64>>>(),
    )
    .expect("x");
    let w = helio_ann::Matrix::from_rows(
        &(0..32)
            .map(|j| {
                (0..64)
                    .map(|k| ((j * 13 + k * 11) % 89) as f64 / 89.0)
                    .collect()
            })
            .collect::<Vec<Vec<f64>>>(),
    )
    .expect("w");
    let mut group = c.benchmark_group("matmul");
    group.bench_function("matvec_per_row_128x64x32", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..128 {
                let row: Vec<f64> = (0..64).map(|k| x.get(i, k)).collect();
                acc += w.matvec(black_box(&row)).expect("matvec")[0];
            }
            acc
        })
    });
    group.bench_function("blocked_bt_128x64x32", |b| {
        b.iter(|| x.matmul_bt(black_box(&w)).expect("matmul"))
    });
    group.finish();
}

fn dp_memoization(c: &mut Criterion) {
    // Serial reference vs memoized+parallel DP on identical inputs —
    // the speedup `bench_offline` reports, under Criterion's sampling.
    let storage = StorageModelParams::default();
    let pmu = Pmu::default();
    let graph = benchmarks::ecg();
    let subsets = dmr_level_subsets(&graph, 2);
    let cap = SuperCap::new(Farads::new(10.0), &storage).expect("valid");
    let grid = paper_grid(1, 48);
    let trace = weather_trace(1, 48, 5);
    let solar: Vec<Vec<Joules>> = (0..grid.periods_per_day())
        .map(|j| {
            grid.slots_in(helio_common::time::PeriodRef::new(0, j))
                .map(|s| trace.slot_energy(s))
                .collect()
        })
        .collect();
    let mut group = c.benchmark_group("dp_memoization");
    group.sample_size(10);
    group.bench_function("serial_reference", |b| {
        b.iter(|| {
            heliosched::optimize_horizon_serial(
                &graph,
                &subsets,
                black_box(&solar),
                Seconds::new(60.0),
                &cap,
                cap.empty_state(),
                &storage,
                &pmu,
                &DpConfig::default(),
            )
        })
    });
    group.bench_function("cached_parallel", |b| {
        b.iter(|| {
            optimize_horizon(
                &graph,
                &subsets,
                black_box(&solar),
                Seconds::new(60.0),
                &cap,
                cap.empty_state(),
                &storage,
                &pmu,
                &DpConfig::default(),
            )
        })
    });
    group.finish();
}

fn fig10a_mpc(c: &mut Criterion) {
    let storage = StorageModelParams::default();
    let pmu = Pmu::default();
    let graph = benchmarks::random_case(1);
    let subsets = dmr_level_subsets(&graph, 2);
    let cap = SuperCap::new(Farads::new(10.0), &storage).expect("valid");
    let trace = weather_trace(4, 144, 6);
    let oracle = NoisyOracle::new(7, 0.02, 0.12);
    let mut group = c.benchmark_group("fig10a_mpc");
    group.sample_size(10);
    for hours in [6usize, 24, 48] {
        let horizon = hours * 6;
        let predicted = oracle.forecast(&trace, helio_common::time::PeriodRef::new(0, 0), horizon);
        let solar: Vec<Vec<Joules>> = predicted.iter().map(|&e| vec![e / 10.0; 10]).collect();
        group.bench_with_input(
            BenchmarkId::new("replan", format!("{hours}h")),
            &solar,
            |b, solar| {
                b.iter(|| {
                    optimize_horizon(
                        &graph,
                        &subsets,
                        black_box(solar),
                        Seconds::new(60.0),
                        &cap,
                        cap.empty_state(),
                        &storage,
                        &pmu,
                        &DpConfig::default(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn fig10b_sizing(c: &mut Criterion) {
    let storage = StorageModelParams::default();
    let trace = weather_trace(1, 144, 8);
    let demand = heliosched::offline::asap_demand_profile(
        &benchmarks::random_case(1),
        10,
        Seconds::new(60.0),
    );
    let mut delta_e = Vec::new();
    for j in 0..144 {
        for (m, s) in trace
            .grid()
            .slots_in(helio_common::time::PeriodRef::new(0, j))
            .enumerate()
        {
            delta_e.push(trace.slot_energy(s) - demand[m]);
        }
    }
    let mut group = c.benchmark_group("fig10b_sizing");
    group.sample_size(10);
    group.bench_function("optimal_capacitance_one_day", |b| {
        b.iter(|| {
            optimal_capacitance(
                black_box(&delta_e),
                Seconds::new(60.0),
                &storage,
                Farads::new(0.5),
                Farads::new(120.0),
            )
            .expect("sizing")
        })
    });
    group.finish();
}

fn sec65_dbn(c: &mut Criterion) {
    // Training-shaped data: 13 inputs (10 slots + 2 caps + DMR), 8
    // outputs (cap, alpha, 6 te bits).
    let inputs: Vec<Vec<f64>> = (0..96)
        .map(|i| {
            (0..13)
                .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..96)
        .map(|i| (0..8).map(|k| ((i + k) % 2) as f64).collect())
        .collect();
    let mut group = c.benchmark_group("sec65_dbn");
    group.sample_size(10);
    group.bench_function("train_small", |b| {
        b.iter_batched(
            || (inputs.clone(), targets.clone()),
            |(x, y)| {
                let mut cfg = helio_ann::DbnConfig::small(3);
                cfg.bp_epochs = 50;
                helio_ann::Dbn::train(&x, &y, &cfg).expect("train")
            },
            BatchSize::SmallInput,
        )
    });
    let dbn = {
        let mut cfg = helio_ann::DbnConfig::small(3);
        cfg.bp_epochs = 50;
        helio_ann::Dbn::train(&inputs, &targets, &cfg).expect("train")
    };
    group.bench_function("infer_one_period", |b| {
        // The zero-alloc reference path (`predict` would allocate a
        // scratch and output Vec every iteration).
        let mut scratch = helio_ann::PredictScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            dbn.predict_into(black_box(&inputs[0]), &mut scratch, &mut out)
                .expect("predict");
            out[0]
        })
    });
    group.finish();
}

fn decision_loop(c: &mut Criterion) {
    // The per-period decision cost of the distilled artifact's fallback
    // tier: reference f64 `predict_into` vs the packed `f32`
    // `CompiledDbn` forward, on the golden network shape
    // (13 → 16 → 10 → 10).
    // Tracked per commit alongside slot_loop and batch_loop.
    let inputs: Vec<Vec<f64>> = (0..96)
        .map(|i| {
            (0..13)
                .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..96)
        .map(|i| (0..10).map(|k| ((i + k) % 2) as f64).collect())
        .collect();
    let dbn = {
        let mut cfg = helio_ann::DbnConfig::small(3);
        cfg.bp_epochs = 50;
        helio_ann::Dbn::train(&inputs, &targets, &cfg).expect("train")
    };
    let mut group = c.benchmark_group("decision_loop");
    group.bench_function("predict_into_f64", |b| {
        let mut scratch = helio_ann::PredictScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            dbn.predict_into(black_box(&inputs[0]), &mut scratch, &mut out)
                .expect("predict");
            out[0]
        })
    });
    let compiled =
        helio_ann::CompiledDbn::compile(&dbn, helio_ann::CompiledTier::F32).expect("compiles");
    let mut scratch = compiled.make_scratch();
    let mut out = Vec::with_capacity(compiled.output_dim());
    group.bench_function("compiled_f32", |b| {
        b.iter(|| {
            compiled
                .forward_into(black_box(&inputs[0]), &mut scratch, &mut out)
                .expect("forward");
            out[0]
        })
    });
    group.finish();
}

/// A synthetic distilled decision stream, indexed `[period][lane]`:
/// the first `const_prefix` features are shared by every lane of a
/// period (the run-constant prefix, previous-period slot powers) and
/// the tail varies per lane (voltages, DMR).
fn decision_stream(
    periods: usize,
    lanes: usize,
    in_dim: usize,
    const_prefix: usize,
) -> Vec<Vec<Vec<f64>>> {
    (0..periods)
        .map(|p| {
            (0..lanes)
                .map(|lane| {
                    (0..in_dim)
                        .map(|k| {
                            if k < const_prefix {
                                ((p * 31 + k * 17) % 97) as f64 * 0.13
                            } else {
                                ((p * 13 + lane * 29 + k * 7) % 83) as f64 * 0.07
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// One pass of `stream` through the per-scenario distilled path: a
/// private fold table per lane (what `ProposedPlanner::from_distilled`
/// builds), so each period's prefix is seen once per table and every
/// decision is a scalar lookup plus predict. Outputs append to `sink`.
#[allow(clippy::disallowed_methods)] // the scalar predict_folded path is the baseline
fn per_scenario_pass(policy: &Arc<DistilledPolicy>, stream: &[Vec<Vec<f64>>], sink: &mut Vec<f64>) {
    let lanes = stream.first().map_or(0, Vec::len);
    let tables: Vec<FoldTable> = (0..lanes)
        .map(|_| FoldTable::new(Arc::clone(policy), FoldTable::DEFAULT_CAPACITY))
        .collect();
    let mut out = Vec::with_capacity(policy.output_dim());
    for period in stream {
        for (x, table) in period.iter().zip(&tables) {
            match table.lookup(x).expect("fold lookup") {
                Some(e) => policy
                    .predict_folded(e.cursor(), e.folded(), x, &mut out)
                    .expect("folded predict"),
                None => policy.predict_into(x, &mut out).expect("flat predict"),
            }
            sink.extend_from_slice(&out);
        }
    }
}

/// The same pass through the fleet-shared path: one fold table across
/// every lane (each period folds once, fleet-wide) and the multi-lane
/// batched leaf kernel. Outputs append to `sink` in the per-scenario
/// pass's order.
fn shared_pass(policy: &Arc<DistilledPolicy>, stream: &[Vec<Vec<f64>>], sink: &mut Vec<f64>) {
    let table = FoldTable::new(Arc::clone(policy), FoldTable::DEFAULT_CAPACITY);
    let mut entries: Vec<Option<Arc<FoldEntry>>> = Vec::new();
    let mut block: Vec<f64> = Vec::new();
    let mut out: Vec<f64> = Vec::new();
    for period in stream {
        entries.clear();
        block.clear();
        for x in period {
            entries.push(table.lookup(x).expect("fold lookup"));
            block.extend_from_slice(x);
        }
        policy
            .predict_batch_folded(&entries, &block, &mut out)
            .expect("batched kernel");
        sink.extend_from_slice(&out);
    }
}

#[allow(clippy::disallowed_methods)] // times the scalar folded path against its alternatives
fn distill_loop(c: &mut Criterion) {
    // The distilled branch-free artifact against the paths it
    // outranks, plus its own setup stages: `prewalk`/`fold` run once
    // per period (constant-prefix work), `predict_folded` is the
    // per-decision hot path the BENCH_online `distilled` row times
    // end-to-end through the planner.
    let inputs: Vec<Vec<f64>> = (0..96)
        .map(|i| {
            (0..13)
                .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = (0..96)
        .map(|i| (0..10).map(|k| ((i + k) % 2) as f64).collect())
        .collect();
    let dbn = {
        let mut cfg = helio_ann::DbnConfig::small(3);
        cfg.bp_epochs = 50;
        helio_ann::Dbn::train(&inputs, &targets, &cfg).expect("train")
    };
    let policy = {
        let cfg = helio_ann::DistillConfig {
            samples: 8192,
            holdout: 1024,
            ..helio_ann::DistillConfig::small(3)
        };
        helio_ann::DistilledPolicy::distill(&dbn, 10, &[], &cfg).expect("distils")
    };
    let mut group = c.benchmark_group("distill_loop");
    group.bench_function("predict_flat", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            policy
                .predict_into(black_box(&inputs[0]), &mut out)
                .expect("predict");
            out[0]
        })
    });
    group.bench_function("prewalk_fold_once_per_period", |b| {
        let mut folded = Vec::new();
        b.iter(|| {
            let cursor = policy.prewalk(black_box(&inputs[0])).expect("prewalk");
            policy
                .fold(cursor, black_box(&inputs[0]), &mut folded)
                .expect("fold");
            cursor
        })
    });
    group.bench_function("predict_folded", |b| {
        let mut folded = Vec::new();
        let mut out = Vec::new();
        let cursor = policy.prewalk(&inputs[0]).expect("prewalk");
        policy.fold(cursor, &inputs[0], &mut folded).expect("fold");
        b.iter(|| {
            policy
                .predict_folded(cursor, &folded, black_box(&inputs[1]), &mut out)
                .expect("predict");
            out[0]
        })
    });

    // Kernel-only fold sharing: the `[128,128]` DBN's artifact over a
    // synthetic 64-lane stream, per-scenario tables (every period a
    // cold flat predict) against one shared table feeding the batched
    // leaf kernel.
    const LANES: usize = 64;
    const PERIODS: usize = 192;
    let wide = wide_net();
    let spp = wide.grid.slots_per_period();
    let wide_cfg = DistillConfig {
        depth_const: 3,
        depth_vary: 3,
        samples: 4096,
        candidates: 16,
        holdout: 512,
        ..DistillConfig::small(7)
    };
    let wide_policy =
        Arc::new(DistilledPolicy::distill(&wide.dbn, spp, &[], &wide_cfg).expect("distils"));
    let stream = decision_stream(PERIODS, LANES, wide.dbn.input_dim(), spp);
    group.bench_function("per_scenario_64_lanes", |b| {
        let mut sink = Vec::new();
        b.iter(|| {
            sink.clear();
            per_scenario_pass(&wide_policy, &stream, &mut sink);
            sink.len()
        })
    });
    group.bench_function("shared_batched_64_lanes", |b| {
        let mut sink = Vec::new();
        b.iter(|| {
            sink.clear();
            shared_pass(&wide_policy, &stream, &mut sink);
            sink.len()
        })
    });
    group.finish();
}

fn train_loop(c: &mut Criterion) {
    // The training hot loops behind `bench_train`'s stage timings:
    // scratch-based CD-1 and back-propagation epochs on packed sample
    // matrices, against the per-sample-step loops they replaced (one
    // fresh scratch per step — the pre-refactor allocation pattern).
    // Bit-identity of the two paths is proptest- and golden-gated;
    // this group guards the throughput edge.
    use helio_common::rng::seeded;
    let mut rng = seeded(0x7124);
    let xs = helio_ann::Matrix::random(96, 13, 1.0, &mut rng);
    let ys = helio_ann::Matrix::random(96, 8, 0.5, &mut rng);
    let mut group = c.benchmark_group("train_loop");
    group.sample_size(20);
    group.bench_function("rbm_cd1_30_epochs_scratch", |b| {
        b.iter_batched(
            || {
                let mut rng = seeded(5);
                (helio_ann::Rbm::new(13, 16, &mut rng), rng)
            },
            |(mut rbm, mut rng)| {
                rbm.train_matrix(black_box(&xs), 30, 0.1, &mut rng)
                    .expect("trains")
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("rbm_cd1_30_epochs_per_step", |b| {
        b.iter_batched(
            || {
                let mut rng = seeded(5);
                (helio_ann::Rbm::new(13, 16, &mut rng), rng)
            },
            |(mut rbm, mut rng)| {
                let mut last = 0.0;
                for _ in 0..30 {
                    for i in 0..xs.rows() {
                        last = rbm.cd1_step(xs.row(i), 0.1, &mut rng).expect("steps");
                    }
                }
                last
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("mlp_bp_50_epochs_scratch", |b| {
        b.iter_batched(
            || helio_ann::Mlp::new(&[13, 16, 10, 8], &mut seeded(6)).expect("mlp"),
            |mut mlp| {
                mlp.train_matrix(black_box(&xs), &ys, 50, 0.4)
                    .expect("trains")
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("mlp_bp_50_epochs_per_step", |b| {
        b.iter_batched(
            || helio_ann::Mlp::new(&[13, 16, 10, 8], &mut seeded(6)).expect("mlp"),
            |mut mlp| {
                let mut last = 0.0;
                for _ in 0..50 {
                    for i in 0..xs.rows() {
                        last = mlp.sgd_step(xs.row(i), ys.row(i), 0.4).expect("steps");
                    }
                }
                last
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    fig5_regulator,
    fig7_solar,
    table2_migration,
    fig8_engine,
    slot_loop,
    batch_loop,
    fig8_fig9_dp,
    matmul_kernels,
    dp_memoization,
    fig10a_mpc,
    fig10b_sizing,
    sec65_dbn,
    decision_loop,
    distill_loop,
    train_loop
);
criterion_main!(benches);
