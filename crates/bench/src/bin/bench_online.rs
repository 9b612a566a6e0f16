//! Times the *online* hot path and emits the machine-readable
//! `results/BENCH_online.json` — the counterpart of `bench_offline`.
//!
//! Two measurements:
//!
//! * **Slot-loop throughput** — full `Engine::run` sweeps (ECG, four
//!   archetype days, golden node) per fine-grained pattern, reported as
//!   slots per second. This is the paper's simulation inner loop.
//! * **Per-period decision cost** — `PeriodPlanner::plan` latency per
//!   planner (the three fixed patterns, the optimal LUT replay, the
//!   trained DBN, and the distilled branch-free artifact), the
//!   quantity the paper's Section 6.5 overhead table models on the
//!   93.5 kHz node.
//!
//! The throughput speedup is reported against the committed
//! `results/BENCH_online_baseline.json`, recorded once on the
//! pre-refactor engine; the binary only reads it. `HELIO_FAST=1`
//! shrinks repetitions for CI smoke runs.

use std::hint::black_box;

use helio_ann::{CompiledDbn, CompiledTier};
use helio_bench::golden::{
    golden_dbn, golden_distilled_policy, golden_dp, golden_node, golden_trace, GOLDEN_DELTA,
};
use helio_bench::{
    effective_threads, fast_mode, timed, BenchOnlineReport, DecisionStat, SlotLoopStat,
};
use helio_storage::CapacitorBank;
use helio_tasks::benchmarks;
use heliosched::{
    Engine, FixedPlanner, OptimalPlanner, Pattern, PeriodPlanner, PlannerObservation,
    ProposedPlanner, SwitchRule,
};

const BASELINE_PATH: &str = "results/BENCH_online_baseline.json";
const REPORT_PATH: &str = "results/BENCH_online.json";

fn main() {
    let threads = effective_threads();
    let (loop_reps, decision_reps) = if fast_mode() { (10, 5) } else { (300, 100) };

    let node = golden_node();
    let trace = golden_trace();
    let graph = benchmarks::ecg();
    let engine = Engine::new(&node, &graph, &trace).expect("bench engine");
    let grid = &node.grid;
    let slots_per_run = (grid.total_periods() * grid.slots_per_period()) as u64;

    println!(
        "# online hot-path timings (threads = {}, {} slots/run × {loop_reps} reps)",
        threads, slots_per_run
    );

    // --- Slot-loop throughput per pattern ------------------------------
    let mut slot_loop = Vec::new();
    let mut total_slots = 0u64;
    let mut total_ms = 0.0f64;
    for (pattern, cap) in [
        (Pattern::Asap, 0usize),
        (Pattern::Inter, 1),
        (Pattern::Intra, 1),
    ] {
        let (_, wall_ms) = timed(|| {
            for _ in 0..loop_reps {
                let report = engine
                    .run(&mut FixedPlanner::new(pattern, cap))
                    .expect("bench run");
                black_box(report);
            }
        });
        let slots = slots_per_run * loop_reps as u64;
        let slots_per_sec = slots as f64 / (wall_ms / 1e3);
        println!("slot loop {pattern:>5}  {wall_ms:9.1} ms   {slots_per_sec:12.0} slots/s");
        total_slots += slots;
        total_ms += wall_ms;
        slot_loop.push(SlotLoopStat {
            pattern: pattern.to_string(),
            slots,
            wall_ms,
            slots_per_sec,
        });
    }
    let slots_per_sec_overall = total_slots as f64 / (total_ms / 1e3);
    println!("slot loop all    {total_ms:9.1} ms   {slots_per_sec_overall:12.0} slots/s");

    // --- Per-period planner decision cost ------------------------------
    let dp = golden_dp();
    let optimal = OptimalPlanner::compute(&node, &graph, &trace, &dp, GOLDEN_DELTA)
        .expect("optimal plan for decision bench");
    let dbn = std::sync::Arc::new(golden_dbn(&optimal));
    let mut planners: Vec<(&str, Box<dyn PeriodPlanner>)> = vec![
        ("asap", Box::new(FixedPlanner::new(Pattern::Asap, 0))),
        ("inter", Box::new(FixedPlanner::new(Pattern::Inter, 1))),
        ("intra", Box::new(FixedPlanner::new(Pattern::Intra, 1))),
        ("optimal", Box::new(optimal)),
        (
            "proposed-dbn",
            Box::new(ProposedPlanner::from_shared_dbn(
                std::sync::Arc::clone(&dbn),
                GOLDEN_DELTA,
                SwitchRule::default(),
            )),
        ),
        (
            "distilled",
            Box::new(ProposedPlanner::from_distilled(
                std::sync::Arc::new(golden_distilled_policy(&dbn)),
                std::sync::Arc::new(
                    CompiledDbn::compile(&dbn, CompiledTier::F32).expect("golden DBN compiles"),
                ),
                GOLDEN_DELTA,
                SwitchRule::default(),
            )),
        ),
    ];
    let bank = CapacitorBank::new(&node.capacitors, &node.storage).expect("bench bank");
    let mut planner_decision = Vec::new();
    for (label, planner) in &mut planners {
        let (_, wall_ms) = timed(|| {
            for _ in 0..decision_reps {
                for period in grid.periods() {
                    let obs = PlannerObservation {
                        grid,
                        period,
                        graph: &graph,
                        trace: &trace,
                        bank: &bank,
                        accumulated_dmr: 0.25,
                        storage: &node.storage,
                        pmu: &node.pmu,
                    };
                    black_box(planner.plan(&obs));
                }
            }
        });
        let decisions = (grid.total_periods() * decision_reps) as u64;
        let us_per_decision = wall_ms * 1e3 / decisions as f64;
        println!("decision {label:>12}  {wall_ms:9.1} ms   {us_per_decision:9.3} us/decision");
        planner_decision.push(DecisionStat {
            planner: (*label).to_string(),
            decisions,
            wall_ms,
            us_per_decision,
        });
    }

    // --- Baseline comparison -------------------------------------------
    let (baseline_slots_per_sec, speedup_vs_baseline) = match std::fs::read_to_string(BASELINE_PATH)
        .ok()
        .and_then(|s| serde_json::from_str::<BenchOnlineReport>(&s).ok())
    {
        Some(base) => {
            let speedup = slots_per_sec_overall / base.slots_per_sec_overall;
            println!(
                "speedup vs baseline ({:.0} slots/s): {speedup:.2}x",
                base.slots_per_sec_overall
            );
            (Some(base.slots_per_sec_overall), Some(speedup))
        }
        None => {
            println!("no baseline at {BASELINE_PATH}; skipping speedup");
            (None, None)
        }
    };

    let report = BenchOnlineReport {
        threads,
        slot_loop,
        slots_per_sec_overall,
        planner_decision,
        baseline_slots_per_sec,
        speedup_vs_baseline,
    };
    println!();
    helio_bench::write_json(REPORT_PATH, &report);
}
