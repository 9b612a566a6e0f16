//! # helio-bench
//!
//! The experiment harness regenerating every table and figure of the
//! DAC'15 paper. Each `src/bin/*.rs` binary reproduces one artifact
//! and prints the same rows/series the paper reports:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig5` | regulator efficiency curves |
//! | `fig7` | solar power of four individual days |
//! | `table2` | migration efficiencies, model vs test |
//! | `fig8` | DMR of four schedulers × six benchmarks × four days |
//! | `fig9` | two-month DMR and energy utilisation (WAM) |
//! | `fig10a` | DMR & complexity vs prediction length |
//! | `fig10b` | migration efficiency & DMR vs capacitor count |
//! | `overhead` | Section 6.5 algorithm overhead |
//!
//! Run with `cargo run --release -p helio-bench --bin <name>`. The
//! library half holds the shared experiment plumbing; the Criterion
//! benches in `benches/` time the underlying kernels.

pub mod golden;

use std::time::Instant;

use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_solar::{DayArchetype, SolarPanel, SolarTrace, TraceBuilder, WeatherProcess};
use helio_tasks::TaskGraph;
use heliosched::{
    size_capacitors, BatchEngine, BatchScenario, CoreError, DpConfig, NodeConfig, OfflineConfig,
    PeriodPlanner, SimReport,
};
use serde::{Deserialize, Serialize};

/// The paper's experiment grid: 10-minute periods of ten 60 s slots.
/// `periods_per_day` defaults to 144 (a full day); experiments that
/// only need daylight dynamics can pass fewer.
pub fn paper_grid(days: usize, periods_per_day: usize) -> TimeGrid {
    TimeGrid::new(days, periods_per_day, 10, Seconds::new(60.0))
        .expect("paper grid dimensions are valid")
}

/// The four individual test days of Fig. 7/Fig. 8, most to least
/// energetic.
pub fn four_days() -> [DayArchetype; 4] {
    DayArchetype::ALL
}

/// The four-day evaluation trace (Fig. 7's days).
pub fn four_day_trace(periods_per_day: usize, seed: u64) -> SolarTrace {
    TraceBuilder::new(paper_grid(4, periods_per_day), SolarPanel::paper_panel())
        .seed(seed)
        .days(&four_days())
        .build()
}

/// A multi-day weather-process trace (training data and the two-month
/// evaluation of Fig. 9).
pub fn weather_trace(days: usize, periods_per_day: usize, seed: u64) -> SolarTrace {
    TraceBuilder::new(paper_grid(days, periods_per_day), SolarPanel::paper_panel())
        .seed(seed)
        .weather(WeatherProcess::temperate())
        .build()
}

/// Builds a node whose `h` capacitors were sized offline on a training
/// trace (Section 4.1).
///
/// # Errors
///
/// Propagates sizing and configuration failures.
pub fn sized_node(
    graph: &TaskGraph,
    training: &SolarTrace,
    h: usize,
) -> Result<NodeConfig, CoreError> {
    let storage = helio_storage::StorageModelParams::default();
    let pmu = helio_nvp::Pmu::default();
    let sizes = size_capacitors(graph, training, h, &storage, &pmu)?;
    NodeConfig::builder(*training.grid())
        .capacitors(&sizes)
        .storage(storage)
        .build()
        .map(|mut node| {
            node.grid = *training.grid();
            node
        })
}

/// Index of the bank's middle capacitor — the single capacitor the
/// baselines use (they have no sizing stage).
pub fn baseline_capacitor(node: &NodeConfig) -> usize {
    node.capacitors.len() / 2
}

/// The offline-training configuration every experiment binary uses:
/// the given DP resolution and `δ`, with DBN training shrunk under
/// `HELIO_FAST=1`.
pub fn offline_config(dp: DpConfig, delta: f64) -> OfflineConfig {
    let mut offline = OfflineConfig {
        dp,
        delta,
        ..OfflineConfig::default()
    };
    if fast_mode() {
        offline.dbn.bp_epochs = 150;
    }
    offline
}

/// Rebinds a trained/sized node onto an evaluation trace's grid — the
/// train-on-one-trace, evaluate-on-another step of every figure.
pub fn node_for_eval(node_train: &NodeConfig, eval: &SolarTrace) -> NodeConfig {
    NodeConfig {
        grid: *eval.grid(),
        ..node_train.clone()
    }
}

/// DMR comparison row: the four schedulers of Fig. 8.
#[derive(Debug, Clone, Copy)]
pub struct DmrRow {
    /// Inter-task WCMA-based LSA baseline \[3\].
    pub inter: f64,
    /// Intra-task load-matching baseline \[9\].
    pub intra: f64,
    /// The proposed long-term scheduler.
    pub proposed: f64,
    /// The static optimal upper bound.
    pub optimal: f64,
}

/// Runs several planners against one `(node, graph, trace)` as a
/// single lockstep [`BatchEngine`] batch — the sweep primitive the
/// figure binaries build on. Reports come back in planner order and
/// are byte-identical to per-planner [`Engine::run`] calls; DBN-backed
/// planners sharing a network get their inference batched.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run_planner_batch<'a>(
    node: &'a NodeConfig,
    graph: &'a TaskGraph,
    trace: &'a SolarTrace,
    planners: Vec<Box<dyn PeriodPlanner + 'a>>,
) -> Result<Vec<SimReport>, CoreError> {
    let mut engine = BatchEngine::new(node, graph)?;
    for planner in planners {
        engine.push(BatchScenario::new(trace, planner))?;
    }
    // Shard across the worker pool: byte-identical to `run()` at any
    // shard count, so every figure binary gets the cores for free.
    engine.run_parallel()
}

/// Maps `f` over `items` on the worker pool, preserving input order in
/// the output — the sweep primitive of the experiment binaries. Honours
/// `HELIO_THREADS`.
pub fn par_sweep<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    helio_par::par_map(items, f)
}

/// Resolves the worker count that `bench_offline`, `bench_online`,
/// `bench_train` and `bench_faults` record in their JSON output: a
/// `--threads N` argument overrides `HELIO_THREADS` (by
/// setting it, so the whole process — `helio-par` included — agrees),
/// and a conflict between the two is reported on stderr rather than
/// silently ignored. Call once at binary start-up, before any pool
/// work.
pub fn effective_threads() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let mut requested: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--threads" {
            requested = iter.next().cloned();
        } else if let Some(v) = arg.strip_prefix("--threads=") {
            requested = Some(v.to_string());
        }
    }
    if let Some(raw) = requested {
        match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => {
                if let Ok(env_raw) = std::env::var("HELIO_THREADS") {
                    if env_raw.trim() != raw.trim() {
                        eprintln!("warning: --threads {raw} overrides HELIO_THREADS={env_raw}");
                    }
                }
                std::env::set_var("HELIO_THREADS", n.to_string());
            }
            _ => eprintln!("warning: ignoring invalid --threads value `{raw}`"),
        }
    }
    helio_par::configured_threads()
}

/// Runs `f` and returns its result plus the wall-clock milliseconds it
/// took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Writes a machine-readable report under `results/` the way every
/// bench binary does: pretty JSON, trailing newline, a `wrote <path>`
/// line on stdout.
pub fn write_json<T: Serialize>(path: &str, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("report serialises");
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write(path, format!("{json}\n")).expect("write json");
    println!("wrote {path}");
}

/// One timed stage of the offline pipeline (see `bench_offline`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchStage {
    /// Stage label, e.g. `"sizing"`.
    pub name: String,
    /// Wall-clock duration in milliseconds.
    pub wall_ms: f64,
}

/// Machine-readable result of the `bench_offline` binary
/// (`results/BENCH_offline.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchOfflineReport {
    /// Worker threads the parallel stages used
    /// (`HELIO_THREADS` aware).
    pub threads: usize,
    /// Wall-clock per pipeline stage, in execution order.
    pub stages: Vec<BenchStage>,
    /// Subset-simulation cache hits during the optimal plan.
    pub cache_hits: u64,
    /// Subset-simulation cache misses during the optimal plan.
    pub cache_misses: u64,
    /// `hits / (hits + misses)` of the plan's memo cache.
    pub cache_hit_rate: f64,
    /// Serial reference DP wall-clock over cached+parallel DP
    /// wall-clock (same inputs, bitwise-identical outputs).
    pub dp_speedup_vs_serial: f64,
    /// Whether the cached+parallel DP reproduced the serial reference
    /// result exactly (hard failure if ever false).
    pub dp_matches_serial: bool,
}

/// Machine-readable result of the `bench_train` binary
/// (`results/BENCH_train.json`; the pre-refactor run is committed as
/// `results/BENCH_train_baseline.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchTrainReport {
    /// Worker threads configured (training itself is serial; this
    /// records the environment for comparability).
    pub threads: usize,
    /// Training samples in the set.
    pub samples: usize,
    /// Input features per sample.
    pub in_dim: usize,
    /// Target features per sample.
    pub out_dim: usize,
    /// Back-propagation epochs timed.
    pub bp_epochs: usize,
    /// Wall-clock per training stage (`scaler`, `cd1`, `backprop`),
    /// summed over all repetitions.
    pub stages: Vec<BenchStage>,
    /// End-to-end `Dbn::train` wall-clock over all repetitions,
    /// milliseconds.
    pub dbn_train_total_ms: f64,
    /// Repetitions each measurement was summed over.
    pub reps: usize,
    /// `dbn_train_total_ms` of the committed pre-refactor baseline,
    /// when present.
    pub baseline_total_ms: Option<f64>,
    /// `baseline_total_ms / dbn_train_total_ms`, when a baseline is
    /// present.
    pub speedup_vs_baseline: Option<f64>,
}

/// Slot-loop throughput of one scheduling pattern (see `bench_online`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotLoopStat {
    /// Fine-grained pattern (`asap`/`inter`/`intra`).
    pub pattern: String,
    /// Total slots simulated across all repetitions.
    pub slots: u64,
    /// Wall-clock over all repetitions, milliseconds.
    pub wall_ms: f64,
    /// `slots / wall` in slots per second.
    pub slots_per_sec: f64,
}

/// Per-period planner decision cost (see `bench_online`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionStat {
    /// Planner label (`asap`/`inter`/`intra`/`proposed-dbn`/`optimal`).
    pub planner: String,
    /// Total `plan()` calls timed.
    pub decisions: u64,
    /// Wall-clock over all calls, milliseconds.
    pub wall_ms: f64,
    /// Mean microseconds per decision.
    pub us_per_decision: f64,
}

/// Machine-readable result of the `bench_online` binary
/// (`results/BENCH_online.json`; the pre-refactor run is committed as
/// `results/BENCH_online_baseline.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchOnlineReport {
    /// Worker threads configured (the slot loop itself is serial; this
    /// records the environment for comparability).
    pub threads: usize,
    /// Slot-loop throughput per fine-grained pattern (ECG benchmark,
    /// four archetype days).
    pub slot_loop: Vec<SlotLoopStat>,
    /// Aggregate throughput: total slots over total wall-clock.
    pub slots_per_sec_overall: f64,
    /// Per-period decision cost per planner.
    pub planner_decision: Vec<DecisionStat>,
    /// `slots_per_sec_overall` of the committed baseline, when present.
    pub baseline_slots_per_sec: Option<f64>,
    /// `slots_per_sec_overall / baseline`, when a baseline is present.
    pub speedup_vs_baseline: Option<f64>,
}

/// One point of the `bench_faults` robustness sweep: a (planner
/// backend × blackout duration × aging severity) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Planner backend (`inter`, `dbn`, `mpc`).
    pub backend: String,
    /// Midday blackout length in periods (0 = no blackout).
    pub blackout_periods: usize,
    /// Aging severity label (`none`, `moderate`, `severe`).
    pub aging: String,
    /// Long-term DMR of the faulted run.
    pub dmr: f64,
    /// Long-term DMR of the same backend's clean run.
    pub clean_dmr: f64,
    /// `dmr - clean_dmr` in DMR points (robustness cost of the faults).
    pub dmr_degradation: f64,
    /// Periods the (resilient) planner served from its fallback.
    pub fallbacks: usize,
    /// Slots whose harvest a solar fault modified.
    pub faulted_slots: usize,
    /// Sum of all degraded-mode counters.
    pub degraded_total: usize,
    /// Fault-log length of the run.
    pub fault_events: usize,
    /// Periods after the blackout window until the per-period miss
    /// count first returned to the clean run's level (`null` when no
    /// blackout was injected or the run never recovered within the
    /// horizon).
    pub recovery_periods: Option<usize>,
}

/// Machine-readable result of the `bench_faults` binary
/// (`results/ROBUSTNESS.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessReport {
    /// Worker threads the sharded batch runs used
    /// (`--threads`/`HELIO_THREADS` aware).
    pub threads: usize,
    /// Grid description (days × periods × slots).
    pub grid: String,
    /// Flat period the injected blackout starts at.
    pub blackout_start: usize,
    /// DBN-outage window injected into every faulted cell, as
    /// `[start, len]` flat periods.
    pub dbn_outage: [usize; 2],
    /// Wall-clock of the whole sweep (clean + faulted batches),
    /// milliseconds.
    pub wall_ms: f64,
    /// The sweep, ordered backend-major.
    pub sweep: Vec<RobustnessPoint>,
}

/// One check of the `bench_chaos` service-level chaos sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosCheck {
    /// Check label, e.g. `"kill-resume@12"`.
    pub name: String,
    /// Whether the service behaved as contracted.
    pub passed: bool,
    /// What was observed (line counts, divergence, error text).
    pub detail: String,
    /// Wall-clock of the check, milliseconds.
    pub wall_ms: f64,
}

/// Machine-readable result of the `bench_chaos` binary
/// (`results/ROBUSTNESS_fleet.json`): the fleet *service* under chaos
/// — kill/resume, corrupted protocol lines, worker panics, deadlines
/// and a stalling client — complementing `ROBUSTNESS.json`, which
/// perturbs the simulated node instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetChaosReport {
    /// Grid description (days × periods × slots).
    pub grid: String,
    /// Request lines in the chaos session.
    pub requests: usize,
    /// Flat periods the kill/resume checks killed the service at.
    pub kill_points: Vec<usize>,
    /// Wall-clock of the slowest resumed session (recovery latency),
    /// milliseconds.
    pub recovery_ms: f64,
    /// Response lines lost across every kill/resume check (must be 0).
    pub lost_lines: usize,
    /// Response lines duplicated across every kill/resume check (must
    /// be 0).
    pub duplicated_lines: usize,
    /// Every individual check.
    pub checks: Vec<ChaosCheck>,
    /// Whether every check passed (the binary exits nonzero otherwise).
    pub all_passed: bool,
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

/// Reads an environment flag that shrinks experiments for smoke runs
/// (`HELIO_FAST=1`).
pub fn fast_mode() -> bool {
    std::env::var("HELIO_FAST").is_ok_and(|v| v == "1")
}

/// Standard capacitance ladder used when an experiment needs explicit
/// sizes instead of the sizing pipeline.
pub fn standard_sizes() -> Vec<Farads> {
    [1.0, 10.0, 50.0, 100.0].map(Farads::new).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_shape() {
        let g = paper_grid(4, 144);
        assert_eq!(g.total_periods(), 576);
        assert!((g.period_duration().minutes() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn four_day_trace_is_ordered() {
        let t = four_day_trace(48, 1);
        let e: Vec<f64> = (0..4).map(|d| t.day_energy(d).value()).collect();
        assert!(e.windows(2).all(|w| w[0] > w[1]), "{e:?}");
    }

    #[test]
    fn sized_node_has_h_caps() {
        let g = helio_tasks::benchmarks::ecg();
        let t = weather_trace(3, 48, 2);
        let node = sized_node(&g, &t, 3).unwrap();
        assert_eq!(node.capacitor_count(), 3);
        assert!(baseline_capacitor(&node) == 1);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.278), " 27.8%");
    }
}
