//! The online golden suite: a fixed set of `Engine::run` configurations
//! whose `SimReport`s are committed to `results/golden_online/` and
//! re-checked byte for byte by `tests/golden_online.rs` (and CI).
//!
//! The suite pins the engine's observable behaviour across refactors:
//! all six benchmarks × the three fixed patterns, plus the
//! planner-driven paths (optimal LUT, MPC, DBN) on ECG — every case on
//! the four archetype days under fixed seeds. The vendored serde
//! serialises `f64` via shortest-round-trip formatting, so identical
//! reports produce identical bytes.

use std::sync::{Arc, OnceLock};

use helio_ann::{CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_faults::FaultHarness;
use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::{
    BatchCheckpoint, BatchEngine, BatchScenario, BatchScratch, DpConfig, Engine, FixedPlanner,
    NodeConfig, OptimalPlanner, Pattern, PeriodPlanner, ProposedPlanner, SimReport, SwitchRule,
};

/// Seed of the golden trace (matches the online planner unit tests).
pub const GOLDEN_SEED: u64 = 11;

/// Pattern-selection threshold `δ` used by the planner-driven cases.
pub const GOLDEN_DELTA: f64 = 0.5;

/// The golden grid: four days of 24 × (10 × 60 s) periods.
pub fn golden_grid() -> TimeGrid {
    TimeGrid::new(4, 24, 10, Seconds::new(60.0)).expect("golden grid dimensions are valid")
}

/// The four archetype days (clear → storm) under the golden seed.
pub fn golden_trace() -> SolarTrace {
    TraceBuilder::new(golden_grid(), SolarPanel::paper_panel())
        .seed(GOLDEN_SEED)
        .days(&DayArchetype::ALL)
        .build()
}

/// A two-capacitor node (small + large) so capacitor switching is
/// exercised by the planner-driven cases.
pub fn golden_node() -> NodeConfig {
    NodeConfig::builder(golden_grid())
        .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
        .build()
        .expect("golden node config is valid")
}

/// DP resolution of the golden optimal/MPC cases (small enough to keep
/// the golden test quick in debug builds).
pub fn golden_dp() -> DpConfig {
    DpConfig {
        voltage_buckets: 6,
        keep_per_level: 1,
    }
}

/// Trains the golden DBN from the optimal planner's recorded samples.
pub fn golden_dbn(optimal: &OptimalPlanner) -> Dbn {
    let mut cfg = DbnConfig::small(GOLDEN_SEED);
    cfg.bp_epochs = 150; // golden suite runs in debug CI; keep it quick
    Dbn::train_set(optimal.samples(), &cfg).expect("golden DBN trains")
}

/// How the golden `ecg_dbn` case builds its planner; the other 20
/// cases never touch a DBN and are the same under every choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenDbn {
    /// The f64 reference network (`proposed-dbn`): the committed
    /// goldens.
    Reference,
    /// The distilled artifact of the reference network, with the
    /// network compiled to `f32` as its fallback tier.
    Distilled,
    /// [`GoldenDbn::Distilled`] demoted before period 0, so the
    /// compiled `f32` fallback tier serves every period.
    DistilledDemoted,
}

/// How the golden cases are run.
#[derive(Clone, Copy)]
pub enum GoldenRun<'r> {
    /// One [`Engine::run_with_faults`] per case. With `None` or an
    /// empty harness the reports are byte-identical to [`Engine::run`].
    Sequential(Option<&'r FaultHarness>),
    /// One lockstep [`BatchEngine`] per benchmark for the three fixed
    /// patterns and one for the three planner-driven ECG cases, each
    /// handed to the runner, which returns the reports in push order.
    Batch(&'r dyn for<'a> Fn(BatchEngine<'a>) -> Vec<SimReport>),
}

/// The fixed-pattern cases run on every benchmark. ASAP gets the
/// small capacitor (it hoards no energy), the planned patterns the
/// large.
const FIXED_CASES: [(Pattern, usize); 3] =
    [(Pattern::Asap, 0), (Pattern::Inter, 1), (Pattern::Intra, 1)];

/// Runs the 21-case golden suite and returns `(case name, report)`
/// pairs in a fixed order: six benchmarks × three fixed patterns, then
/// the planner-driven paths on ECG (optimal LUT replay, MPC on a
/// perfect oracle, and the DBN trained from the optimal samples, built
/// as `dbn` says). Case names double as file stems under
/// `results/golden_online/`.
pub fn golden_suite(dbn: GoldenDbn, run: GoldenRun<'_>) -> Vec<(String, SimReport)> {
    let node = golden_node();
    let trace = golden_trace();
    let run_cases = |graph: &TaskGraph, planners: Vec<Box<dyn PeriodPlanner>>| match run {
        GoldenRun::Sequential(harness) => {
            let engine = Engine::new(&node, graph, &trace).expect("golden engine");
            planners
                .into_iter()
                .map(|mut p| {
                    engine
                        .run_with_faults(p.as_mut(), harness)
                        .expect("golden run")
                })
                .collect::<Vec<_>>()
        }
        GoldenRun::Batch(batch) => {
            let mut engine = BatchEngine::new(&node, graph).expect("golden batch engine");
            for p in planners {
                engine
                    .push(BatchScenario::new(&trace, p))
                    .expect("golden batch scenario");
            }
            batch(engine)
        }
    };
    let mut out = Vec::new();

    for graph in benchmarks::all_six() {
        let planners = FIXED_CASES
            .iter()
            .map(|&(pattern, cap)| {
                Box::new(FixedPlanner::new(pattern, cap)) as Box<dyn PeriodPlanner>
            })
            .collect();
        for ((pattern, _), report) in FIXED_CASES.iter().zip(run_cases(&graph, planners)) {
            out.push((format!("{}_{}", graph.name(), pattern), report));
        }
    }

    let graph = benchmarks::ecg();
    let dp = golden_dp();
    let optimal =
        OptimalPlanner::compute(&node, &graph, &trace, &dp, GOLDEN_DELTA).expect("golden optimal");
    let network = golden_dbn(&optimal);
    let mpc = ProposedPlanner::mpc(
        Box::new(NoisyOracle::perfect()),
        24,
        dp,
        GOLDEN_DELTA,
        SwitchRule::default(),
    );
    let dbn_planner = match dbn {
        GoldenDbn::Reference => {
            ProposedPlanner::from_dbn(network, GOLDEN_DELTA, SwitchRule::default())
        }
        GoldenDbn::Distilled | GoldenDbn::DistilledDemoted => {
            // Distillation is deterministic and, in a debug build,
            // costs several times the rest of the suite: distil once
            // per process.
            static POLICY: OnceLock<Arc<DistilledPolicy>> = OnceLock::new();
            let policy =
                Arc::clone(POLICY.get_or_init(|| Arc::new(golden_distilled_policy(&network))));
            let compiled =
                CompiledDbn::compile(&network, CompiledTier::F32).expect("golden DBN compiles");
            let mut planner = ProposedPlanner::from_distilled(
                policy,
                Arc::new(compiled),
                GOLDEN_DELTA,
                SwitchRule::default(),
            );
            if dbn == GoldenDbn::DistilledDemoted {
                planner.on_contract_violation();
            }
            planner
        }
    };
    let planners: Vec<Box<dyn PeriodPlanner>> =
        vec![Box::new(optimal), Box::new(mpc), Box::new(dbn_planner)];
    for (name, report) in ["ecg_optimal", "ecg_mpc", "ecg_dbn"]
        .into_iter()
        .zip(run_cases(&graph, planners))
    {
        out.push((name.into(), report));
    }
    out
}

/// The committed golden suite: [`golden_suite`] on the f64 reference
/// network, one sequential run per case.
pub fn golden_reports() -> Vec<(String, SimReport)> {
    golden_suite(GoldenDbn::Reference, GoldenRun::Sequential(None))
}

/// Batch runner: [`BatchEngine::run_sharded`] with `shards` workers.
pub fn sharded(shards: usize) -> impl for<'a> Fn(BatchEngine<'a>) -> Vec<SimReport> {
    move |engine| engine.run_sharded(shards).expect("golden sharded run")
}

/// Batch runner: kills the batch at flat period `kill`, JSON-round-trips
/// its checkpoint (exactly what the fleet service's on-disk resume
/// does) and finishes it with `shards` scratches.
pub fn killed_and_resumed(
    kill: usize,
    shards: usize,
) -> impl for<'a> Fn(BatchEngine<'a>) -> Vec<SimReport> {
    move |mut engine| {
        let ckpt = engine.run_until(kill).expect("golden checkpoint");
        let json = serde_json::to_string(&ckpt).expect("checkpoint serialises");
        let ckpt: BatchCheckpoint = serde_json::from_str(&json).expect("checkpoint round-trips");
        let mut scratches: Vec<BatchScratch> = Vec::new();
        scratches.resize_with(shards, BatchScratch::default);
        engine
            .run_from_checkpoint_sharded_with(&ckpt, &mut scratches)
            .expect("golden checkpoint resume")
    }
}

/// Per-scenario DMR epsilon of the distilled regression gate: every
/// case of a [`GoldenDbn::Distilled`] or [`GoldenDbn::DistilledDemoted`]
/// suite must land within this of the reference suite's DMR. Neither
/// path is bit-identical to the f64 network — the artifact is
/// agreement-gated against its teacher and the compiled fallback is
/// covered by the `helio_ann::compiled` tolerance contract — so the
/// gate bounds what their deviations do to the metric the paper
/// reports, the deadline miss rate.
pub const GOLDEN_DMR_EPS: f64 = 0.01;

/// Distillation hyper-parameters of the golden artifact.
pub fn golden_distill_config() -> DistillConfig {
    let mut cfg = DistillConfig::small(GOLDEN_SEED);
    // The recorded trajectory is ~100 vectors against 32k box
    // samples: weight it so the states the scheduler actually visits
    // carry comparable mass in the split selection and leaf fits.
    cfg.extra_weight = 128;
    // 3+3 rather than the default 5+5: the golden decision surface is
    // captured just as well (a depth sweep holds ~0.97 holdout
    // agreement all the way down to 3+3 and only collapses below
    // that), and the 64-leaf model table is ~33 KB — cache-resident on
    // the hot path — while the walk drops to six dependent-load
    // levels.
    cfg.depth_const = 3;
    cfg.depth_vary = 3;
    cfg
}

/// Delegates every decision to a wrapped planner while recording the
/// exact raw feature vector the DBN consumes each period — gathered
/// by the online planner's own [`ProposedPlanner::gather_dbn_input`],
/// so the recorded trajectory distribution is the one the distillation
/// pass must cover by construction, not by transcription.
struct RecordingPlanner<'a> {
    inner: ProposedPlanner,
    samples: &'a mut Vec<Vec<f64>>,
}

impl heliosched::PeriodPlanner for RecordingPlanner<'_> {
    fn name(&self) -> &'static str {
        "recording-dbn"
    }

    fn plan(&mut self, obs: &heliosched::PlannerObservation<'_>) -> heliosched::PlanDecision {
        let mut input = Vec::new();
        ProposedPlanner::gather_dbn_input(obs, &mut input);
        self.samples.push(input);
        self.inner.plan(obs)
    }
}

/// Trajectory samples for the golden distillation pass: replays the
/// golden `ecg_dbn` scenario with the f64 reference planner and
/// records the feature vector it feeds the network every period.
pub fn golden_distill_samples(dbn: &Dbn) -> Vec<Vec<f64>> {
    let node = golden_node();
    let trace = golden_trace();
    let graph = benchmarks::ecg();
    let engine = Engine::new(&node, &graph, &trace).expect("golden engine");
    let mut samples = Vec::new();
    let mut recorder = RecordingPlanner {
        inner: ProposedPlanner::from_dbn(dbn.clone(), GOLDEN_DELTA, SwitchRule::default()),
        samples: &mut samples,
    };
    engine.run(&mut recorder).expect("golden recording run");
    samples
}

/// Distils the golden DBN into the branch-free decision artifact: the
/// run-constant feature prefix (the previous period's slot powers) is
/// the constant tree section, and the golden trajectory's recorded
/// feature vectors are weighted into the fit.
pub fn golden_distilled_policy(dbn: &Dbn) -> DistilledPolicy {
    let spp = golden_grid().slots_per_period().min(dbn.input_dim());
    let samples = golden_distill_samples(dbn);
    DistilledPolicy::distill(dbn, spp, &samples, &golden_distill_config())
        .expect("golden DBN distils")
}

/// Canonical byte rendering of a golden report — the generator writes
/// these bytes, the test compares against them.
pub fn render(report: &SimReport) -> String {
    let json = serde_json::to_string_pretty(report).expect("report serialises");
    format!("{json}\n")
}

/// Canonical byte rendering of a trained DBN's weights — the
/// `golden_train` generator writes these bytes, `tests/golden_train.rs`
/// compares against them. Shortest-round-trip `f64` formatting makes
/// byte equality equivalent to bitwise weight equality.
pub fn render_dbn(dbn: &Dbn) -> String {
    let json = serde_json::to_string_pretty(dbn).expect("dbn serialises");
    format!("{json}\n")
}

/// Repo-relative directory the golden files live in.
pub const GOLDEN_DIR: &str = "results/golden_online";

/// Repo-relative directory the training golden fixture lives in.
pub const GOLDEN_TRAIN_DIR: &str = "results/golden_train";
