//! The distilled-artifact DMR regression gate: replays the 21 golden
//! scenarios with the DBN case running the branch-free distilled
//! artifact — and again with the artifact demoted before period 0, so
//! its compiled `f32` fallback tier serves every decision — and asserts
//! every scenario's overall DMR lands within `GOLDEN_DMR_EPS` of the
//! f64 reference suite.
//!
//! The reference side is `golden_reports()` — `tests/golden_online.rs`
//! already pins those reports byte-for-byte to the committed
//! `results/golden_online/*.json` files, so comparing in-process is
//! equivalent to comparing against the committed fixtures. The
//! distilled side is deliberately *not* byte-gated: the artifact is a
//! linear model tree covered by its recorded teacher-agreement rate,
//! the compiled tier by its tolerance contract, and this harness
//! bounds what their disagreements do to the metric the paper
//! reports — the deadline miss rate.

use std::sync::OnceLock;

use helio_bench::golden::{
    golden_dbn, golden_distilled_policy, golden_dp, golden_grid, golden_node, golden_reports,
    golden_suite, golden_trace, killed_and_resumed, sharded, GoldenDbn, GoldenRun, GOLDEN_DELTA,
    GOLDEN_DMR_EPS,
};
use heliosched::{OptimalPlanner, SimReport};

/// The f64 reference suite, built once for every gate in this file.
fn reference() -> &'static [(String, SimReport)] {
    static CELL: OnceLock<Vec<(String, SimReport)>> = OnceLock::new();
    CELL.get_or_init(golden_reports)
}

/// Runs the golden suite with `ecg_dbn` built as `dbn`, asserts every
/// scenario's DMR within `GOLDEN_DMR_EPS` of the reference and every
/// scenario but `ecg_dbn` byte-identical to it, and returns the
/// `ecg_dbn` report.
fn assert_dmr_within_eps(dbn: GoldenDbn) -> SimReport {
    let reference = reference();
    let mut candidate = golden_suite(dbn, GoldenRun::Sequential(None));
    assert_eq!(reference.len(), 21, "golden suite is 21 scenarios");
    assert_eq!(candidate.len(), reference.len());
    for ((name, want), (got_name, got)) in reference.iter().zip(&candidate) {
        assert_eq!(name, got_name, "scenario order diverged");
        let delta = (got.overall_dmr() - want.overall_dmr()).abs();
        assert!(
            delta <= GOLDEN_DMR_EPS,
            "{name} ({dbn:?}): DMR {} vs reference {} — |Δ| {delta} \
             exceeds epsilon {GOLDEN_DMR_EPS}",
            got.overall_dmr(),
            want.overall_dmr()
        );
        if name != "ecg_dbn" {
            // Everything except the DBN case never touches the
            // distilled planner — those reports must not drift at all.
            assert_eq!(
                serde_json::to_string(got).expect("report serialises"),
                serde_json::to_string(want).expect("report serialises"),
                "{name} diverged but does not use the distilled planner"
            );
        }
    }
    let (name, dbn_report) = candidate.pop().expect("21 scenarios");
    assert_eq!(name, "ecg_dbn");
    assert_eq!(dbn_report.planner, "distilled");
    dbn_report
}

#[test]
fn distilled_dmr_within_epsilon_on_all_golden_scenarios() {
    let report = assert_dmr_within_eps(GoldenDbn::Distilled);
    assert_eq!(
        report.degraded.planner_fallbacks, 0,
        "the artifact served every period"
    );
}

#[test]
fn demoted_distilled_dmr_within_epsilon_on_all_golden_scenarios() {
    // Demoted before period 0, the compiled `f32` fallback tier serves
    // all 96 golden periods.
    let report = assert_dmr_within_eps(GoldenDbn::DistilledDemoted);
    assert_eq!(report.periods.len(), 96);
    assert_eq!(report.degraded.planner_fallbacks, 96);
}

#[test]
fn batched_distilled_is_byte_identical_to_sequential() {
    // The batched distilled decision path — fold table, lane-major
    // gather, multi-lane leaf kernel — must reproduce the sequential
    // per-scenario path byte for byte across all 21 golden scenarios,
    // sharded and after an interrupt/resume (where the resumed batch
    // reads the table the first run warmed).
    let sequential = golden_suite(GoldenDbn::Distilled, GoldenRun::Sequential(None));
    assert_eq!(sequential.len(), 21, "golden suite is 21 scenarios");
    for (label, batched) in [
        (
            "run_sharded(3)",
            golden_suite(GoldenDbn::Distilled, GoldenRun::Batch(&sharded(3))),
        ),
        (
            "kill@17 resume 2 shards",
            golden_suite(
                GoldenDbn::Distilled,
                GoldenRun::Batch(&killed_and_resumed(17, 2)),
            ),
        ),
    ] {
        assert_eq!(batched.len(), sequential.len(), "{label}");
        for ((name, want), (got_name, got)) in sequential.iter().zip(&batched) {
            assert_eq!(name, got_name, "{label}: scenario order diverged");
            assert_eq!(
                serde_json::to_string(got).expect("report serialises"),
                serde_json::to_string(want).expect("report serialises"),
                "{label}: {name} diverged from the sequential distilled run"
            );
        }
    }
}

#[test]
fn golden_artifact_agrees_with_its_teacher() {
    // The recorded holdout agreement is the artifact's coverage
    // contract; a distillation regression shows up here before it
    // shows up as DMR drift.
    let node = golden_node();
    let trace = golden_trace();
    let graph = helio_tasks::benchmarks::ecg();
    let optimal = OptimalPlanner::compute(&node, &graph, &trace, &golden_dp(), GOLDEN_DELTA)
        .expect("golden optimal");
    let dbn = golden_dbn(&optimal);
    let policy = golden_distilled_policy(&dbn);
    assert!(
        policy.agreement() >= 0.9,
        "holdout agreement {} below the 0.9 floor",
        policy.agreement()
    );
    assert_eq!(policy.const_prefix(), golden_grid().slots_per_period());
}
