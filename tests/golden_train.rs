//! Byte-identity check of the training pipeline: re-trains the
//! fixed-seed golden DBN from the optimal planner's recorded samples
//! and compares the serialised weights against the committed
//! `results/golden_train/dbn_ecg.json`.
//!
//! The committed fixture was generated on the pre-refactor trainer
//! (`cargo run -p helio-bench --bin golden_train`), so this test —
//! part of the root package, so a plain `cargo test` runs it — pins
//! `Dbn::train`'s output bitwise across the scratch-based/SIMD
//! rewrite: the vendored serde formats `f64` with shortest-round-trip
//! precision, so byte equality of the JSON is value equality of every
//! weight, bias, and scaler bound.

use std::path::PathBuf;

use helio_bench::golden::{
    golden_dbn, golden_dp, golden_node, golden_trace, render_dbn, GOLDEN_DELTA, GOLDEN_TRAIN_DIR,
};
use helio_tasks::benchmarks;
use heliosched::OptimalPlanner;

#[test]
fn trained_weights_match_committed_golden_bytewise() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(GOLDEN_TRAIN_DIR)
        .join("dbn_ecg.json");
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden fixture {}: {e}", path.display()));
    let node = golden_node();
    let trace = golden_trace();
    let graph = benchmarks::ecg();
    let optimal = OptimalPlanner::compute(&node, &graph, &trace, &golden_dp(), GOLDEN_DELTA)
        .expect("golden optimal plan");
    let fresh = render_dbn(&golden_dbn(&optimal));
    assert_eq!(
        fresh,
        committed,
        "fixed-seed Dbn::train produced different weights than the \
         committed fixture ({}). Training must stay bit-exact across \
         refactors; if behaviour changed intentionally, regenerate with \
         `cargo run -p helio-bench --bin golden_train`.",
        path.display()
    );
}
