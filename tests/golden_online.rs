//! Byte-identity check of the online golden suite: re-runs every
//! golden configuration and compares the serialised `SimReport`
//! against the committed `results/golden_online/*.json` files.
//!
//! The committed files were generated on the pre-refactor engine
//! (`cargo run -p helio-bench --bin golden_online`), so this test —
//! part of the root package, so a plain `cargo test` runs it — pins
//! the refactored engine's behaviour bitwise: the vendored serde
//! formats `f64` with shortest-round-trip precision, so byte equality
//! is value equality.

use std::path::PathBuf;

use helio_bench::golden::{
    golden_reports, golden_suite, killed_and_resumed, render, sharded, GoldenDbn, GoldenRun,
    GOLDEN_DIR,
};
use heliosched::SimReport;

/// Asserts `reports` are the 21 committed golden files byte for byte;
/// `how` names the path that produced them in the failure message.
fn assert_matches_committed(reports: &[(String, SimReport)], how: &str) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_DIR);
    // 6 benchmarks × 3 patterns + optimal + mpc + dbn on ECG.
    assert_eq!(reports.len(), 21, "{how}: golden suite shrank unexpectedly");
    for (name, report) in reports {
        let path = dir.join(format!("{name}.json"));
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        assert_eq!(
            render(report),
            committed,
            "`{name}` diverged from the committed golden ({}) {how}",
            path.display()
        );
    }
}

#[test]
fn reports_match_committed_goldens_bytewise() {
    assert_matches_committed(
        &golden_reports(),
        "on the sequential engine. If the engine's behaviour changed \
         intentionally, regenerate with `cargo run -p helio-bench --bin golden_online`.",
    );
}

/// The batching gate: every golden case run through `BatchEngine` —
/// scenarios advancing in lockstep, DBN inference batched across the
/// batch — must reproduce the committed bytes exactly. This is the
/// batched engine's correctness contract over all 21 golden seeds.
#[test]
fn batch_engine_reproduces_goldens_bytewise() {
    let run = |engine: heliosched::BatchEngine<'_>| engine.run().expect("golden batch run");
    assert_matches_committed(
        &golden_suite(GoldenDbn::Reference, GoldenRun::Batch(&run)),
        "when run through BatchEngine — the batched path must be \
         byte-identical to the sequential engine",
    );
}

/// The sharding gate: every golden case run through
/// `BatchEngine::run_sharded` — scenarios partitioned into contiguous
/// per-worker shards, each worker with its own scratch — must
/// reproduce the committed bytes exactly, for single- and multi-shard
/// partitions. This is the sharded engine's correctness contract over
/// all 21 golden seeds.
#[test]
fn sharded_engine_reproduces_goldens_bytewise() {
    for shards in [1usize, 3] {
        assert_matches_committed(
            &golden_suite(GoldenDbn::Reference, GoldenRun::Batch(&sharded(shards))),
            &format!(
                "when run through BatchEngine::run_sharded with {shards} shards — \
                 the sharded path must be byte-identical to the sequential engine"
            ),
        );
    }
}

/// The checkpoint gate: every golden case killed at a period boundary,
/// its `BatchCheckpoint` JSON-round-tripped (the fleet service's
/// on-disk resume) and finished under a different shard count must
/// reproduce the committed bytes exactly — at the very first boundary,
/// mid-horizon and on the last period of the 96-period grid. This is
/// the crash-safe resume contract over all 21 golden seeds.
#[test]
fn checkpoint_resumed_engine_reproduces_goldens_bytewise() {
    for (kill, shards) in [(1usize, 1usize), (48, 3), (95, 3)] {
        assert_matches_committed(
            &golden_suite(
                GoldenDbn::Reference,
                GoldenRun::Batch(&killed_and_resumed(kill, shards)),
            ),
            &format!(
                "after a kill at period {kill} resumed with {shards} shards — \
                 checkpoint/resume must be byte-identical to the uninterrupted run"
            ),
        );
    }
}

/// The robustness gate: an *empty* fault harness must be invisible —
/// every golden case run through `Engine::run_with_faults` reproduces
/// the committed bytes exactly.
#[test]
fn empty_fault_harness_reproduces_goldens_bytewise() {
    let empty = helio_faults::FaultHarness::empty();
    assert_matches_committed(
        &golden_suite(GoldenDbn::Reference, GoldenRun::Sequential(Some(&empty))),
        "under an empty fault harness — the fault path must be zero-cost \
         and behaviour-neutral when no faults are planned",
    );
}
