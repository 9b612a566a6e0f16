//! Property tests of the distilled artifact's two contracts:
//!
//! * **Asset stability** — the JSON form round-trips bytewise and a
//!   reloaded artifact predicts bit-identically to the original, so a
//!   fleet resume (or a pre-built policy asset) can never drift from
//!   the in-process artifact.
//! * **Teacher agreement** — on randomized in-range feature vectors
//!   the student's decisions (rounded heads, thresholded admission
//!   bits) match the teacher's at a rate far above the recorded
//!   holdout floor's complement, pinning distillation quality.
//! * **Exact LRU** — the shared fold table answers and evicts exactly
//!   like a reference model of the last-use-stamp scan it replaced.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use helio_ann::{
    decisions_match, Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable, PredictScratch,
};
use proptest::prelude::*;

/// A scheduler-shaped teacher (13 → 16 → 10 → 10) and its distilled
/// student, built once: distillation is deterministic, so sharing the
/// fixture across property cases changes nothing but wall-clock.
fn fixture() -> &'static (Dbn, DistilledPolicy) {
    static FIX: OnceLock<(Dbn, DistilledPolicy)> = OnceLock::new();
    FIX.get_or_init(|| {
        // Decision-like targets (crisp heads and admission bits, the
        // way the scheduler's teacher behaves) rather than arbitrary
        // continuous values: agreement is a decision-level metric, so
        // a teacher that sits on the rounding boundaries everywhere
        // would make the property vacuous.
        let inputs: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                (0..13)
                    .map(|j| ((i * 13 + j) as f64 * 0.37).sin().abs() * 40.0)
                    .collect()
            })
            .collect();
        // All ten outputs depend on three input directions (two
        // constant-section features, one varying-section feature), the
        // way the scheduler's admissions track a few energy terms —
        // not ten independent boundaries no small tree could match.
        let targets: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| {
                let mut t = vec![f64::from(x[0] > 20.0), f64::from(x[1] > 20.0)];
                t.extend((0..8).map(|j| {
                    let driver = if j % 2 == 0 { x[2] } else { x[10] };
                    f64::from(driver > if j % 2 == 0 { 18.0 } else { 22.0 })
                }));
                t
            })
            .collect();
        let mut cfg = DbnConfig::small(42);
        cfg.bp_epochs = 40;
        let dbn = Dbn::train(&inputs, &targets, &cfg).expect("teacher trains");
        let dcfg = DistillConfig {
            samples: 16384,
            candidates: 32,
            holdout: 1024,
            ..DistillConfig::small(77)
        };
        let policy = DistilledPolicy::distill(&dbn, 10, &[], &dcfg).expect("teacher distils");
        (dbn, policy)
    })
}

/// Maps a unit hypercube point into the teacher's fitted feature box.
fn in_range(dbn: &Dbn, unit: &[f64]) -> Vec<f64> {
    let mins = dbn.input_scaler().mins();
    let maxs = dbn.input_scaler().maxs();
    unit.iter()
        .enumerate()
        .map(|(i, &u)| mins[i] + u * (maxs[i] - mins[i]))
        .collect()
}

#[test]
fn artifact_json_round_trips_bytewise() {
    let (_, policy) = fixture();
    let json = policy.to_json().expect("serialises");
    let reloaded = DistilledPolicy::from_json(&json).expect("reloads");
    assert_eq!(
        json,
        reloaded.to_json().expect("re-serialises"),
        "JSON form must be a fixed point of save/load"
    );
}

#[test]
fn recorded_agreement_clears_the_quality_floor() {
    let (_, policy) = fixture();
    assert!(
        policy.agreement() >= 0.75,
        "holdout agreement {} below the distillation quality floor",
        policy.agreement()
    );
}

/// Reference model of the fold table's recency rule as a last-use
/// stamp per prefix: a lookup of a tracked prefix answers `Some` and
/// restamps it, an untracked one answers `None` and is inserted after
/// a full table drops its smallest stamp (an O(capacity) scan).
struct StampScanModel {
    capacity: usize,
    clock: u64,
    stamps: HashMap<usize, u64>,
}

impl StampScanModel {
    fn lookup(&mut self, prefix: usize) -> bool {
        self.clock += 1;
        if let Some(stamp) = self.stamps.get_mut(&prefix) {
            *stamp = self.clock;
            return true;
        }
        if self.stamps.len() >= self.capacity {
            let victim = self
                .stamps
                .iter()
                .min_by_key(|(_, stamp)| **stamp)
                .map(|(prefix, _)| *prefix);
            if let Some(victim) = victim {
                self.stamps.remove(&victim);
            }
        }
        self.stamps.insert(prefix, self.clock);
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random lookup streams over at most 12 distinct prefixes give
    /// the same `None`/`Some` sequence and the same `len()` from the
    /// table and from the stamp-scan model after every step, at every
    /// capacity from 1 to 8 — so the table evicts exactly the prefix
    /// the scan would have.
    #[test]
    fn fold_table_evicts_exactly_like_the_stamp_scan(
        capacity in 1usize..=8,
        stream in prop::collection::vec(0usize..12, 0..96),
        tails in prop::collection::vec(0.0f64..1.0, 3),
    ) {
        let (dbn, policy) = fixture();
        let table = FoldTable::new(Arc::new(policy.clone()), capacity);
        let mut model = StampScanModel { capacity, clock: 0, stamps: HashMap::new() };
        for (step, &prefix) in stream.iter().enumerate() {
            // The prefix picks the ten constant features; the tail
            // varies per step and must not affect the key.
            let unit: Vec<f64> = (0..13)
                .map(|j| match j {
                    0..=9 => ((prefix * 13 + j) as f64 * 0.37).sin().abs(),
                    _ => tails[(step + j) % 3],
                })
                .collect();
            let x = in_range(dbn, &unit);
            let got = table.lookup(&x).expect("lookup").is_some();
            prop_assert_eq!(got, model.lookup(prefix), "step {step}: prefix {prefix}");
            prop_assert_eq!(table.len(), model.stamps.len(), "step {step}: len");
        }
    }

    /// A reloaded artifact is bit-identical in behaviour: `predict`
    /// returns the same bits before and after a JSON round trip, and
    /// the period-split path (prewalk → fold → predict_folded) lands
    /// on the same cursor and bits as the flat path.
    #[test]
    #[allow(clippy::disallowed_methods)] // the scalar folded path is the contract under test
    fn predict_is_deterministic_across_reloads(
        unit in prop::collection::vec(0.0f64..1.0, 13),
    ) {
        let (dbn, policy) = fixture();
        let x = in_range(dbn, &unit);
        let json = policy.to_json().expect("serialises");
        let reloaded = DistilledPolicy::from_json(&json).expect("reloads");
        let a = policy.predict(&x).expect("original predicts");
        let b = reloaded.predict(&x).expect("reload predicts");
        prop_assert_eq!(&a, &b, "reload drifted");

        let cur_a = policy.prewalk(&x).expect("prewalk");
        let cur_b = reloaded.prewalk(&x).expect("reload prewalk");
        prop_assert_eq!(cur_a, cur_b, "reload walked a different constant path");
        let mut folded = Vec::new();
        let mut out = Vec::new();
        reloaded.fold(cur_b, &x, &mut folded).expect("fold");
        reloaded
            .predict_folded(cur_b, &folded, &x, &mut out)
            .expect("folded predict");
        prop_assert_eq!(&a, &out, "period-split path drifted from the flat path");
    }

    /// Student decisions match the teacher's on batches of randomized
    /// in-range features — the live counterpart of the recorded
    /// holdout agreement.
    #[test]
    fn decisions_agree_with_the_teacher_on_random_features(
        units in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 13), 32),
    ) {
        let (dbn, policy) = fixture();
        let mut scratch = PredictScratch::default();
        let mut teacher_out = Vec::new();
        let mut student_out = Vec::new();
        let mut matches = 0usize;
        for unit in &units {
            let x = in_range(dbn, unit);
            dbn.predict_into(&x, &mut scratch, &mut teacher_out).expect("teacher predicts");
            policy.predict_into(&x, &mut student_out).expect("student predicts");
            if decisions_match(&teacher_out, &student_out) {
                matches += 1;
            }
        }
        let rate = matches as f64 / units.len() as f64;
        prop_assert!(
            rate >= 0.6,
            "decision match rate {rate} over {} random features below threshold",
            units.len()
        );
    }
}
