//! The benchmark's self-test: at a tiny size every workload passes the
//! correctness gate, emits every metric `BENCHMARK.json` names with
//! that file's unit, and repeats its counts exactly for one seed.

use std::collections::BTreeMap;
use std::path::PathBuf;

use fleetbench::{run, Metric, Options, Workload};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn options(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 5,
        seconds: 0.0,
        trace,
        size: workload.tiny(),
        golden_dir: root().join("results/golden_fleet"),
    }
}

/// `name -> unit` for one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
    let serde_json::Value::Arr(items) = json.field(list).expect("metric list") else {
        panic!("`{list}` is not an array");
    };
    items
        .iter()
        .map(|m| {
            let get = |k: &str| match m.field(k).expect("metric key") {
                serde_json::Value::Str(s) => s.clone(),
                other => panic!("`{k}` is not a string: {other:?}"),
            };
            (get("name"), get("unit"))
        })
        .collect()
}

fn emitted(metrics: &[Metric]) -> BTreeMap<String, String> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

/// Counts and byte sizes: the metrics that must repeat exactly.
fn counts(metrics: &[Metric]) -> Vec<(String, f64)> {
    metrics
        .iter()
        .filter(|m| matches!(m.unit, "count" | "bytes"))
        .map(|m| (m.name.clone(), m.value))
        .collect()
}

#[test]
fn every_workload_gates_emits_and_repeats() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in Workload::ALL {
        let untraced = run(&options(w, false)).expect("untraced run passes the gate");
        assert_eq!(untraced.failed, 0, "{}", w.name());
        assert!(untraced.attempted > 0, "{}", w.name());
        assert_eq!(emitted(&untraced.metrics), end_to_end, "{}", w.name());
        let again = run(&options(w, false)).expect("untraced rerun");
        let dmr =
            |o: &fleetbench::Outcome| o.metrics.iter().find(|m| m.name == "dmr").map(|m| m.value);
        assert_eq!(
            dmr(&untraced),
            dmr(&again),
            "{}: dmr is a function of the seed",
            w.name()
        );

        let traced = run(&options(w, true)).expect("traced run passes the gate");
        assert_eq!(traced.failed, 0, "{}", w.name());
        assert_eq!(emitted(&traced.metrics), per_layer, "{}", w.name());
        assert!(
            traced.notes.iter().any(|n| n.starts_with("accounting")),
            "{}: the accounting check reports its verdict",
            w.name()
        );
        let again = run(&options(w, true)).expect("traced rerun");
        assert_eq!(
            counts(&traced.metrics),
            counts(&again.metrics),
            "{}",
            w.name()
        );
        for m in untraced.metrics.iter().chain(&traced.metrics) {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
    }
}
