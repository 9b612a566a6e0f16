//! Byte-identity check of the fleet service: replays the committed
//! session `results/golden_fleet/session.jsonl` through
//! `helio_fleet::serve` in memory and compares the full response
//! stream against the committed `expected.jsonl` — then re-derives one
//! of the streamed reports with the sequential engine to anchor the
//! fixture to the engine's own golden contract.

use std::io::Cursor;
use std::path::PathBuf;

use helio_solar::{DayArchetype, SolarPanel, TraceBuilder};
use helio_tasks::benchmarks;
use heliosched::{Engine, FixedPlanner, Pattern};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results/golden_fleet")
        .join(name)
}

fn replay_session() -> (helio_fleet::FleetService, String) {
    let session = std::fs::read_to_string(fixture("session.jsonl")).expect("session fixture");
    let mut out: Vec<u8> = Vec::new();
    let service = helio_fleet::serve(Cursor::new(session), &mut out).expect("session serves");
    (service, String::from_utf8(out).expect("utf8 output"))
}

/// The fleet smoke contract: one long-lived session, two consecutive
/// batch requests, streamed reports byte-identical to the committed
/// fixture.
#[test]
fn fleet_session_reproduces_committed_bytes() {
    let (service, out) = replay_session();
    let expected = std::fs::read_to_string(fixture("expected.jsonl")).expect("expected fixture");
    assert_eq!(
        out, expected,
        "fleet session output diverged from results/golden_fleet/expected.jsonl — \
         if the engine's behaviour changed intentionally, regenerate with \
         `cargo run -p helio-fleet < results/golden_fleet/session.jsonl`"
    );
    assert_eq!(service.requests_served(), 2, "both requests must be served");
    assert_eq!(service.scenarios_served(), 6);
    assert_eq!(service.workers(), 2, "config pins two workers");
}

/// Anchors the fixture to the engine: the fleet's `id=1, index=2`
/// response (ASAP on seed 5) must embed exactly the report a direct
/// sequential `Engine::run` produces.
#[test]
fn fleet_report_matches_sequential_engine() {
    let (_, out) = replay_session();
    let line = out
        .lines()
        .find(|l| l.starts_with("{\"id\":1,\"index\":2,"))
        .expect("response line for request 1, scenario 2");

    // Rebuild scenario 2 of request 1 by hand: the session config is a
    // 1-day 24x10x60s grid on [2 F, 15 F] ECG, and the scenario is
    // {"seed": 5, "planner": "asap"} (day defaults to Clear, capacitor
    // to 0).
    let grid =
        helio_common::time::TimeGrid::new(1, 24, 10, helio_common::units::Seconds::new(60.0))
            .expect("grid");
    let node = heliosched::NodeConfig::builder(grid)
        .capacitors(&[
            helio_common::units::Farads::new(2.0),
            helio_common::units::Farads::new(15.0),
        ])
        .build()
        .expect("node");
    let graph = benchmarks::ecg();
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(5)
        .days(&[DayArchetype::Clear])
        .build();
    let report = Engine::new(&node, &graph, &trace)
        .expect("engine")
        .run(&mut FixedPlanner::new(Pattern::Asap, 0))
        .expect("run");
    let expected = format!(
        "{{\"id\":1,\"index\":2,\"report\":{}}}",
        serde_json::to_string(&report).expect("report serialises")
    );
    assert_eq!(
        line, expected,
        "fleet-streamed report diverged from Engine::run"
    );
}

/// The compiled planner kinds through the full service: one session
/// training a quick DBN, then `dbn`, `compiled-dbn` and
/// `compiled-dbn-i8` scenarios on the same seed. The compiled rows
/// must serve (artifacts compiled once at startup, shared via `Arc`)
/// and land within the tolerance-contract neighbourhood of the f64
/// reference scenario's DMR.
#[test]
fn fleet_serves_compiled_planner_kinds() {
    let session = concat!(
        "{\"grid\":{\"days\":1,\"periods\":24,\"slots\":10,\"slot_seconds\":60.0},",
        "\"capacitors_farads\":[2.0,15.0],\"benchmark\":\"ecg\",\"delta\":0.5,",
        "\"dp\":{\"voltage_buckets\":6,\"keep_per_level\":1},",
        "\"dbn\":{\"seed\":11,\"bp_epochs\":50},\"threads\":2}\n",
        "{\"id\":1,\"scenarios\":[{\"seed\":4,\"planner\":\"dbn\"},",
        "{\"seed\":4,\"planner\":\"compiled-dbn\"},",
        "{\"seed\":4,\"planner\":\"compiled-dbn-i8\",\"resilient\":true}]}\n",
    );
    let mut out: Vec<u8> = Vec::new();
    let service = helio_fleet::serve(Cursor::new(session), &mut out).expect("session serves");
    assert_eq!(service.scenarios_served(), 3);
    let out = String::from_utf8(out).expect("utf8 output");
    let dmr_of = |index: usize| -> f64 {
        let line = out
            .lines()
            .find(|l| l.starts_with(&format!("{{\"id\":1,\"index\":{index},")))
            .unwrap_or_else(|| panic!("no response for scenario {index}: {out}"));
        let v = serde_json::parse_value(line).expect("response parses");
        let num = |p: &serde_json::Value, name: &str| -> f64 {
            match p.field(name).expect(name) {
                serde_json::Value::Num(raw) => raw.parse().expect("numeric field"),
                other => panic!("field {name} is not a number: {other:?}"),
            }
        };
        let periods = v
            .field("report")
            .and_then(|r| r.field("periods"))
            .and_then(serde_json::Value::as_array)
            .expect("periods array");
        let misses: f64 = periods.iter().map(|p| num(p, "misses")).sum();
        let tasks: f64 = periods.iter().map(|p| num(p, "tasks")).sum();
        misses / tasks
    };
    let reference = dmr_of(0);
    for index in [1, 2] {
        assert!(
            (dmr_of(index) - reference).abs() < 0.05,
            "scenario {index} drifted from the reference DMR"
        );
    }
}
