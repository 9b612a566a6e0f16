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
