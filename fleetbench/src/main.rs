//! `fleetbench` — one benchmark run.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload independent --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root (the correctness gate replays
//! `results/golden_fleet/`). Progress and remarks go to stderr; the
//! last stdout line is the result object. A failed check prints no
//! numbers and exits with status 1.
//!
//! The correctness gate runs first, in a child process of this binary
//! (`--gate-only`), so the measured process's heap — and with it
//! `peak_rss_mb` — holds one offline phase and the service it serves,
//! not the gate's second service and replay state.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use fleetbench::{gate, measure, Options, Workload};

/// Parses the flags; the `bool` is `--gate-only`.
fn parse_args() -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut gate_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--gate-only" {
            gate_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let opts = Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: workload.full(),
        golden_dir: PathBuf::from("results/golden_fleet"),
    };
    Ok((opts, gate_only))
}

/// Runs the correctness gate in a child process of this binary and
/// waits for it.
fn gate_in_child() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let status = Command::new(exe)
        .args(std::env::args().skip(1))
        .arg("--gate-only")
        .status()
        .map_err(|e| format!("starting the gate: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("the correctness gate failed ({status})"))
    }
}

fn main() -> ExitCode {
    let (opts, gate_only) = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "fleetbench: {e}\nusage: fleetbench --workload \
                 <independent|colocated|lookahead> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // One thread for the whole process: the `helio-par` pool, on which
    // the service's shards and the long-term DP fan out, runs its work
    // in turn (serial and parallel runs are byte-identical). On a
    // shared two-vCPU host, a two-thread pool made `colocated`'s p90
    // spread up to a third of its median across seeds, and a one-worker
    // `lookahead` run spawned scoped threads for every DP call, spent
    // half its CPU time in the kernel and doubled its spread.
    std::env::set_var("HELIO_THREADS", "1");
    if gate_only {
        return match gate(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fleetbench: check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match gate_in_child().and_then(|()| measure(&opts)) {
        Ok(outcome) => {
            for note in &outcome.notes {
                eprintln!("fleetbench: {note}");
            }
            for m in &outcome.metrics {
                eprintln!("fleetbench: {:<40} {:>14.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("fleetbench: check failed: {e}");
            println!("{{\"correct\":false,\"attempted\":0,\"failed\":0,\"metrics\":{{}}}}");
            ExitCode::FAILURE
        }
    }
}
