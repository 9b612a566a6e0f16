//! The fleet-simulation service: a long-lived process that accepts
//! JSON scenario-batch requests and streams back one [`SimReport`]
//! per scenario, sharding each batch across the `helio-par` worker
//! pool.
//!
//! ## Protocol
//!
//! Line-delimited JSON over any `BufRead`/`Write` pair (stdin/stdout
//! by default, one TCP connection in `--listen` mode):
//!
//! 1. The **first** line is the fleet configuration — node, grid, task
//!    benchmark, planner hyper-parameters, optional DBN training spec,
//!    optional worker count. Everything derivable once is derived
//!    once: the [`PlanContext`], the trained DBN, the per-worker
//!    [`BatchScratch`]es.
//! 2. Every following line is a request: `{"id": N, "scenarios":
//!    [...]}`. Scenarios within a request run as one sharded lockstep
//!    batch.
//! 3. The service answers each request with one line per scenario, in
//!    scenario order — `{"id": N, "index": I, "report": {...}}` — and
//!    keeps the connection open for the next request. A malformed
//!    request line produces a single `{"error": "..."}` (or
//!    `{"id": N, "error": "..."}`) line and the service keeps serving.
//!
//! Output lines are deterministic functions of the input (reports are
//! byte-identical to `Engine::run_with_faults`), so a recorded session
//! can be replayed and diffed bytewise — the CI smoke test does
//! exactly that. Telemetry (timings, worker counts) never goes to the
//! protocol stream.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::panic))]

use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use helio_ann::{
    CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy, FoldTable,
};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_faults::{FaultHarness, FaultPlan, ServiceFaultPlan};
use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::{
    BatchCheckpoint, BatchEngine, BatchRunState, BatchScenario, BatchScratch, CoreError, DpConfig,
    FixedPlanner, NodeConfig, OptimalPlanner, Pattern, PeriodPlanner, PlanContext, PlanDecision,
    PlannerObservation, ProposedPlanner, ResilientPlanner, SimReport, SwitchRule,
};
use serde::{Deserialize, Serialize, Value};

/// Anything that can go wrong while configuring or serving the fleet.
#[derive(Debug)]
pub enum FleetError {
    /// A protocol line failed to parse or validate.
    Protocol(String),
    /// The fleet configuration is unusable.
    Config(String),
    /// The simulation engine rejected a scenario.
    Engine(String),
    /// The transport failed (broken pipe, socket error).
    Io(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Protocol(m) => write!(f, "protocol error: {m}"),
            FleetError::Config(m) => write!(f, "config error: {m}"),
            FleetError::Engine(m) => write!(f, "engine error: {m}"),
            FleetError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CoreError> for FleetError {
    fn from(e: CoreError) -> Self {
        FleetError::Engine(e.to_string())
    }
}

impl From<std::io::Error> for FleetError {
    fn from(e: std::io::Error) -> Self {
        FleetError::Io(e.to_string())
    }
}

/// Service-level knobs for [`serve_with`]: request caps, wall-clock
/// deadlines, crash-safe checkpointing, graceful shutdown and the
/// chaos harness. The default is exactly the legacy [`serve`]
/// behaviour.
#[derive(Debug, Default)]
pub struct ServeOptions {
    /// Reject (with an inline `{"id":N,"error":…}` line) any request
    /// carrying more scenarios than this.
    pub max_batch: Option<usize>,
    /// Reject (with an inline error line) any protocol line longer
    /// than this many bytes; the oversized remainder is drained so the
    /// session keeps its line framing.
    pub max_line_bytes: Option<usize>,
    /// Per-request wall-clock deadline. An expired request answers
    /// with a single `{"id":N,"error":"deadline"}` line instead of its
    /// reports and the session moves on.
    pub deadline_ms: Option<u64>,
    /// Persist session progress here (`session.json` + mid-request
    /// `inflight.json`). A restarted service pointed at the same
    /// directory skips already-answered lines and resumes the
    /// interrupted request from its last period-boundary checkpoint.
    pub checkpoint_dir: Option<PathBuf>,
    /// Periods between mid-request checkpoints / deadline checks;
    /// defaults to one day's worth of periods when any of the
    /// segmenting features (checkpointing, deadlines, chaos kill,
    /// shutdown flag) is active.
    pub checkpoint_every: Option<usize>,
    /// Chaos injection: [`serve_with`] honours the plan's
    /// [`kill_point`](ServiceFaultPlan::kill_point) by checkpointing
    /// and returning [`SessionOutcome::ChaosKill`] at that period
    /// boundary, as if the process had lost power. The other fields
    /// drive `bench_chaos` (writer stalls, line corruption).
    pub chaos: ServiceFaultPlan,
    /// Cooperative shutdown flag, typically raised by a SIGTERM/SIGINT
    /// handler: the service finishes the segment in flight, persists a
    /// final checkpoint and returns [`SessionOutcome::Shutdown`].
    pub shutdown: Option<Arc<AtomicBool>>,
}

/// Why [`serve_with`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The peer closed the stream; every request was answered.
    Eof,
    /// The shutdown flag was raised; progress is checkpointed.
    Shutdown,
    /// The chaos plan killed the service mid-request, after its
    /// checkpoint was persisted — a restart with the same checkpoint
    /// directory resumes from `period`.
    ChaosKill {
        /// 1-based ordinal of the request line being simulated.
        request: u64,
        /// First period the resumed run will execute.
        period: usize,
    },
}

/// What [`serve_with`] hands back: the service (for its telemetry
/// counters) plus why the session ended.
pub struct SessionSummary {
    /// The service, with its telemetry counters.
    pub service: FleetService,
    /// Why the session ended.
    pub outcome: SessionOutcome,
}

/// Result of [`read_raw_line`].
enum RawLine {
    /// Stream ended with no pending bytes.
    Eof,
    /// The line exceeded the byte cap; its remainder was drained.
    TooLong,
    /// A complete line (terminator stripped) is in the buffer.
    Line,
}

/// Reads one `\n`-terminated line as raw bytes — no UTF-8 requirement,
/// so a client splicing garbage into the stream degrades one request
/// instead of killing the session. Caps the buffered length at `max`
/// while still consuming the oversized remainder, keeping the line
/// framing intact for the next read. Strips a trailing `\r`.
fn read_raw_line<R: BufRead>(
    input: &mut R,
    max: Option<usize>,
    buf: &mut Vec<u8>,
) -> std::io::Result<RawLine> {
    buf.clear();
    let mut overflowed = false;
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if overflowed {
                RawLine::TooLong
            } else if buf.is_empty() {
                RawLine::Eof
            } else {
                strip_cr(buf);
                RawLine::Line
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !overflowed {
            buf.extend_from_slice(&chunk[..take]);
            if let Some(cap) = max {
                if buf.len() > cap {
                    buf.truncate(cap);
                    overflowed = true;
                }
            }
        }
        let consumed = newline.map_or(take, |n| n + 1);
        input.consume(consumed);
        if newline.is_some() {
            return Ok(if overflowed {
                RawLine::TooLong
            } else {
                strip_cr(buf);
                RawLine::Line
            });
        }
    }
}

fn strip_cr(buf: &mut Vec<u8>) {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
}

/// The request the service was simulating when it last checkpointed:
/// enough to resume without replaying the finished periods.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct InflightRecord {
    /// 1-based ordinal of the request line within the session.
    ordinal: u64,
    /// The raw request line, echoed to detect a drifted session.
    line: String,
    /// The mid-request engine checkpoint.
    checkpoint: BatchCheckpoint,
}

/// Crash-safe session persistence: `session.json` records how many
/// request lines are fully answered, `inflight.json` the mid-request
/// checkpoint. Both go through a temp file + rename so a crash
/// mid-write never corrupts the previous state.
struct SessionStore {
    dir: PathBuf,
}

impl SessionStore {
    fn new(dir: &Path) -> Result<Self, FleetError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| FleetError::Config(format!("checkpoint dir {}: {e}", dir.display())))?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    fn session_path(&self) -> PathBuf {
        self.dir.join("session.json")
    }

    fn inflight_path(&self) -> PathBuf {
        self.dir.join("inflight.json")
    }

    fn write_atomic(&self, path: &Path, contents: &str) -> Result<(), FleetError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, contents)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Count of fully answered request lines; zero when the state is
    /// absent or unreadable (a torn write loses at most one line of
    /// progress, never the session).
    fn load_completed(&self) -> u64 {
        let Ok(text) = std::fs::read_to_string(self.session_path()) else {
            return 0;
        };
        serde_json::parse_value(&text)
            .ok()
            .and_then(|v| v.field("completed").ok().map(u64::deserialize_json))
            .and_then(Result::ok)
            .unwrap_or(0)
    }

    fn save_completed(&self, completed: u64) -> Result<(), FleetError> {
        self.write_atomic(
            &self.session_path(),
            &format!("{{\"completed\":{completed}}}"),
        )
    }

    fn load_inflight(&self) -> Option<InflightRecord> {
        let text = std::fs::read_to_string(self.inflight_path()).ok()?;
        serde_json::from_str(&text).ok()
    }

    fn save_inflight(&self, rec: &InflightRecord) -> Result<(), FleetError> {
        let json = serde_json::to_string(rec)
            .map_err(|e| FleetError::Engine(format!("checkpoint serialisation failed: {e}")))?;
        self.write_atomic(&self.inflight_path(), &json)
    }

    fn clear_inflight(&self) {
        let _ = std::fs::remove_file(self.inflight_path());
    }
}

fn opt<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, serde::DeError> {
    match v.field(name) {
        Ok(Value::Null) | Err(_) => Ok(None),
        Ok(inner) => Ok(Some(T::deserialize_json(inner)?)),
    }
}

/// Grid dimensions of every scenario the service simulates.
#[derive(Debug, Clone, Copy)]
pub struct GridSpec {
    /// Days per scenario.
    pub days: usize,
    /// Periods per day.
    pub periods: usize,
    /// Slots per period.
    pub slots: usize,
    /// Slot duration in seconds.
    pub slot_seconds: f64,
}

impl Deserialize for GridSpec {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            days: usize::deserialize_json(v.field("days")?)?,
            periods: usize::deserialize_json(v.field("periods")?)?,
            slots: usize::deserialize_json(v.field("slots")?)?,
            slot_seconds: opt(v, "slot_seconds")?.unwrap_or(60.0),
        })
    }
}

/// How (and whether) to train the shared DBN at startup: the optimal
/// planner generates training samples on a dedicated trace, exactly
/// like the offline phase of the paper.
#[derive(Debug, Clone)]
pub struct DbnSpec {
    /// Seed of the training trace.
    pub seed: u64,
    /// Training-trace day archetypes; cycled to the grid's day count
    /// when shorter. Empty means the four standard archetypes.
    pub days: Vec<DayArchetype>,
    /// Backprop epochs (the paper-scale default is slow; fleet
    /// configs typically lower it).
    pub bp_epochs: usize,
}

impl Deserialize for DbnSpec {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            seed: opt(v, "seed")?.unwrap_or(11),
            days: opt(v, "days")?.unwrap_or_default(),
            bp_epochs: opt(v, "bp_epochs")?.unwrap_or(150),
        })
    }
}

/// How to distil the shared DBN into the branch-free decision artifact
/// at startup (requires `dbn`). The artifact is pushed through its
/// JSON serialisation and reloaded before use, so every session
/// exercises the exact load path a pre-built asset file would take —
/// what the service serves is what a deployed artifact would decide.
#[derive(Debug, Clone)]
pub struct DistillSpec {
    /// Seed of the distillation sampling streams.
    pub seed: u64,
    /// Tree levels splitting on the run-constant feature prefix.
    pub depth_const: usize,
    /// Tree levels splitting on the per-decision features.
    pub depth_vary: usize,
    /// Box samples drawn over the teacher's fitted input range.
    pub samples: usize,
    /// Held-out samples for the recorded teacher-agreement rate.
    pub holdout: usize,
}

impl Deserialize for DistillSpec {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        let defaults = DistillConfig::small(0);
        Ok(Self {
            seed: opt(v, "seed")?.unwrap_or(11),
            depth_const: opt(v, "depth_const")?.unwrap_or(defaults.depth_const),
            depth_vary: opt(v, "depth_vary")?.unwrap_or(defaults.depth_vary),
            samples: opt(v, "samples")?.unwrap_or(defaults.samples),
            holdout: opt(v, "holdout")?.unwrap_or(defaults.holdout),
        })
    }
}

/// First protocol line: everything the service derives once and reuses
/// for every request.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Grid dimensions.
    pub grid: GridSpec,
    /// Capacitor bank, in farads.
    pub capacitors_farads: Vec<f64>,
    /// Task benchmark: `random1..random3`, `wam`, `ecg`, `shm`.
    pub benchmark: String,
    /// Pattern-selection threshold `δ` for planner-driven scenarios.
    pub delta: f64,
    /// DP resolution for `optimal` / `mpc` scenarios.
    pub dp: DpConfig,
    /// Train a shared DBN at startup (required by `dbn` scenarios).
    pub dbn: Option<DbnSpec>,
    /// Distil the shared DBN into the branch-free artifact at startup
    /// (required by `distilled` scenarios; itself requires `dbn`).
    pub distill: Option<DistillSpec>,
    /// Worker count; defaults to the configured `helio-par` pool.
    pub threads: Option<usize>,
}

impl Deserialize for FleetConfig {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        let dp = match v.field("dp") {
            Ok(d) if !matches!(d, Value::Null) => DpConfig {
                voltage_buckets: opt(d, "voltage_buckets")?.unwrap_or(6),
                keep_per_level: opt(d, "keep_per_level")?.unwrap_or(1),
            },
            _ => DpConfig {
                voltage_buckets: 6,
                keep_per_level: 1,
            },
        };
        Ok(Self {
            grid: GridSpec::deserialize_json(v.field("grid")?)?,
            capacitors_farads: Vec::deserialize_json(v.field("capacitors_farads")?)?,
            benchmark: opt(v, "benchmark")?.unwrap_or_else(|| "ecg".to_string()),
            delta: opt(v, "delta")?.unwrap_or(0.5),
            dp,
            dbn: opt(v, "dbn")?,
            distill: opt(v, "distill")?,
            threads: opt(v, "threads")?,
        })
    }
}

/// One scenario of a request.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Trace seed.
    pub seed: u64,
    /// Day archetypes; cycled to the grid's day count when shorter,
    /// empty means the four standard archetypes.
    pub days: Vec<DayArchetype>,
    /// Planner kind: `asap`, `inter`, `intra`, `dbn`, `compiled-dbn`,
    /// `compiled-dbn-i8`, `distilled`, `mpc`, `optimal`. The compiled
    /// kinds run the shared DBN through the packed single-sample fast
    /// path (tolerance-gated, not bit-identical to `dbn`); `distilled`
    /// runs the branch-free artifact with the compiled `f32` network
    /// as its fallback tier (agreement-gated against the teacher).
    pub planner: String,
    /// Capacitor a fixed-pattern planner locks to; defaults to 0 for
    /// `asap`, the largest capacitor otherwise.
    pub capacitor: Option<usize>,
    /// Wrap the planner in a [`ResilientPlanner`].
    pub resilient: bool,
    /// Fault plan to inject, if any.
    pub faults: Option<FaultPlan>,
}

impl Deserialize for ScenarioSpec {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            seed: opt(v, "seed")?.unwrap_or(0),
            days: opt(v, "days")?.unwrap_or_default(),
            planner: opt(v, "planner")?.unwrap_or_else(|| "inter".to_string()),
            capacitor: opt(v, "capacitor")?,
            resilient: opt(v, "resilient")?.unwrap_or(false),
            faults: opt(v, "faults")?,
        })
    }
}

/// One request line: a batch of scenarios simulated in lockstep.
#[derive(Debug, Clone)]
pub struct FleetRequest {
    /// Echoed back on every response line of this request.
    pub id: u64,
    /// The scenarios to simulate.
    pub scenarios: Vec<ScenarioSpec>,
}

impl Deserialize for FleetRequest {
    fn deserialize_json(v: &Value) -> Result<Self, serde::DeError> {
        Ok(Self {
            id: opt(v, "id")?.unwrap_or(0),
            scenarios: Vec::deserialize_json(v.field("scenarios")?)?,
        })
    }
}

/// Cycles `days` (or the four standard archetypes when empty) to
/// exactly `want` entries.
fn cycle_days(days: &[DayArchetype], want: usize) -> Vec<DayArchetype> {
    let base: &[DayArchetype] = if days.is_empty() {
        &DayArchetype::ALL
    } else {
        days
    };
    base.iter().copied().cycle().take(want).collect()
}

/// The service's immutable assets, derived once at startup and
/// borrowed by every request: everything a scenario's planner and
/// engine are built from.
struct Assets {
    node: NodeConfig,
    graph: TaskGraph,
    ctx: Arc<PlanContext>,
    dbn: Option<Arc<Dbn>>,
    /// Both compiled tiers of the shared DBN, built once at startup —
    /// every `compiled-dbn`/`compiled-dbn-i8` scenario clones the
    /// `Arc`, never the packed weights. The f32 tier is also the
    /// fallback tier of every `distilled` scenario.
    compiled_f32: Option<Arc<CompiledDbn>>,
    compiled_i8: Option<Arc<CompiledDbn>>,
    /// The service-wide fold table over the distilled decision
    /// artifact (reloaded from its JSON form at startup, and reachable
    /// as `fold_table.policy()`): every `distilled` scenario in every
    /// request shares it, so a period's constant prefix is prewalked
    /// and folded once per fleet, not once per scenario. Sharing is
    /// byte-invisible (the folded and flat paths are bit-identical)
    /// and survives checkpoint/resume — the checkpoint carries the
    /// key, never the table.
    fold_table: Option<Arc<FoldTable>>,
    delta: f64,
    dp: DpConfig,
}

/// The long-lived service state: the immutable [`Assets`] plus the
/// per-worker scratches and telemetry counters, all set up once at
/// startup and reused by every request.
pub struct FleetService {
    assets: Assets,
    scratches: Vec<BatchScratch>,
    requests_served: u64,
    scenarios_served: u64,
}

impl FleetService {
    /// Builds the service from the first protocol line: validates the
    /// grid and node, resolves the benchmark, derives the shared
    /// [`PlanContext`], trains the shared DBN when configured, and
    /// allocates one [`BatchScratch`] per worker.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Config`] for an unusable configuration.
    pub fn new(cfg: &FleetConfig) -> Result<Self, FleetError> {
        let grid = TimeGrid::new(
            cfg.grid.days,
            cfg.grid.periods,
            cfg.grid.slots,
            Seconds::new(cfg.grid.slot_seconds),
        )
        .map_err(|e| FleetError::Config(e.to_string()))?;
        if cfg.capacitors_farads.is_empty() {
            return Err(FleetError::Config("capacitors_farads is empty".into()));
        }
        let caps: Vec<Farads> = cfg
            .capacitors_farads
            .iter()
            .map(|&f| Farads::new(f))
            .collect();
        let node = NodeConfig::builder(grid)
            .capacitors(&caps)
            .build()
            .map_err(|e| FleetError::Config(e.to_string()))?;
        let graph = benchmark_by_name(&cfg.benchmark)?;
        graph
            .validate(grid.period_duration())
            .map_err(|e| FleetError::Config(e.to_string()))?;
        let ctx = Arc::new(
            PlanContext::new(&graph, grid.slot_duration())
                .map_err(|e| FleetError::Config(e.to_string()))?,
        );
        let dbn = match &cfg.dbn {
            Some(spec) => Some(Arc::new(train_dbn(&node, &graph, cfg, spec)?)),
            None => None,
        };
        let compile = |tier| -> Result<Option<Arc<CompiledDbn>>, FleetError> {
            dbn.as_deref()
                .map(|d| {
                    CompiledDbn::compile(d, tier)
                        .map(Arc::new)
                        .map_err(|e| FleetError::Config(e.to_string()))
                })
                .transpose()
        };
        let compiled_f32 = compile(CompiledTier::F32)?;
        let compiled_i8 = compile(CompiledTier::Int8)?;
        let distilled = match (&cfg.distill, dbn.as_deref()) {
            (Some(spec), Some(teacher)) => {
                let mut dcfg = DistillConfig::small(spec.seed);
                dcfg.depth_const = spec.depth_const;
                dcfg.depth_vary = spec.depth_vary;
                dcfg.samples = spec.samples;
                dcfg.holdout = spec.holdout;
                let const_prefix = grid.slots_per_period().min(teacher.input_dim());
                let policy = DistilledPolicy::distill(teacher, const_prefix, &[], &dcfg)
                    .map_err(|e| FleetError::Config(format!("distillation failed: {e}")))?;
                // Round-trip through the serde form: the artifact the
                // service serves is bit-for-bit the artifact a
                // pre-built asset file would load.
                let json = policy
                    .to_json()
                    .map_err(|e| FleetError::Config(format!("artifact serialisation: {e}")))?;
                let reloaded = DistilledPolicy::from_json(&json)
                    .map_err(|e| FleetError::Config(format!("artifact reload: {e}")))?;
                Some(Arc::new(reloaded))
            }
            (Some(_), None) => {
                return Err(FleetError::Config(
                    "`distill` requires a `dbn` spec to provide the teacher".into(),
                ))
            }
            (None, _) => None,
        };
        let fold_table = distilled
            .as_ref()
            .map(|p| Arc::new(FoldTable::new(Arc::clone(p), FoldTable::DEFAULT_CAPACITY)));
        let workers = cfg
            .threads
            .unwrap_or_else(helio_par::configured_threads)
            .max(1);
        let mut scratches = Vec::new();
        scratches.resize_with(workers, BatchScratch::default);
        Ok(Self {
            assets: Assets {
                node,
                graph,
                ctx,
                dbn,
                compiled_f32,
                compiled_i8,
                fold_table,
                delta: cfg.delta,
                dp: cfg.dp,
            },
            scratches,
            requests_served: 0,
            scenarios_served: 0,
        })
    }

    /// Worker (and scratch) count.
    pub fn workers(&self) -> usize {
        self.scratches.len()
    }

    /// Requests handled so far.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Scenarios simulated so far.
    pub fn scenarios_served(&self) -> u64 {
        self.scenarios_served
    }

    /// Simulates one request as a sharded lockstep batch, reusing the
    /// plan context and per-worker scratches; reports come back in
    /// scenario order, byte-identical to sequential engine runs. A
    /// scenario whose worker panics is quarantined and surfaces as an
    /// [`FleetError::Engine`]; [`serve_with`] instead degrades it to a
    /// per-scenario error line.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Protocol`] for an invalid scenario spec
    /// and [`FleetError::Engine`] when the engine rejects one.
    pub fn handle(&mut self, req: &FleetRequest) -> Result<Vec<SimReport>, FleetError> {
        match self.handle_with(req, None, None, None, None, None, &mut |_| Ok(()))? {
            RequestDisposition::Answered(results) => results
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(FleetError::Engine),
            // Unreachable without a deadline/kill/shutdown input.
            _ => Err(FleetError::Engine(
                "request paused without a pause input".into(),
            )),
        }
    }

    /// The robust request path behind [`serve_with`]: runs the batch
    /// in period-boundary segments so the service can checkpoint,
    /// honour a wall-clock deadline, die on cue for the chaos harness
    /// or drain for shutdown — and quarantines a panicking scenario by
    /// re-running the batch one scenario at a time from the last good
    /// checkpoint.
    ///
    /// `segment == None` runs the whole request as one span (the
    /// legacy byte-identical fast path, modulo a `resume` checkpoint).
    /// `on_checkpoint` fires at every pause *before* the pause is
    /// acted on, so a kill never outruns its persisted state.
    #[allow(clippy::too_many_arguments)]
    fn handle_with(
        &mut self,
        req: &FleetRequest,
        resume: Option<BatchCheckpoint>,
        segment: Option<usize>,
        deadline: Option<Instant>,
        kill_period: Option<usize>,
        shutdown: Option<&AtomicBool>,
        on_checkpoint: &mut dyn FnMut(&BatchCheckpoint) -> Result<(), FleetError>,
    ) -> Result<RequestDisposition, FleetError> {
        // Split the borrows: the engine borrows the assets immutably
        // while the run needs the scratches mutably.
        let Self {
            assets,
            scratches,
            requests_served,
            scenarios_served,
        } = self;
        let grid = assets.node.grid;
        let total = grid.total_periods();
        let periods_per_day = grid.periods_per_day();
        let days = grid.days();
        let traces: Vec<SolarTrace> = req
            .scenarios
            .iter()
            .map(|s| {
                TraceBuilder::new(grid, SolarPanel::paper_panel())
                    .seed(s.seed)
                    .days(&cycle_days(&s.days, days))
                    .build()
            })
            .collect();
        let harnesses: Vec<Option<FaultHarness>> = req
            .scenarios
            .iter()
            .map(|s| {
                s.faults
                    .as_ref()
                    .map(|plan| FaultHarness::new(plan, total, periods_per_day))
            })
            .collect();

        let seg = segment.unwrap_or(total).max(1);
        let mut ckpt = resume;
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(RequestDisposition::Deadline);
            }
            let at = ckpt.as_ref().map_or(0, |c| c.next_period);
            let seg_end = (at + seg).min(total);
            let kill_now = kill_period
                .map(|k| k.min(total))
                .filter(|&k| at <= k && k <= seg_end);
            let stop = match kill_now {
                Some(k) => Some(k),
                None if seg_end >= total => None,
                None => Some(seg_end),
            };
            let mut engine = build_engine(assets, req, &traces, &harnesses, None)?;
            let state = match engine.run_span_with(ckpt.as_ref(), stop, scratches) {
                Ok(state) => state,
                Err(CoreError::WorkerPanic(_)) => {
                    // One scenario poisoned its shard. Re-run the batch
                    // one scenario at a time from the last good
                    // checkpoint: healthy scenarios finish normally,
                    // the poisoned one degrades to a per-scenario
                    // error. Isolation runs to completion — a chaos
                    // kill or deadline no longer interrupts it.
                    drop(engine);
                    let results = run_isolated(assets, req, &traces, &harnesses, ckpt.as_ref())?;
                    *requests_served += 1;
                    *scenarios_served += results.len() as u64;
                    return Ok(RequestDisposition::Answered(results));
                }
                Err(e) => return Err(e.into()),
            };
            match state {
                BatchRunState::Done(reports) => {
                    *requests_served += 1;
                    *scenarios_served += reports.len() as u64;
                    return Ok(RequestDisposition::Answered(
                        reports.into_iter().map(Ok).collect(),
                    ));
                }
                BatchRunState::Paused(c) => {
                    on_checkpoint(&c)?;
                    let period = c.next_period;
                    if kill_now.is_some() {
                        return Ok(RequestDisposition::Killed(period));
                    }
                    if shutdown.is_some_and(|s| s.load(Ordering::SeqCst)) {
                        return Ok(RequestDisposition::ShutdownMidRequest);
                    }
                    ckpt = Some(c);
                }
            }
        }
    }
}

/// How [`FleetService::handle_with`] left a request.
enum RequestDisposition {
    /// Per-scenario results, in scenario order; a quarantined panic
    /// becomes that scenario's error message.
    Answered(Vec<Result<SimReport, String>>),
    /// The wall-clock deadline expired before the request finished.
    Deadline,
    /// The chaos plan killed the service at this period boundary
    /// (checkpoint already persisted via the callback).
    Killed(usize),
    /// The shutdown flag was raised at a period boundary; the
    /// checkpoint callback has already persisted the frozen state.
    ShutdownMidRequest,
}

/// Builds a fresh engine over `req`'s scenarios (or just scenario
/// `only`), reusing the shared plan context; the planners are rebuilt
/// from the specs and restored from a checkpoint by the caller's
/// `run_span_with`.
fn build_engine<'a>(
    assets: &'a Assets,
    req: &FleetRequest,
    traces: &'a [SolarTrace],
    harnesses: &'a [Option<FaultHarness>],
    only: Option<usize>,
) -> Result<BatchEngine<'a>, FleetError> {
    let mut engine =
        BatchEngine::with_context(&assets.node, &assets.graph, Arc::clone(&assets.ctx))?;
    let indices: Vec<usize> = match only {
        Some(i) => vec![i],
        None => (0..req.scenarios.len()).collect(),
    };
    for i in indices {
        let planner = make_planner(&req.scenarios[i], assets, &traces[i])?;
        let mut scenario = BatchScenario::new(&traces[i], planner);
        if let Some(h) = &harnesses[i] {
            scenario = scenario.with_harness(h);
        }
        engine.push(scenario)?;
    }
    Ok(engine)
}

/// Panic quarantine fallback: runs each scenario of `req` alone from
/// the (optional) last good batch checkpoint. Healthy scenarios
/// produce their normal report — byte-identical to the lockstep batch
/// — while the panicking one is caught by the worker-pool quarantine
/// again and degrades to its own error string.
fn run_isolated(
    assets: &Assets,
    req: &FleetRequest,
    traces: &[SolarTrace],
    harnesses: &[Option<FaultHarness>],
    resume: Option<&BatchCheckpoint>,
) -> Result<Vec<Result<SimReport, String>>, FleetError> {
    let mut results = Vec::with_capacity(req.scenarios.len());
    for i in 0..req.scenarios.len() {
        let sub = resume.map(|c| BatchCheckpoint {
            next_period: c.next_period,
            scenarios: vec![c.scenarios[i].clone()],
            planners: vec![c.planners[i].clone()],
        });
        let one = || -> Result<SimReport, FleetError> {
            let mut engine = build_engine(assets, req, traces, harnesses, Some(i))?;
            let mut scratch = BatchScratch::default();
            match engine.run_span_with(sub.as_ref(), None, std::slice::from_mut(&mut scratch))? {
                BatchRunState::Done(mut reports) => reports
                    .pop()
                    .ok_or_else(|| FleetError::Engine("isolated run produced no report".into())),
                BatchRunState::Paused(_) => Err(FleetError::Engine(
                    "isolated run paused unexpectedly".into(),
                )),
            }
        };
        results.push(one().map_err(|e| e.to_string()));
    }
    Ok(results)
}

fn benchmark_by_name(name: &str) -> Result<TaskGraph, FleetError> {
    match name {
        "wam" => Ok(benchmarks::wam()),
        "ecg" => Ok(benchmarks::ecg()),
        "shm" => Ok(benchmarks::shm()),
        "random1" => Ok(benchmarks::random_case(1)),
        "random2" => Ok(benchmarks::random_case(2)),
        "random3" => Ok(benchmarks::random_case(3)),
        other => Err(FleetError::Config(format!(
            "unknown benchmark `{other}` (expected random1..random3, wam, ecg, shm)"
        ))),
    }
}

/// Offline phase at startup: compute the optimal planner on the
/// training trace and train the DBN from its recorded samples.
fn train_dbn(
    node: &NodeConfig,
    graph: &TaskGraph,
    cfg: &FleetConfig,
    spec: &DbnSpec,
) -> Result<Dbn, FleetError> {
    let trace = TraceBuilder::new(node.grid, SolarPanel::paper_panel())
        .seed(spec.seed)
        .days(&cycle_days(&spec.days, node.grid.days()))
        .build();
    let optimal = OptimalPlanner::compute(node, graph, &trace, &cfg.dp, cfg.delta)?;
    let mut dbn_cfg = DbnConfig::small(spec.seed);
    dbn_cfg.bp_epochs = spec.bp_epochs;
    Dbn::train_set(optimal.samples(), &dbn_cfg).map_err(|e| FleetError::Config(e.to_string()))
}

/// Builds the planner `spec` asks for from the shared assets (trace
/// only for `optimal`, which plans offline against it), wrapped in a
/// [`ResilientPlanner`] when requested.
fn make_planner(
    spec: &ScenarioSpec,
    assets: &Assets,
    trace: &SolarTrace,
) -> Result<Box<dyn PeriodPlanner + 'static>, FleetError> {
    let Assets {
        node,
        graph,
        dbn,
        compiled_f32,
        compiled_i8,
        fold_table,
        delta,
        dp,
        ..
    } = assets;
    let (delta, dp) = (*delta, *dp);
    let bank_len = node.capacitor_count();
    let default_cap = |pattern: Pattern| match pattern {
        Pattern::Asap => 0,
        _ => bank_len.saturating_sub(1),
    };
    let cap_for = |pattern: Pattern| -> Result<usize, FleetError> {
        let c = spec.capacitor.unwrap_or_else(|| default_cap(pattern));
        if c >= bank_len {
            return Err(FleetError::Protocol(format!(
                "capacitor {c} out of range for a bank of {bank_len}"
            )));
        }
        Ok(c)
    };
    let inner: Box<dyn PeriodPlanner + 'static> = match spec.planner.as_str() {
        "asap" => Box::new(FixedPlanner::new(Pattern::Asap, cap_for(Pattern::Asap)?)),
        "inter" => Box::new(FixedPlanner::new(Pattern::Inter, cap_for(Pattern::Inter)?)),
        "intra" => Box::new(FixedPlanner::new(Pattern::Intra, cap_for(Pattern::Intra)?)),
        "dbn" => {
            let dbn = dbn.as_ref().ok_or_else(|| {
                FleetError::Protocol(
                    "scenario requests the dbn planner but the fleet config trained no DBN".into(),
                )
            })?;
            Box::new(ProposedPlanner::from_shared_dbn(
                Arc::clone(dbn),
                delta,
                SwitchRule::default(),
            ))
        }
        kind @ ("compiled-dbn" | "compiled-dbn-i8") => {
            let artifact = match kind {
                "compiled-dbn" => compiled_f32,
                _ => compiled_i8,
            };
            let artifact = artifact.as_ref().ok_or_else(|| {
                FleetError::Protocol(format!(
                    "scenario requests the {kind} planner but the fleet config trained no DBN"
                ))
            })?;
            Box::new(ProposedPlanner::from_compiled_dbn(
                Arc::clone(artifact),
                delta,
                SwitchRule::default(),
            ))
        }
        "distilled" => {
            let table = fold_table.as_ref().ok_or_else(|| {
                FleetError::Protocol(
                    "scenario requests the distilled planner but the fleet config has no \
                     `distill` spec"
                        .into(),
                )
            })?;
            let fallback = compiled_f32.as_ref().ok_or_else(|| {
                FleetError::Protocol(
                    "scenario requests the distilled planner but the fleet config compiled no \
                     fallback DBN"
                        .into(),
                )
            })?;
            Box::new(ProposedPlanner::from_distilled_with_table(
                Arc::clone(table),
                Arc::clone(fallback),
                delta,
                SwitchRule::default(),
            ))
        }
        "mpc" => Box::new(ProposedPlanner::mpc(
            Box::new(NoisyOracle::perfect()),
            node.grid.periods_per_day(),
            dp,
            delta,
            SwitchRule::default(),
        )),
        "optimal" => Box::new(OptimalPlanner::compute(node, graph, trace, &dp, delta)?),
        kind if kind.starts_with("chaos-panic:") => {
            let at: usize = kind["chaos-panic:".len()..].parse().map_err(|_| {
                FleetError::Protocol(format!(
                    "bad chaos-panic planner `{kind}` (expected chaos-panic:<period>)"
                ))
            })?;
            Box::new(ChaosPanicPlanner {
                inner: FixedPlanner::new(Pattern::Inter, cap_for(Pattern::Inter)?),
                at,
            })
        }
        other => {
            return Err(FleetError::Protocol(format!(
                "unknown planner `{other}` (expected asap, inter, intra, dbn, \
                 compiled-dbn, compiled-dbn-i8, distilled, mpc, optimal, chaos-panic:<period>)"
            )))
        }
    };
    Ok(if spec.resilient {
        Box::new(ResilientPlanner::new(inner))
    } else {
        inner
    })
}

/// Chaos-harness planner (`chaos-panic:K`): plans like the inter-task
/// fixed planner until flat period `K`, then panics inside its worker
/// — exercising the shard quarantine and the service's per-scenario
/// isolation fallback.
struct ChaosPanicPlanner {
    inner: FixedPlanner,
    at: usize,
}

impl PeriodPlanner for ChaosPanicPlanner {
    fn name(&self) -> &'static str {
        "chaos-panic"
    }

    #[allow(clippy::panic)]
    fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
        if obs.grid.period_index(obs.period) == self.at {
            panic!("chaos: injected planner panic at period {}", self.at);
        }
        self.inner.plan(obs)
    }
}

/// Writes one response line per report: `{"id":N,"index":I,"report":…}`.
///
/// # Errors
///
/// Returns [`FleetError::Io`] when the transport fails.
pub fn write_reports<W: Write>(
    out: &mut W,
    id: u64,
    reports: &[SimReport],
) -> Result<(), FleetError> {
    let mut line = String::new();
    for (index, report) in reports.iter().enumerate() {
        write_result_line(out, &mut line, id, index, Ok(report))?;
    }
    out.flush()?;
    Ok(())
}

/// Writes one line per scenario result: a report line, or — when that
/// scenario's worker panicked — `{"id":N,"index":I,"error":"…"}` so
/// the other scenarios of the batch still answer normally.
fn write_results<W: Write>(
    out: &mut W,
    id: u64,
    results: &[Result<SimReport, String>],
) -> Result<(), FleetError> {
    let mut line = String::new();
    for (index, result) in results.iter().enumerate() {
        let result = result.as_ref().map_err(String::as_str);
        write_result_line(out, &mut line, id, index, result)?;
    }
    out.flush()?;
    Ok(())
}

/// The one response-line writer behind [`write_reports`] and
/// [`write_results`]: `{"id":N,"index":I,"report":…}` for a report,
/// `{"id":N,"index":I,"error":"…"}` for a scenario that failed. The
/// whole line is encoded into `line` — a buffer the caller reuses for
/// every line of a request, so it stops growing after the largest
/// report — and handed to `out` in one `write_all`.
fn write_result_line<W: Write>(
    out: &mut W,
    line: &mut String,
    id: u64,
    index: usize,
    result: Result<&SimReport, &str>,
) -> Result<(), FleetError> {
    line.clear();
    // Writing into a `String` cannot fail.
    let _ = write!(line, "{{\"id\":{id},\"index\":{index},");
    match result {
        Ok(report) => {
            line.push_str("\"report\":");
            report.serialize_json(line);
        }
        Err(msg) => {
            line.push_str("\"error\":");
            serde::write_escaped(msg, line);
        }
    }
    line.push_str("}\n");
    out.write_all(line.as_bytes())?;
    Ok(())
}

fn write_error<W: Write>(out: &mut W, id: Option<u64>, msg: &str) -> Result<(), FleetError> {
    let msg = serde_json::to_string(msg)
        .map_err(|e| FleetError::Engine(format!("error serialisation failed: {e}")))?;
    match id {
        Some(id) => writeln!(out, "{{\"id\":{id},\"error\":{msg}}}")?,
        None => writeln!(out, "{{\"error\":{msg}}}")?,
    }
    out.flush()?;
    Ok(())
}

/// Serves one session with the default [`ServeOptions`]: reads the
/// config line, then answers request lines until EOF. Per-request
/// failures (bad JSON, unknown planner) produce an error line and the
/// session continues; only transport failures and an unusable config
/// abort.
///
/// Returns the service (with its telemetry counters) once the peer
/// closes the stream.
///
/// # Errors
///
/// Returns [`FleetError::Config`]/[`FleetError::Protocol`] when the
/// first line is unusable and [`FleetError::Io`] when the transport
/// fails.
pub fn serve<R: BufRead, W: Write>(input: R, out: W) -> Result<FleetService, FleetError> {
    serve_with(input, out, &ServeOptions::default()).map(|summary| summary.service)
}

/// Marks a request line fully answered: advances the durable progress
/// counter and discards the now-stale mid-request checkpoint.
fn finish_line(store: Option<&SessionStore>, ordinal: u64) -> Result<(), FleetError> {
    if let Some(s) = store {
        s.save_completed(ordinal)?;
        s.clear_inflight();
    }
    Ok(())
}

/// Serves one session with service-level robustness: byte caps,
/// request-size caps, per-request wall-clock deadlines, crash-safe
/// checkpoint/resume, graceful shutdown and the chaos kill hook — see
/// [`ServeOptions`]. With the default options this is byte-identical
/// to [`serve`].
///
/// Request lines are counted by a 1-based ordinal (blank lines don't
/// count). When resuming from a checkpoint directory, lines whose
/// ordinal is already recorded as answered are skipped without
/// re-emitting their responses, so `cat` of the pre-crash and
/// post-restart outputs equals an uninterrupted session's output.
///
/// # Errors
///
/// Returns [`FleetError::Config`]/[`FleetError::Protocol`] when the
/// first line is unusable and [`FleetError::Io`] when the transport
/// fails; everything else degrades to inline error lines.
pub fn serve_with<R: BufRead, W: Write>(
    mut input: R,
    mut out: W,
    opts: &ServeOptions,
) -> Result<SessionSummary, FleetError> {
    let store = match &opts.checkpoint_dir {
        Some(dir) => Some(SessionStore::new(dir)?),
        None => None,
    };
    let completed = store.as_ref().map_or(0, SessionStore::load_completed);
    let inflight = store.as_ref().and_then(SessionStore::load_inflight);
    let shutdown = opts.shutdown.as_deref();
    let kill = opts.chaos.kill_point();

    let mut buf = Vec::new();
    let config_text = loop {
        match read_raw_line(&mut input, opts.max_line_bytes, &mut buf)? {
            RawLine::Eof => {
                return Err(FleetError::Protocol(
                    "stream ended before a fleet config line".into(),
                ))
            }
            RawLine::TooLong => {
                return Err(FleetError::Protocol(
                    "fleet config line exceeds the byte cap".into(),
                ))
            }
            RawLine::Line => {
                let text = std::str::from_utf8(&buf).map_err(|_| {
                    FleetError::Protocol("fleet config line is not valid UTF-8".into())
                })?;
                if !text.trim().is_empty() {
                    break text.to_string();
                }
            }
        }
    };
    let cfg: FleetConfig = serde_json::from_str(&config_text)
        .map_err(|e| FleetError::Protocol(format!("bad fleet config: {e}")))?;
    let mut service = FleetService::new(&cfg)?;

    // Segment the simulation loop only when something needs the pause
    // points; otherwise each request runs as one span, exactly like
    // the legacy service.
    let segment = opts.checkpoint_every.or_else(|| {
        (store.is_some() || opts.deadline_ms.is_some() || kill.is_some() || shutdown.is_some())
            .then_some(service.assets.node.grid.periods_per_day())
    });

    let mut ordinal: u64 = 0;
    let outcome = loop {
        if shutdown.is_some_and(|s| s.load(Ordering::SeqCst)) {
            break SessionOutcome::Shutdown;
        }
        match read_raw_line(&mut input, opts.max_line_bytes, &mut buf)? {
            RawLine::Eof => break SessionOutcome::Eof,
            RawLine::TooLong => {
                ordinal += 1;
                if ordinal <= completed {
                    continue;
                }
                write_error(&mut out, None, "request line exceeds the byte cap")?;
                finish_line(store.as_ref(), ordinal)?;
            }
            RawLine::Line => {
                if buf.iter().all(|b| b.is_ascii_whitespace()) {
                    continue;
                }
                ordinal += 1;
                if ordinal <= completed {
                    continue; // answered before the restart
                }
                let Ok(text) = std::str::from_utf8(&buf) else {
                    write_error(&mut out, None, "request line is not valid UTF-8")?;
                    finish_line(store.as_ref(), ordinal)?;
                    continue;
                };
                let text = text.to_string();
                let req: FleetRequest = match serde_json::from_str(&text) {
                    Ok(req) => req,
                    Err(e) => {
                        write_error(&mut out, None, &format!("bad request: {e}"))?;
                        finish_line(store.as_ref(), ordinal)?;
                        continue;
                    }
                };
                if let Some(cap) = opts.max_batch {
                    if req.scenarios.len() > cap {
                        write_error(
                            &mut out,
                            Some(req.id),
                            &format!(
                                "request has {} scenarios, exceeding the cap of {cap}",
                                req.scenarios.len()
                            ),
                        )?;
                        finish_line(store.as_ref(), ordinal)?;
                        continue;
                    }
                }
                let resume = match &inflight {
                    Some(rec) if rec.ordinal == ordinal && rec.line == text => {
                        Some(rec.checkpoint.clone())
                    }
                    _ => None,
                };
                let deadline = opts
                    .deadline_ms
                    .map(|ms| Instant::now() + Duration::from_millis(ms));
                let kill_this = kill.filter(|&(r, _)| r == ordinal).map(|(_, p)| p);
                let mut on_checkpoint = |c: &BatchCheckpoint| -> Result<(), FleetError> {
                    if let Some(s) = &store {
                        s.save_inflight(&InflightRecord {
                            ordinal,
                            line: text.clone(),
                            checkpoint: c.clone(),
                        })?;
                    }
                    Ok(())
                };
                match service.handle_with(
                    &req,
                    resume,
                    segment,
                    deadline,
                    kill_this,
                    shutdown,
                    &mut on_checkpoint,
                ) {
                    Ok(RequestDisposition::Answered(results)) => {
                        write_results(&mut out, req.id, &results)?;
                        finish_line(store.as_ref(), ordinal)?;
                    }
                    Ok(RequestDisposition::Deadline) => {
                        write_error(&mut out, Some(req.id), "deadline")?;
                        finish_line(store.as_ref(), ordinal)?;
                    }
                    Ok(RequestDisposition::Killed(period)) => {
                        break SessionOutcome::ChaosKill {
                            request: ordinal,
                            period,
                        };
                    }
                    Ok(RequestDisposition::ShutdownMidRequest) => break SessionOutcome::Shutdown,
                    Err(FleetError::Io(e)) => return Err(FleetError::Io(e)),
                    Err(e) => {
                        write_error(&mut out, Some(req.id), &e.to_string())?;
                        finish_line(store.as_ref(), ordinal)?;
                    }
                }
            }
        }
    };
    Ok(SessionSummary { service, outcome })
}
