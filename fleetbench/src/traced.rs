//! The traced run: every layer timed from outside, through the public
//! functions each crate exports. Nothing inside the program is
//! instrumented.
//!
//! Per answered request the tracer
//! 1. re-parses the request line (`fleet.parse`), hands it to a second
//!    service built from the same config (`fleet.handle`), encodes the
//!    reports (`fleet.encode`) and writes them to a counting sink
//!    (`fleet.write`); the encoded bytes must equal the served bytes;
//! 2. replays the same request decomposed: traces (`solar`), fault
//!    harnesses (`faults`), planners built with the public constructors
//!    the service uses and wrapped in a [`Probe`] (`core.planner_build`),
//!    and one `BatchEngine::with_context` + `run_sharded_with`
//!    (`core.engine`); its reports must equal the service's;
//! 3. replays the batched inference rows the probes captured, shard by
//!    shard and period by period in member order, through a fold table
//!    and a DBN batch of its own (`ann`).

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use helio_ann::{
    BatchPredictScratch, CompiledDbn, CompiledTier, Dbn, DbnConfig, DistillConfig, DistilledPolicy,
    FoldEntry, FoldTable, Matrix,
};
use helio_common::time::TimeGrid;
use helio_common::units::{Farads, Seconds};
use helio_faults::FaultHarness;
use helio_fleet::{write_reports, FleetConfig, FleetRequest, FleetService, ScenarioSpec};
use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarTrace, TraceBuilder};
use helio_tasks::{benchmarks, TaskGraph};
use heliosched::{
    BatchEngine, BatchScenario, BatchScratch, DpConfig, FixedPlanner, NodeConfig, OptimalPlanner,
    Pattern, PeriodPlanner, PlanContext, ProposedPlanner, ResilientPlanner, SimReport, SwitchRule,
};

use crate::probe::{ns, Probe, ProbeStats, RowKind};
use crate::scan;
use crate::workload::KINDS;

/// The offline phase, layer by layer: what `FleetService::new` derives,
/// rebuilt through the same public calls and timed one call at a time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// `PlanContext::new`.
    pub plan_context: Duration,
    /// `OptimalPlanner::compute` on the training trace.
    pub optimal: Duration,
    /// `Dbn::train_set`.
    pub train: Duration,
    /// `CompiledDbn::compile`, both tiers.
    pub compile: Duration,
    /// `DistilledPolicy::distill` plus its JSON round trip.
    pub distill: Duration,
    /// One whole `FleetService::new` on the same config.
    pub service_new: Duration,
}

impl SetupTimes {
    /// Field-wise median of `samples` (at least one).
    fn median(samples: &[SetupTimes]) -> SetupTimes {
        let med = |f: fn(&SetupTimes) -> Duration| {
            let mut v: Vec<Duration> = samples.iter().map(f).collect();
            v.sort();
            v.get(v.len() / 2).copied().unwrap_or_default()
        };
        SetupTimes {
            plan_context: med(|s| s.plan_context),
            optimal: med(|s| s.optimal),
            train: med(|s| s.train),
            compile: med(|s| s.compile),
            distill: med(|s| s.distill),
            service_new: med(|s| s.service_new),
        }
    }

    /// Share of `FleetService::new` the five layers do not cover.
    pub fn unaccounted_share(&self) -> f64 {
        let covered = self.plan_context + self.optimal + self.train + self.compile + self.distill;
        1.0 - covered.as_secs_f64() / self.service_new.as_secs_f64().max(1e-12)
    }
}

/// Everything the decomposed replay shares across requests.
struct Artifacts {
    node: NodeConfig,
    graph: TaskGraph,
    ctx: Arc<PlanContext>,
    dbn: Arc<Dbn>,
    compiled_f32: Arc<CompiledDbn>,
    delta: f64,
    dp: DpConfig,
}

fn cycle_days(days: &[DayArchetype], want: usize) -> Vec<DayArchetype> {
    let base: &[DayArchetype] = if days.is_empty() {
        &DayArchetype::ALL
    } else {
        days
    };
    base.iter().copied().cycle().take(want).collect()
}

/// Rebuilds the service's offline artifacts, timing each layer.
fn build_artifacts(
    cfg: &FleetConfig,
) -> Result<(Artifacts, Arc<DistilledPolicy>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let grid = TimeGrid::new(
        cfg.grid.days,
        cfg.grid.periods,
        cfg.grid.slots,
        Seconds::new(cfg.grid.slot_seconds),
    )
    .map_err(|e| format!("grid: {e}"))?;
    let caps: Vec<Farads> = cfg
        .capacitors_farads
        .iter()
        .map(|&f| Farads::new(f))
        .collect();
    let node = NodeConfig::builder(grid)
        .capacitors(&caps)
        .build()
        .map_err(|e| format!("node: {e}"))?;
    let graph = match cfg.benchmark.as_str() {
        "ecg" => benchmarks::ecg(),
        "wam" => benchmarks::wam(),
        "shm" => benchmarks::shm(),
        other => {
            return Err(format!(
                "benchmark `{other}` is not one the benchmark serves"
            ))
        }
    };
    let t = Instant::now();
    let ctx = Arc::new(
        PlanContext::new(&graph, grid.slot_duration()).map_err(|e| format!("plan context: {e}"))?,
    );
    times.plan_context = t.elapsed();

    let spec = cfg
        .dbn
        .as_ref()
        .ok_or("the workload config trains no DBN")?;
    let trace = TraceBuilder::new(grid, SolarPanel::paper_panel())
        .seed(spec.seed)
        .days(&cycle_days(&spec.days, grid.days()))
        .build();
    let t = Instant::now();
    let optimal = OptimalPlanner::compute(&node, &graph, &trace, &cfg.dp, cfg.delta)
        .map_err(|e| format!("optimal: {e}"))?;
    times.optimal = t.elapsed();
    let mut dbn_cfg = DbnConfig::small(spec.seed);
    dbn_cfg.bp_epochs = spec.bp_epochs;
    let t = Instant::now();
    let dbn = Dbn::train_set(optimal.samples(), &dbn_cfg).map_err(|e| format!("train: {e}"))?;
    times.train = t.elapsed();

    let t = Instant::now();
    let compiled = CompiledDbn::compile(&dbn, CompiledTier::F32)
        .and_then(|f32| CompiledDbn::compile(&dbn, CompiledTier::Int8).map(|_| f32));
    times.compile = t.elapsed();
    let compiled_f32 = Arc::new(compiled.map_err(|e| format!("compile: {e}"))?);

    let dspec = cfg
        .distill
        .as_ref()
        .ok_or("the workload config distils no policy")?;
    let mut dcfg = DistillConfig::small(dspec.seed);
    dcfg.depth_const = dspec.depth_const;
    dcfg.depth_vary = dspec.depth_vary;
    dcfg.samples = dspec.samples;
    dcfg.holdout = dspec.holdout;
    let const_prefix = grid.slots_per_period().min(dbn.input_dim());
    let t = Instant::now();
    let policy = DistilledPolicy::distill(&dbn, const_prefix, &[], &dcfg)
        .and_then(|p| p.to_json())
        .and_then(|json| DistilledPolicy::from_json(&json))
        .map_err(|e| format!("distill: {e}"))?;
    times.distill = t.elapsed();

    let art = Artifacts {
        node,
        graph,
        ctx,
        dbn: Arc::new(dbn),
        compiled_f32,
        delta: cfg.delta,
        dp: cfg.dp,
    };
    Ok((art, Arc::new(policy), times))
}

/// Builds one scenario's planner the way the service does, through the
/// same public constructors.
fn make_planner(
    spec: &ScenarioSpec,
    art: &Artifacts,
    table: &Arc<FoldTable>,
    trace: &SolarTrace,
) -> Result<Box<dyn PeriodPlanner>, String> {
    let largest = art.node.capacitor_count().saturating_sub(1);
    let cap = spec.capacitor.unwrap_or(largest);
    let inner: Box<dyn PeriodPlanner> = match spec.planner.as_str() {
        "inter" => Box::new(FixedPlanner::new(Pattern::Inter, cap)),
        "intra" => Box::new(FixedPlanner::new(Pattern::Intra, cap)),
        "dbn" => Box::new(ProposedPlanner::from_shared_dbn(
            Arc::clone(&art.dbn),
            art.delta,
            SwitchRule::default(),
        )),
        "distilled" => Box::new(ProposedPlanner::from_distilled_with_table(
            Arc::clone(table),
            Arc::clone(&art.compiled_f32),
            art.delta,
            SwitchRule::default(),
        )),
        "mpc" => Box::new(ProposedPlanner::mpc(
            Box::new(NoisyOracle::perfect()),
            art.node.grid.periods_per_day(),
            art.dp,
            art.delta,
            SwitchRule::default(),
        )),
        "optimal" => Box::new(
            OptimalPlanner::compute(&art.node, &art.graph, trace, &art.dp, art.delta)
                .map_err(|e| format!("optimal planner: {e}"))?,
        ),
        other => {
            return Err(format!(
                "planner `{other}` is not one the benchmark requests"
            ))
        }
    };
    Ok(if spec.resilient {
        Box::new(ResilientPlanner::new(inner))
    } else {
        inner
    })
}

/// Per-layer totals over the counted requests; `_ns` fields are
/// nanoseconds of wall time.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    pub requests: u64,
    pub scenarios: u64,
    pub scenario_periods: u64,
    pub request_bytes: u64,
    pub report_bytes: u64,
    pub failed: u64,
    pub served_ns: u64,
    pub parse_ns: u64,
    pub handle_ns: u64,
    pub encode_ns: u64,
    pub write_ns: u64,
    pub solar_ns: u64,
    pub harness_ns: u64,
    pub build_ns: u64,
    pub engine_ns: u64,
    /// Engine wall time less the probed hooks and the replayed
    /// inference, both divided by the shards that ran at once.
    pub engine_self_ns: u64,
    pub gather_ns: u64,
    pub decide_ns: [u64; KINDS.len()],
    pub decisions: [u64; KINDS.len()],
    pub batched: u64,
    pub scalar: u64,
    pub complexity: u64,
    /// Fault and degradation events the reports logged.
    pub degraded_events: u64,
    pub fold_lookups: u64,
    pub fold_served: u64,
    pub fold_evictions: u64,
    pub fold_lookup_ns: u64,
    pub distilled_lanes: u64,
    pub distilled_batch_ns: u64,
    pub dbn_lanes: u64,
    pub dbn_batch_ns: u64,
}

impl Totals {
    /// Wall time the fleet layers spent: parse + handle + encode.
    pub fn fleet_ns(&self) -> u64 {
        self.parse_ns + self.handle_ns + self.encode_ns
    }

    /// Of [`Totals::fleet_ns`], the part named layers cover: parse and
    /// encode directly, handle through its decomposed replay.
    pub fn attributed_ns(&self) -> u64 {
        self.parse_ns
            + self.encode_ns
            + self.solar_ns
            + self.harness_ns
            + self.build_ns
            + self.engine_ns
    }
}

/// Replays requests layer by layer; see the module docs.
pub struct Tracer {
    art: Artifacts,
    service: FleetService,
    /// The decomposed engine's session-long fold table.
    engine_table: Arc<FoldTable>,
    /// The inference replay's own session-long fold table, same
    /// capacity as the service's.
    replay_table: FoldTable,
    scratches: Vec<BatchScratch>,
    predict: BatchPredictScratch,
    inputs: Matrix,
    outputs: Matrix,
    entries: Vec<Option<Arc<FoldEntry>>>,
    lane_inputs: Vec<f64>,
    lane_out: Vec<f64>,
    encoded: Vec<u8>,
    /// What the traced write hands the client: the served sink's work,
    /// one copy into a reused buffer.
    written: Vec<u8>,
    /// Totals over counted requests.
    pub totals: Totals,
    /// The offline phase, layer by layer.
    pub setup: SetupTimes,
}

impl Tracer {
    /// Builds the tracer for one workload config line: the offline
    /// layers, a second service, and the replay tables. The layers and
    /// `FleetService::new` are timed `setups` times, alternately, and
    /// each reported as its median.
    pub fn new(config_line: &str, workers: usize, setups: usize) -> Result<Self, String> {
        let cfg: FleetConfig =
            serde_json::from_str(config_line).map_err(|e| format!("config: {e}"))?;
        let mut samples = Vec::with_capacity(setups.max(1));
        let (art, policy, service) = loop {
            let (art, policy, mut times) = build_artifacts(&cfg)?;
            let t = Instant::now();
            let service = FleetService::new(&cfg).map_err(|e| format!("service: {e}"))?;
            times.service_new = t.elapsed();
            samples.push(times);
            if samples.len() >= setups {
                break (art, policy, service);
            }
        };
        let setup = SetupTimes::median(&samples);
        let engine_table = Arc::new(FoldTable::new(
            Arc::clone(&policy),
            FoldTable::DEFAULT_CAPACITY,
        ));
        let replay_table = FoldTable::new(policy, FoldTable::DEFAULT_CAPACITY);
        let mut scratches = Vec::new();
        scratches.resize_with(workers.max(1), BatchScratch::default);
        Ok(Self {
            art,
            service,
            engine_table,
            replay_table,
            scratches,
            predict: BatchPredictScratch::default(),
            inputs: Matrix::default(),
            outputs: Matrix::default(),
            entries: Vec::new(),
            lane_inputs: Vec::new(),
            lane_out: Vec::new(),
            encoded: Vec::new(),
            written: Vec::new(),
            totals: Totals::default(),
            setup,
        })
    }

    /// Traces one served request. `served` is the service's reply and
    /// `latency` its served time; `count` is false for warm-up, whose
    /// work still advances the tables. Any difference between the
    /// traced and served output is an error.
    pub fn request(
        &mut self,
        line: &[u8],
        served: &[u8],
        latency: Duration,
        count: bool,
    ) -> Result<(), String> {
        let mut t = Totals::default();
        let text = std::str::from_utf8(line).map_err(|_| "request line is not UTF-8")?;
        let start = Instant::now();
        let req: FleetRequest = serde_json::from_str(text).map_err(|e| format!("parse: {e}"))?;
        t.parse_ns = ns(start);
        let start = Instant::now();
        let reports = self
            .service
            .handle(&req)
            .map_err(|e| format!("handle: {e}"))?;
        t.handle_ns = ns(start);
        self.encoded.clear();
        let start = Instant::now();
        write_reports(&mut self.encoded, req.id, &reports).map_err(|e| format!("encode: {e}"))?;
        t.encode_ns = ns(start);
        self.written.clear();
        let start = Instant::now();
        self.written
            .write_all(&self.encoded)
            .and_then(|()| self.written.flush())
            .map_err(|e| format!("write: {e}"))?;
        t.write_ns = ns(start);
        if self.written != served {
            let at = self
                .written
                .iter()
                .zip(served)
                .position(|(a, b)| a != b)
                .unwrap_or(self.written.len().min(served.len()));
            return Err(format!(
                "request {}: traced reply differs from the served reply at byte {at} \
                 ({} vs {} bytes)",
                req.id,
                self.written.len(),
                served.len()
            ));
        }

        let replayed = self.replay(&req, &mut t)?;
        if replayed != reports {
            return Err(format!(
                "request {}: the decomposed replay's reports differ from the service's",
                req.id
            ));
        }

        // The untraced run reads its quality metric off the served
        // bytes with `scan`; hold that reading to the parsed reports.
        let answered = scan::reply(served);
        let dmr_sum: f64 = reports.iter().map(SimReport::overall_dmr).sum();
        if answered.reports != reports.len() as u64 || answered.dmr_sum != dmr_sum {
            return Err(format!(
                "request {}: scanning the reply finds {} reports with DMR sum {}, \
                 the parsed reports {} with {dmr_sum}",
                req.id,
                answered.reports,
                answered.dmr_sum,
                reports.len()
            ));
        }
        if count {
            let periods = self.art.node.grid.total_periods() as u64;
            t.requests = 1;
            t.scenarios = req.scenarios.len() as u64;
            t.scenario_periods = answered.reports * periods;
            t.request_bytes = line.len() as u64 + 1;
            t.report_bytes = self.written.len() as u64;
            t.failed = answered.errors;
            t.served_ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
            t.complexity = reports.iter().map(|r| r.complexity).sum();
            t.degraded_events = reports.iter().map(|r| r.faults.len() as u64).sum();
            add(&mut self.totals, &t);
        }
        Ok(())
    }

    /// The decomposed replay of `req`, filling the solar/faults/core/ann
    /// fields of `t`.
    fn replay(&mut self, req: &FleetRequest, t: &mut Totals) -> Result<Vec<SimReport>, String> {
        let art = &self.art;
        let grid = art.node.grid;
        let total = grid.total_periods();

        let start = Instant::now();
        let traces: Vec<SolarTrace> = req
            .scenarios
            .iter()
            .map(|s| {
                TraceBuilder::new(grid, SolarPanel::paper_panel())
                    .seed(s.seed)
                    .days(&cycle_days(&s.days, grid.days()))
                    .build()
            })
            .collect();
        t.solar_ns = ns(start);

        let start = Instant::now();
        let harnesses: Vec<Option<FaultHarness>> = req
            .scenarios
            .iter()
            .map(|s| {
                s.faults
                    .as_ref()
                    .map(|plan| FaultHarness::new(plan, total, grid.periods_per_day()))
            })
            .collect();
        t.harness_ns = ns(start);

        let mut slots: Vec<(usize, Arc<Mutex<ProbeStats>>)> = Vec::new();
        let start = Instant::now();
        let mut engine = BatchEngine::with_context(&art.node, &art.graph, Arc::clone(&art.ctx))
            .map_err(|e| format!("engine: {e}"))?;
        let mut engine_ns = ns(start);
        for (i, spec) in req.scenarios.iter().enumerate() {
            let start = Instant::now();
            let planner = make_planner(spec, art, &self.engine_table, &traces[i])?;
            t.build_ns += ns(start);
            let kind = KINDS
                .iter()
                .position(|k| *k == spec.planner)
                .ok_or_else(|| format!("planner `{}` has no metric slot", spec.planner))?;
            let (probe, slot) = Probe::wrap(planner);
            slots.push((kind, slot));
            let start = Instant::now();
            let mut scenario = BatchScenario::new(&traces[i], Box::new(probe));
            if let Some(h) = &harnesses[i] {
                scenario = scenario.with_harness(h);
            }
            engine.push(scenario).map_err(|e| format!("engine: {e}"))?;
            engine_ns += ns(start);
        }
        let start = Instant::now();
        let reports = engine
            .run_sharded_with(&mut self.scratches)
            .map_err(|e| format!("engine: {e}"))?;
        engine_ns += ns(start);
        t.engine_ns = engine_ns;
        let shards = self.scratches.len().min(req.scenarios.len()).max(1);
        // Hook and inference times are summed over the shards; divide
        // by the shards that ran at once to compare with wall time.
        let parallel = shards.min(helio_par::configured_threads()).max(1) as u64;

        let stats: Vec<(usize, ProbeStats)> = slots
            .into_iter()
            .map(|(kind, slot)| {
                let mut s = slot.lock().unwrap_or_else(|e| e.into_inner());
                (kind, std::mem::take(&mut *s))
            })
            .collect();
        for (kind, s) in &stats {
            t.gather_ns += s.gather_ns;
            t.decide_ns[*kind] += s.decide_ns;
            t.decisions[*kind] += s.batched + s.scalar;
            t.batched += s.batched;
            t.scalar += s.scalar;
        }
        self.replay_inference(&stats, shards, total, t)?;
        let hooks = t.gather_ns + t.decide_ns.iter().sum::<u64>();
        let inference = t.fold_lookup_ns + t.distilled_batch_ns + t.dbn_batch_ns;
        t.engine_self_ns = engine_ns.saturating_sub((hooks + inference) / parallel);
        Ok(reports)
    }

    /// Replays the captured rows the way the engine batched them: per
    /// period, per shard (contiguous, `ceil(B / shards)` scenarios
    /// each), in scenario order.
    fn replay_inference(
        &mut self,
        stats: &[(usize, ProbeStats)],
        shards: usize,
        total: usize,
        t: &mut Totals,
    ) -> Result<(), String> {
        let b = stats.len();
        let chunk = b.div_ceil(shards).max(1);
        let mut cursor = vec![0usize; b];
        let policy = Arc::clone(self.replay_table.policy());
        let capacity = self.replay_table.capacity();
        for flat in 0..total {
            for lo in (0..b).step_by(chunk) {
                let members = lo..(lo + chunk).min(b);
                // Rows each member captured at this period, in order.
                let mut dbn_rows: Vec<&[f64]> = Vec::new();
                self.entries.clear();
                self.lane_inputs.clear();
                for i in members {
                    while let Some((p, kind, row)) = stats[i].1.rows.get(cursor[i]) {
                        if *p != flat {
                            break;
                        }
                        cursor[i] += 1;
                        match kind {
                            RowKind::Dbn => dbn_rows.push(row),
                            RowKind::Distilled => {
                                let before = self.replay_table.len();
                                let start = Instant::now();
                                let entry = self
                                    .replay_table
                                    .lookup(row)
                                    .map_err(|e| format!("fold lookup: {e}"))?;
                                t.fold_lookup_ns += ns(start);
                                t.fold_lookups += 1;
                                match entry {
                                    Some(_) => t.fold_served += 1,
                                    None if before >= capacity => t.fold_evictions += 1,
                                    None => {}
                                }
                                self.entries.push(entry);
                                self.lane_inputs.extend_from_slice(row);
                            }
                        }
                    }
                }
                if !self.entries.is_empty() {
                    let start = Instant::now();
                    policy
                        .predict_batch_folded(&self.entries, &self.lane_inputs, &mut self.lane_out)
                        .map_err(|e| format!("distilled batch: {e}"))?;
                    t.distilled_batch_ns += ns(start);
                    t.distilled_lanes += self.entries.len() as u64;
                }
                if !dbn_rows.is_empty() {
                    self.inputs.reset(dbn_rows.len(), self.art.dbn.input_dim());
                    for (r, row) in dbn_rows.iter().enumerate() {
                        self.inputs.row_mut(r).copy_from_slice(row);
                    }
                    let start = Instant::now();
                    self.art
                        .dbn
                        .predict_batch_into(&self.inputs, &mut self.predict, &mut self.outputs)
                        .map_err(|e| format!("dbn batch: {e}"))?;
                    t.dbn_batch_ns += ns(start);
                    t.dbn_lanes += dbn_rows.len() as u64;
                }
            }
        }
        Ok(())
    }
}

fn add(acc: &mut Totals, t: &Totals) {
    macro_rules! sum {
        ($($f:ident),*) => { $(acc.$f += t.$f;)* };
    }
    sum!(
        requests,
        scenarios,
        scenario_periods,
        request_bytes,
        report_bytes,
        failed,
        served_ns,
        parse_ns,
        handle_ns,
        encode_ns,
        write_ns,
        solar_ns,
        harness_ns,
        build_ns,
        engine_ns,
        engine_self_ns,
        gather_ns,
        batched,
        scalar,
        complexity,
        degraded_events,
        fold_lookups,
        fold_served,
        fold_evictions,
        fold_lookup_ns,
        distilled_lanes,
        distilled_batch_ns,
        dbn_lanes,
        dbn_batch_ns
    );
    for k in 0..KINDS.len() {
        acc.decide_ns[k] += t.decide_ns[k];
        acc.decisions[k] += t.decisions[k];
    }
}
