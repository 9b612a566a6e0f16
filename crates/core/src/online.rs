//! The proposed online planner (paper Section 5).
//!
//! Two interchangeable backends produce the coarse per-period decision:
//!
//! * **DBN** — the paper's headline design: the deep belief network
//!   trained offline on optimal samples maps (previous-period solar,
//!   capacitor voltages, accumulated DMR) to (capacitor, α, task
//!   bits). Inference costs microjoules on the node.
//! * **MPC** — a model-predictive variant that reruns the long-term DP
//!   each day on *forecast* solar over a configurable horizon. It is
//!   the knob behind the prediction-length experiment (Fig. 10a).
//!
//! Both backends pass through the Eq. 22 capacitor-switch rule (don't
//! abandon a charged capacitor) and the `δ` pattern-selection
//! threshold of Section 5.2.

use std::sync::Arc;

use helio_ann::{
    AnnError, CompiledDbn, CompiledScratch, CompiledTier, Dbn, DistilledPolicy, FoldTable,
    PredictScratch,
};
use helio_common::units::Joules;
use helio_common::TaskSet;
use helio_faults::DbnFaultMode;
use helio_solar::SolarPredictor;
use helio_storage::SuperCap;
use helio_tasks::TaskId;
use serde::{Deserialize, Serialize};

use crate::batch::PlanContext;
use crate::checkpoint::{DistilledState, MpcCacheState, PlannerCheckpoint, ProposedCheckpoint};
use crate::longterm::{optimize_horizon, DpConfig, PeriodPlan};
use crate::optimal::OptimalPlanner;
use crate::planner::{PeriodPlanner, PlanDecision, PlannerHealth, PlannerObservation};
use crate::subsets::dmr_level_subsets;

/// The Eq. 22 capacitor-switch rule: switch to the suggested capacitor
/// only when the one in use has less than `threshold` usable energy —
/// migrating a charged capacitor's energy away is wasteful.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchRule {
    /// The threshold energy `E_th`.
    pub threshold: Joules,
}

impl Default for SwitchRule {
    fn default() -> Self {
        Self {
            threshold: Joules::new(2.0),
        }
    }
}

impl SwitchRule {
    /// Applies Eq. 22: returns the capacitor the PMU should activate.
    #[inline]
    pub fn decide(&self, obs: &PlannerObservation<'_>, suggested: usize) -> Option<usize> {
        let active = obs.bank.active_index();
        if suggested == active {
            return Some(active);
        }
        let cap = obs.bank.cap(active).expect("active index valid");
        let state = obs.bank.state(active).expect("active index valid");
        if state.energy_above_cutoff(cap) < self.threshold {
            Some(suggested)
        } else {
            None // keep the charged capacitor
        }
    }
}

enum Backend {
    Dbn {
        /// The trained network, behind an `Arc` so a batch of
        /// scenarios can share one copy (and the batch engine can
        /// group scenarios by pointer identity).
        dbn: Arc<Dbn>,
        /// Inference scratch + output buffer, reused across periods.
        scratch: PredictScratch,
        out_buf: Vec<f64>,
    },
    Compiled {
        /// The compiled artifact (packed f32/int8 weights with the
        /// scaler affine baked in), behind an `Arc` so a fleet can
        /// compile once per trained network and share it.
        compiled: Arc<CompiledDbn>,
        /// Ping-pong activation scratch + output buffer, reused
        /// across periods.
        scratch: CompiledScratch,
        out_buf: Vec<f64>,
    },
    Distilled {
        /// The distilled branch-free decision artifact, behind an
        /// `Arc` so a fleet loads it once and shares it.
        policy: Arc<DistilledPolicy>,
        /// The compiled network the artifact was distilled from — the
        /// next tier of the decision chain, serving whenever the
        /// artifact is unavailable or violates its contract
        /// (distilled → compiled → the resilient wrapper's inter-task
        /// baseline).
        fallback: Arc<CompiledDbn>,
        /// Fallback forward scratch + shared output buffer.
        scratch: CompiledScratch,
        out_buf: Vec<f64>,
        /// Shared fold cache, keyed by the run-constant feature
        /// prefix (the previous period's trace powers — run constants
        /// by the same contract the decide cache's harvest table
        /// relies on). Entries persist for the whole run, so any
        /// revisited prefix (re-decisions, crash-resume replays,
        /// repeated sweeps, other scenarios on the same trace)
        /// resumes from its warm fold. Behind an `Arc`: a batch, a
        /// sharded run or a fleet service hands every distilled
        /// planner on one trace the same table via
        /// [`ProposedPlanner::from_distilled_with_table`], folding
        /// each period once fleet-wide. Never checkpointed — it is a
        /// cache rebuilt deterministically from the prefixes.
        table: Arc<FoldTable>,
        /// Latched when the artifact errors or the engine reports a
        /// contract violation: the compiled fallback serves for the
        /// rest of the run.
        demoted: bool,
        /// Periods served by the compiled fallback tier.
        tier_fallbacks: u64,
    },
    Mpc {
        predictor: Box<dyn SolarPredictor + Send>,
        horizon_periods: usize,
        dp: DpConfig,
        cache: Option<MpcCache>,
        /// Forecast scratch reused across replans: per-period predicted
        /// energies and the per-slot spread the DP consumes.
        forecast_buf: Vec<Joules>,
        solar_buf: Vec<Vec<Joules>>,
        /// The DMR-level subset table, built on first use; the graph
        /// and `keep_per_level` never change within a run, so the
        /// table is identical for every replan.
        subsets: Option<Vec<TaskSet>>,
    },
}

struct MpcCache {
    day: usize,
    capacitor: usize,
    base_flat: usize,
    plans: Vec<PeriodPlan>,
}

/// Runs the distilled per-decision fast path through the shared
/// [`FoldTable`]. The first sighting of a run-constant prefix takes
/// the flat `predict_into` walk (bit-identical to the split path, and
/// strictly cheaper for a prefix seen exactly once); the second
/// sighting — a later decision of this planner *or any other planner
/// sharing the table* — builds the fold once, and every further
/// decision resumes from it. Free function so the backend match arm
/// can borrow the planner's input buffer alongside the backend
/// fields.
#[allow(clippy::disallowed_methods)] // the sequential one-decision path *is* predict_folded's home
fn distilled_forward(
    policy: &DistilledPolicy,
    table: &FoldTable,
    input: &[f64],
    out: &mut Vec<f64>,
) -> Result<(), AnnError> {
    match table.lookup(input)? {
        Some(entry) => policy.predict_folded(entry.cursor(), entry.folded(), input, out),
        None => policy.predict_into(input, out),
    }
}

/// The proposed long-term deadline-aware online planner.
pub struct ProposedPlanner {
    backend: Backend,
    switch: SwitchRule,
    delta: f64,
    complexity: u64,
    /// DBN input scratch, reused across periods.
    input_buf: Vec<f64>,
    /// Inference fault injected for the upcoming period, if any.
    injected: Option<DbnFaultMode>,
    /// Health of the most recent plan.
    health: PlannerHealth,
    /// Shared cross-scenario precomputation, when driven by a
    /// [`BatchEngine`](crate::batch::BatchEngine).
    ctx: Option<Arc<PlanContext>>,
    /// Run-constant tables for the per-period decision, computed on
    /// first use. Like the MPC subset table, this relies on the graph
    /// and trace never changing within a run — re-deriving the
    /// dependency closure and period energies every period dominated
    /// the decision latency.
    decide_cache: Option<DbnDecideCache>,
}

/// Run-constant decision tables (see [`ProposedPlanner::decide_cache`]).
struct DbnDecideCache {
    /// Per-task ancestor closure: `{task} ∪ transitive predecessors`.
    /// Unioning these over the admitted bits equals the reference
    /// reverse-topological walk — each walk step only ever adds direct
    /// predecessors of tasks already admitted, so the closed set is
    /// exactly the union of the admitted tasks' ancestor cones.
    closure: Vec<TaskSet>,
    /// `trace.period_energy(p)` per flat period index.
    harvest: Vec<Joules>,
    /// `graph.total_energy()`.
    full_load: Joules,
}

impl ProposedPlanner {
    /// Creates the DBN-backed planner (the paper's deployed design).
    pub fn from_dbn(dbn: Dbn, delta: f64, switch: SwitchRule) -> Self {
        Self::from_shared_dbn(Arc::new(dbn), delta, switch)
    }

    /// [`ProposedPlanner::from_dbn`] on an already-shared network:
    /// every scenario in a batch clones the `Arc` instead of the
    /// weights, and the batch engine groups planners whose `Arc`s
    /// point at the same network into one batched forward.
    pub fn from_shared_dbn(dbn: Arc<Dbn>, delta: f64, switch: SwitchRule) -> Self {
        Self {
            backend: Backend::Dbn {
                dbn,
                scratch: PredictScratch::default(),
                out_buf: Vec::new(),
            },
            switch,
            delta,
            complexity: 0,
            input_buf: Vec::new(),
            injected: None,
            health: PlannerHealth::Healthy,
            ctx: None,
            decide_cache: None,
        }
    }

    /// [`ProposedPlanner::from_shared_dbn`] on an already-compiled
    /// network: the hot path runs the packed single-sample forward
    /// instead of the f64 reference. Decisions are covered by the
    /// compiled tolerance contract (see `helio_ann::compiled`), not
    /// bit-identity with the `proposed-dbn` planner.
    pub fn from_compiled_dbn(compiled: Arc<CompiledDbn>, delta: f64, switch: SwitchRule) -> Self {
        Self {
            backend: Backend::Compiled {
                scratch: compiled.make_scratch(),
                out_buf: Vec::with_capacity(compiled.output_dim()),
                compiled,
            },
            switch,
            delta,
            complexity: 0,
            input_buf: Vec::new(),
            injected: None,
            health: PlannerHealth::Healthy,
            ctx: None,
            decide_cache: None,
        }
    }

    /// Compiles `dbn` at `tier` and builds the planner around the
    /// artifact in one step (the sequential-engine convenience;
    /// batches and fleets should compile once and use
    /// [`ProposedPlanner::from_compiled_dbn`] to share the `Arc`).
    ///
    /// # Errors
    ///
    /// Returns the compile error when the network holds non-finite
    /// weights.
    pub fn compile_dbn(
        dbn: &Dbn,
        tier: CompiledTier,
        delta: f64,
        switch: SwitchRule,
    ) -> Result<Self, helio_ann::AnnError> {
        let compiled = Arc::new(CompiledDbn::compile(dbn, tier)?);
        Ok(Self::from_compiled_dbn(compiled, delta, switch))
    }

    /// Builds the planner around a distilled decision artifact with a
    /// compiled network as the next tier down: the artifact serves the
    /// per-decision hot path; the compiled forward takes over when the
    /// artifact is unavailable or violates its contract (and the
    /// resilient wrapper's inter-task baseline sits below that).
    /// Decisions are covered by the artifact's recorded agreement rate
    /// against its teacher, not bit-identity with `proposed-dbn`.
    pub fn from_distilled(
        policy: Arc<DistilledPolicy>,
        fallback: Arc<CompiledDbn>,
        delta: f64,
        switch: SwitchRule,
    ) -> Self {
        let table = Arc::new(FoldTable::new(
            Arc::clone(&policy),
            FoldTable::DEFAULT_CAPACITY,
        ));
        Self::from_distilled_with_table(table, fallback, delta, switch)
    }

    /// [`ProposedPlanner::from_distilled`] on an already-shared
    /// [`FoldTable`] (which carries the artifact): every scenario in a
    /// batch, every shard, and every fleet request on the same trace
    /// hands its planner the same table, so each period's constant
    /// prefix is prewalked and folded once fleet-wide instead of once
    /// per planner. Sharing is invisible in the output — the folded
    /// and flat paths are bit-identical — it only moves the fold cost
    /// from per-scenario to per-fleet.
    pub fn from_distilled_with_table(
        table: Arc<FoldTable>,
        fallback: Arc<CompiledDbn>,
        delta: f64,
        switch: SwitchRule,
    ) -> Self {
        let policy = Arc::clone(table.policy());
        Self {
            backend: Backend::Distilled {
                scratch: fallback.make_scratch(),
                out_buf: Vec::with_capacity(policy.output_dim()),
                policy,
                fallback,
                table,
                demoted: false,
                tier_fallbacks: 0,
            },
            switch,
            delta,
            complexity: 0,
            input_buf: Vec::new(),
            injected: None,
            health: PlannerHealth::Healthy,
            ctx: None,
            decide_cache: None,
        }
    }

    /// Creates the MPC-backed planner: re-plan each day over
    /// `horizon_periods` of forecast solar.
    pub fn mpc(
        predictor: Box<dyn SolarPredictor + Send>,
        horizon_periods: usize,
        dp: DpConfig,
        delta: f64,
        switch: SwitchRule,
    ) -> Self {
        Self {
            backend: Backend::Mpc {
                predictor,
                horizon_periods: horizon_periods.max(1),
                dp,
                cache: None,
                forecast_buf: Vec::new(),
                solar_buf: Vec::new(),
                subsets: None,
            },
            switch,
            delta,
            complexity: 0,
            input_buf: Vec::new(),
            injected: None,
            health: PlannerHealth::Healthy,
            ctx: None,
            decide_cache: None,
        }
    }

    /// The `δ` threshold in use.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    fn plan_mpc(&mut self, obs: &PlannerObservation<'_>) -> (usize, PeriodPlan) {
        let grid = obs.grid;
        let flat = grid.period_index(obs.period);
        let (predictor, horizon_periods, dp, cache, forecast_buf, solar_buf, subset_cache) =
            match &mut self.backend {
                Backend::Mpc {
                    predictor,
                    horizon_periods,
                    dp,
                    cache,
                    forecast_buf,
                    solar_buf,
                    subsets,
                } => (
                    predictor,
                    *horizon_periods,
                    *dp,
                    cache,
                    forecast_buf,
                    solar_buf,
                    subsets,
                ),
                Backend::Dbn { .. } | Backend::Compiled { .. } | Backend::Distilled { .. } => {
                    unreachable!("plan_mpc called on DBN backend")
                }
            };

        let needs_replan = match cache {
            Some(c) => c.day != obs.period.day || flat < c.base_flat,
            None => true,
        };
        if needs_replan {
            // Forecast per-period energies over the horizon and spread
            // each evenly over its slots (the DP only needs period
            // granularity; intra-period shape comes from the real slots
            // at execution time). Both buffers are refilled in place, so
            // replans after the first allocate nothing here.
            let slots = grid.slots_per_period();
            predictor.forecast_into(obs.trace, obs.period, horizon_periods, forecast_buf);
            solar_buf.resize_with(forecast_buf.len(), || Vec::with_capacity(slots));
            for (row, &e) in solar_buf.iter_mut().zip(forecast_buf.iter()) {
                row.clear();
                row.resize(slots, e / slots as f64);
            }
            let solar = &*solar_buf;
            let subsets = &*subset_cache
                .get_or_insert_with(|| dmr_level_subsets(obs.graph, dp.keep_per_level));

            let mut best: Option<(usize, crate::longterm::DpResult)> = None;
            for h in 0..obs.bank.len() {
                let size = obs.bank.cap(h).expect("h in range").capacitance();
                let cap = SuperCap::new(size, obs.storage).expect("validated params");
                let v0 = obs.bank.state(h).expect("h in range").voltage();
                let r = optimize_horizon(
                    obs.graph,
                    subsets,
                    solar,
                    grid.slot_duration(),
                    &cap,
                    cap.state_at(v0),
                    obs.storage,
                    obs.pmu,
                    &dp,
                );
                self.complexity += r.complexity;
                let better = match &best {
                    None => true,
                    Some((_, br)) => {
                        (r.total_misses, -r.final_voltage.value())
                            < (br.total_misses, -br.final_voltage.value())
                    }
                };
                if better {
                    best = Some((h, r));
                }
            }
            let (h, r) = best.expect("bank is nonempty");
            *cache = Some(MpcCache {
                day: obs.period.day,
                capacitor: h,
                base_flat: flat,
                plans: r.plans,
            });
        }

        let c = cache.as_ref().expect("just planned");
        let idx = flat - c.base_flat;
        let plan = c.plans.get(idx).copied().unwrap_or(PeriodPlan {
            subset: obs.graph.all_tasks(),
            alpha: 1.0,
            expected_misses: 0,
            cap_energy: Joules::ZERO,
        });
        (c.capacitor, plan)
    }

    /// Builds the DBN feature vector (previous-period solar powers,
    /// capacitor voltages, accumulated DMR — Fig. 6's inputs) into
    /// `input`, cleared first. Shared by the sequential path, the
    /// batch engine's gather phase (both DBN and distilled slots) and
    /// any recording/replay harness, so every consumer of the
    /// observation layout is identical by construction — this is the
    /// only place that streams `period_powers_raw` + voltages into
    /// feature space.
    #[inline(always)]
    pub fn gather_dbn_input(obs: &PlannerObservation<'_>, input: &mut Vec<f64>) {
        let grid = obs.grid;
        let flat = grid.period_index(obs.period);
        let spp = grid.slots_per_period();
        let dim = spp + obs.bank.len() + 1;
        // Size once, then write through slices: this runs every
        // period, so steady state must be straight stores — no
        // allocation, no per-element capacity checks or `Vec` length
        // bookkeeping, no re-deriving each slot's flat index.
        if input.len() != dim {
            input.clear();
            input.resize(dim, 0.0);
        }
        let (powers, rest) = input.split_at_mut(spp);
        if flat == 0 {
            powers.fill(0.0);
        } else {
            // Slot powers straight from the trace's raw watt slice;
            // the `* 1e3` matches `Watts::milliwatts` bit for bit.
            let prev = grid.period_at(flat - 1);
            for (d, &w) in powers.iter_mut().zip(obs.trace.period_powers_raw(prev)) {
                *d = w * 1e3;
            }
        }
        let (volts, dmr) = rest.split_at_mut(obs.bank.len());
        for (d, v) in volts.iter_mut().zip(obs.bank.voltages_iter()) {
            *d = v;
        }
        dmr[0] = obs.accumulated_dmr;
    }

    /// Builds the run-constant decision tables: each task's ancestor
    /// cone (so closing under dependencies is a mask union per
    /// admitted task, not a graph walk — the DBN's bits are
    /// independent sigmoids, and an admitted task drags in its
    /// predecessors), the per-period harvest, and the full task-set
    /// load. A batch-attached context supplies the topological order
    /// this build consumes.
    #[inline(never)]
    fn build_decide_cache(
        ctx: Option<&PlanContext>,
        obs: &PlannerObservation<'_>,
    ) -> DbnDecideCache {
        let owned;
        let topo: &[TaskId] = if let Some(ctx) = ctx {
            &ctx.topo
        } else {
            owned = obs
                .graph
                .topological_order()
                .expect("validated graphs are acyclic");
            &owned
        };
        // Forward-topological pass: every predecessor's cone is
        // finished before its successors union it in.
        let mut closure = vec![TaskSet::EMPTY; obs.graph.len()];
        for &id in topo {
            let mut cone = TaskSet::EMPTY.with(id.index());
            for p in obs.graph.predecessor_set(id).iter() {
                cone = cone.union(closure[p]);
            }
            closure[id.index()] = cone;
        }
        DbnDecideCache {
            closure,
            harvest: obs
                .grid
                .periods()
                .map(|p| obs.trace.period_energy(p))
                .collect(),
            full_load: obs.graph.total_energy(),
        }
    }

    #[inline(always)]
    fn decide_dbn(&mut self, obs: &PlannerObservation<'_>) -> (usize, f64, TaskSet) {
        if self.injected == Some(DbnFaultMode::Nan) {
            // Bit-flipped weights / numerical blow-up: the inference
            // completes but every output is garbage.
            if let Backend::Dbn { out_buf, .. }
            | Backend::Compiled { out_buf, .. }
            | Backend::Distilled { out_buf, .. } = &mut self.backend
            {
                out_buf.iter_mut().for_each(|o| *o = f64::NAN);
            }
        }
        // Run-constant decision tables, built once (out of line — the
        // build machinery would otherwise keep this whole body from
        // inlining into the per-period caller).
        if self.decide_cache.is_none() {
            self.decide_cache = Some(Self::build_decide_cache(self.ctx.as_deref(), obs));
        }
        let cache = self.decide_cache.as_ref().expect("just built");
        let heads = {
            let out: &[f64] = match &self.backend {
                Backend::Dbn { out_buf, .. }
                | Backend::Compiled { out_buf, .. }
                | Backend::Distilled { out_buf, .. } => out_buf,
                Backend::Mpc { .. } => unreachable!("decide_dbn called on MPC backend"),
            };
            let head_cap = out.first().copied().unwrap_or(f64::NAN);
            let head_alpha = out.get(1).copied().unwrap_or(f64::NAN);
            if head_cap.is_finite() && head_alpha.is_finite() {
                // Branchless fused parse-and-close: the per-task
                // comparisons are data-dependent coin flips (one
                // mispredict costs more than this whole loop), and
                // unioning each admitted task's ancestor cone directly
                // closes the set in the same pass. Zipping against the
                // cone table (len = graph.len()) also bounds the walk.
                let mut allowed = TaskSet::EMPTY;
                for (&b, &cone) in out[2..].iter().zip(cache.closure.iter()) {
                    allowed = allowed.union(cone.select_if(b >= 0.5));
                }
                Some((head_cap, head_alpha, allowed))
            } else {
                None
            }
        };
        let Some((head_cap, head_alpha, allowed)) = heads else {
            // Non-finite decision head — never act on it.
            self.health = PlannerHealth::NonFinite;
            return (obs.bank.active_index(), 1.0, obs.graph.all_tasks());
        };
        self.health = PlannerHealth::Healthy;
        let h_max = obs.bank.len().saturating_sub(1) as f64;
        let cap = head_cap.clamp(0.0, h_max).round() as usize;
        let alpha = head_alpha.clamp(0.0, 10.0);
        // Abundant-solar override (the Section 5.2 selection method's
        // "α too small" regime): when the most recent period's harvest
        // alone can power the whole task set through the direct
        // channel, committing to everything is dominant — it costs no
        // stored energy and completes every deadline.
        let flat = obs.grid.period_index(obs.period);
        if flat > 0 {
            let last_harvest = cache.harvest[flat - 1];
            let eta = obs.pmu.params().direct_efficiency;
            let full_load = cache.full_load;
            if last_harvest * eta * 0.85 >= full_load {
                let alpha = full_load / (last_harvest * eta);
                return (cap, alpha, obs.graph.all_tasks());
            }
        }
        (cap, alpha, allowed)
    }

    fn plan_dbn(&mut self, obs: &PlannerObservation<'_>) -> (usize, f64, TaskSet) {
        // An injected "primary inference artifact down" fault: the
        // distilled backend steps one tier down to its compiled
        // fallback (unless that tier is already serving), every other
        // backend degrades to the conservative run-everything decision
        // on the current capacitor.
        let unavailable = self.injected == Some(DbnFaultMode::Unavailable);
        if unavailable && !matches!(&self.backend, Backend::Distilled { demoted: false, .. }) {
            self.health = PlannerHealth::DbnUnavailable;
            return (obs.bank.active_index(), 1.0, obs.graph.all_tasks());
        }
        Self::gather_dbn_input(obs, &mut self.input_buf);
        // One DBN inference ≈ one state expansion worth of work.
        self.complexity += 1;
        let input = &self.input_buf;
        let predict_failed = match &mut self.backend {
            Backend::Dbn {
                dbn,
                scratch,
                out_buf,
            } => dbn.predict_into(input, scratch, out_buf).is_err(),
            Backend::Compiled {
                compiled,
                scratch,
                out_buf,
            } => compiled.forward_into(input, scratch, out_buf).is_err(),
            Backend::Distilled {
                policy,
                fallback,
                scratch,
                out_buf,
                table,
                demoted,
                tier_fallbacks,
            } => {
                if !*demoted && !unavailable {
                    match distilled_forward(policy, table, input, out_buf) {
                        Ok(()) => false,
                        Err(_) => {
                            // The artifact broke its contract (shape
                            // drift, corrupt reload): latch the
                            // demotion and let the compiled tier serve
                            // from here on.
                            *demoted = true;
                            *tier_fallbacks += 1;
                            fallback.forward_into(input, scratch, out_buf).is_err()
                        }
                    }
                } else {
                    *tier_fallbacks += 1;
                    fallback.forward_into(input, scratch, out_buf).is_err()
                }
            }
            Backend::Mpc { .. } => unreachable!("plan_dbn called on MPC backend"),
        };
        if predict_failed {
            // Shape mismatch (e.g. trained on another node) — fall
            // back to "run everything".
            self.health = PlannerHealth::DbnUnavailable;
            return (obs.bank.active_index(), 1.0, obs.graph.all_tasks());
        }
        self.decide_dbn(obs)
    }

    /// The steps both batch hooks share once the backend has offered a
    /// slot on a model with `input_dim` features:
    /// * decline under an injected "inference down" fault — the
    ///   sequential path skips the nominal inference (a distilled
    ///   backend steps one tier down);
    /// * gather the feature row;
    /// * decline on a width mismatch — the sequential path pays the
    ///   complexity increment and then fails the predict, which is
    ///   exactly what plan() does;
    /// * otherwise pay the complexity increment `plan_dbn` pays before
    ///   inferring.
    ///
    /// A Nan fault stays batchable: `decide_dbn` poisons the output
    /// after inference on both paths.
    fn accept_batch_slot(
        &mut self,
        obs: &PlannerObservation<'_>,
        input_dim: usize,
        input: &mut Vec<f64>,
    ) -> bool {
        if self.injected == Some(DbnFaultMode::Unavailable) {
            return false;
        }
        Self::gather_dbn_input(obs, input);
        if input.len() != input_dim {
            return false;
        }
        // One inference ≈ one state expansion worth of work.
        self.complexity += 1;
        true
    }
}

impl PeriodPlanner for ProposedPlanner {
    fn name(&self) -> &'static str {
        match &self.backend {
            Backend::Dbn { .. } => "proposed-dbn",
            Backend::Compiled { compiled, .. } => match compiled.tier() {
                CompiledTier::F32 => "compiled-dbn",
                CompiledTier::Int8 => "compiled-dbn-i8",
            },
            Backend::Distilled { .. } => "distilled",
            Backend::Mpc { .. } => "proposed-mpc",
        }
    }

    fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
        let (suggested_cap, alpha, allowed) = match self.backend {
            Backend::Mpc { .. } => {
                if let Some(mode) = self.injected {
                    // The MPC's compute path is its "inference engine":
                    // either fault degrades to the conservative
                    // run-everything decision on the current capacitor.
                    self.health = match mode {
                        DbnFaultMode::Unavailable => PlannerHealth::DbnUnavailable,
                        DbnFaultMode::Nan => PlannerHealth::NonFinite,
                    };
                    (obs.bank.active_index(), 1.0, obs.graph.all_tasks())
                } else {
                    self.health = PlannerHealth::Healthy;
                    let (cap, plan) = self.plan_mpc(obs);
                    (cap, plan.alpha, plan.subset)
                }
            }
            Backend::Dbn { .. } | Backend::Compiled { .. } | Backend::Distilled { .. } => {
                self.plan_dbn(obs)
            }
        };
        PlanDecision {
            capacitor: self.switch.decide(obs, suggested_cap),
            allowed: Some(allowed),
            pattern: OptimalPlanner::pattern_for_alpha(alpha, self.delta),
        }
    }

    fn complexity(&self) -> u64 {
        self.complexity
    }

    fn inject_fault(&mut self, mode: Option<DbnFaultMode>) {
        self.injected = mode;
    }

    fn health(&self) -> PlannerHealth {
        self.health
    }

    fn on_contract_violation(&mut self) {
        // The distilled tier does not get a violation budget: one
        // decision the engine had to drop demotes the artifact to its
        // compiled fallback for the rest of the run (the resilient
        // wrapper's own budget then guards the compiled tier). The
        // shared fold table is left alone — other planners on the
        // same table are unaffected by this planner's demotion.
        if let Backend::Distilled { demoted, .. } = &mut self.backend {
            *demoted = true;
        }
    }

    fn fallback_count(&self) -> usize {
        match &self.backend {
            Backend::Distilled { tier_fallbacks, .. } => {
                usize::try_from(*tier_fallbacks).unwrap_or(usize::MAX)
            }
            Backend::Dbn { .. } | Backend::Compiled { .. } | Backend::Mpc { .. } => 0,
        }
    }

    fn attach_context(&mut self, ctx: &Arc<PlanContext>) {
        self.ctx = Some(Arc::clone(ctx));
    }

    fn save_checkpoint(&self) -> PlannerCheckpoint {
        let mpc = match &self.backend {
            Backend::Mpc { cache: Some(c), .. } => Some(MpcCacheState {
                day: c.day,
                capacitor: c.capacitor,
                base_flat: c.base_flat,
                plans: c.plans.clone(),
            }),
            Backend::Mpc { cache: None, .. }
            | Backend::Dbn { .. }
            | Backend::Compiled { .. }
            | Backend::Distilled { .. } => None,
        };
        let distilled = match &self.backend {
            Backend::Distilled {
                demoted,
                tier_fallbacks,
                ..
            } => Some(DistilledState {
                demoted: *demoted,
                tier_fallbacks: *tier_fallbacks,
            }),
            Backend::Dbn { .. } | Backend::Compiled { .. } | Backend::Mpc { .. } => None,
        };
        PlannerCheckpoint::Proposed(ProposedCheckpoint {
            complexity: self.complexity,
            health: self.health,
            injected: self.injected,
            mpc,
            distilled,
        })
    }

    fn restore_checkpoint(&mut self, ckpt: &PlannerCheckpoint) -> Result<(), String> {
        let PlannerCheckpoint::Proposed(c) = ckpt else {
            return Err(format!(
                "planner `{}` expects a proposed checkpoint, got {ckpt:?}",
                self.name()
            ));
        };
        self.complexity = c.complexity;
        self.health = c.health;
        self.injected = c.injected;
        match &mut self.backend {
            Backend::Mpc { cache, .. } => {
                *cache = c.mpc.as_ref().map(|m| MpcCache {
                    day: m.day,
                    capacitor: m.capacitor,
                    base_flat: m.base_flat,
                    plans: m.plans.clone(),
                });
            }
            Backend::Dbn { .. } | Backend::Compiled { .. } | Backend::Distilled { .. } => {
                if c.mpc.is_some() {
                    return Err(format!(
                        "planner `{}` has no MPC cache but the checkpoint carries one",
                        self.name()
                    ));
                }
            }
        }
        match &mut self.backend {
            Backend::Distilled {
                demoted,
                tier_fallbacks,
                ..
            } => {
                let Some(d) = c.distilled.as_ref() else {
                    return Err(
                        "planner `distilled` needs distilled-tier state but the checkpoint has none"
                            .into(),
                    );
                };
                *demoted = d.demoted;
                *tier_fallbacks = d.tier_fallbacks;
                // The shared fold table is a rebuilt cache, not
                // checkpoint state: the checkpoint carries the key
                // (the run-constant trace prefixes), and a resumed
                // run re-folds deterministically — or keeps reading a
                // live shared table, which is bit-identical either
                // way.
            }
            Backend::Dbn { .. } | Backend::Compiled { .. } | Backend::Mpc { .. } => {
                if c.distilled.is_some() {
                    return Err(format!(
                        "planner `{}` has no distilled tier but the checkpoint carries one",
                        self.name()
                    ));
                }
            }
        }
        Ok(())
    }

    fn batch_input(&mut self, obs: &PlannerObservation<'_>, input: &mut Vec<f64>) -> bool {
        // Compiled backends decline batch slots by design: their
        // single-sample forward is the fast path, so the batch engine
        // routes them through the per-scenario `plan()` fallback and
        // batched stays identical to sequential for compiled runs.
        let Backend::Dbn { dbn, .. } = &self.backend else {
            return false;
        };
        let input_dim = dbn.input_dim();
        self.accept_batch_slot(obs, input_dim, input)
    }

    fn batch_dbn(&self) -> Option<Arc<Dbn>> {
        match &self.backend {
            Backend::Dbn { dbn, .. } => Some(Arc::clone(dbn)),
            Backend::Compiled { .. } | Backend::Distilled { .. } | Backend::Mpc { .. } => None,
        }
    }

    fn batch_distilled_input(
        &mut self,
        obs: &PlannerObservation<'_>,
        input: &mut Vec<f64>,
    ) -> bool {
        // A demoted artifact serves from its compiled fallback;
        // declining the slot routes it through plan(), which
        // reproduces the sequential tier walk exactly.
        let Backend::Distilled {
            policy,
            demoted: false,
            ..
        } = &self.backend
        else {
            return false;
        };
        let input_dim = policy.input_dim();
        self.accept_batch_slot(obs, input_dim, input)
    }

    fn batch_distilled(&self) -> Option<Arc<FoldTable>> {
        match &self.backend {
            Backend::Distilled { table, .. } => Some(Arc::clone(table)),
            Backend::Dbn { .. } | Backend::Compiled { .. } | Backend::Mpc { .. } => None,
        }
    }

    fn plan_with_output(&mut self, obs: &PlannerObservation<'_>, out: &[f64]) -> PlanDecision {
        if let Backend::Dbn { out_buf, .. }
        | Backend::Compiled { out_buf, .. }
        | Backend::Distilled { out_buf, .. } = &mut self.backend
        {
            out_buf.clear();
            out_buf.extend_from_slice(out);
        }
        let (suggested_cap, alpha, allowed) = self.decide_dbn(obs);
        PlanDecision {
            capacitor: self.switch.decide(obs, suggested_cap),
            allowed: Some(allowed),
            pattern: OptimalPlanner::pattern_for_alpha(alpha, self.delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::engine::Engine;
    use crate::planner::{FixedPlanner, Pattern};
    use helio_common::time::TimeGrid;
    use helio_common::units::{Farads, Seconds};
    use helio_solar::{DayArchetype, NoisyOracle, SolarPanel, SolarTrace, TraceBuilder};
    use helio_tasks::benchmarks;

    fn grid(days: usize) -> TimeGrid {
        TimeGrid::new(days, 24, 10, Seconds::new(60.0)).unwrap()
    }

    fn node(days: usize) -> NodeConfig {
        NodeConfig::builder(grid(days))
            .capacitors(&[Farads::new(2.0), Farads::new(15.0)])
            .build()
            .unwrap()
    }

    fn trace(days: usize) -> SolarTrace {
        TraceBuilder::new(grid(days), SolarPanel::paper_panel())
            .seed(11)
            .days(&[
                DayArchetype::Clear,
                DayArchetype::BrokenClouds,
                DayArchetype::Overcast,
                DayArchetype::Storm,
            ])
            .build()
    }

    #[test]
    fn mpc_with_perfect_oracle_beats_baselines() {
        let node = node(2);
        let t = trace(2);
        let g = benchmarks::ecg();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let mut mpc = ProposedPlanner::mpc(
            Box::new(NoisyOracle::perfect()),
            2 * 24,
            DpConfig::default(),
            0.5,
            SwitchRule::default(),
        );
        let proposed = engine.run(&mut mpc).unwrap();
        let inter = engine
            .run(&mut FixedPlanner::new(Pattern::Inter, 1))
            .unwrap();
        assert!(
            proposed.overall_dmr() <= inter.overall_dmr() + 0.02,
            "proposed {} vs inter {}",
            proposed.overall_dmr(),
            inter.overall_dmr()
        );
        assert!(proposed.complexity > 0);
    }

    #[test]
    fn switch_rule_keeps_charged_capacitor() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let storage = &node.storage;
        let mut bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        bank.set_active(0).unwrap();
        bank.charge_active(storage, Joules::new(10.0));
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        let rule = SwitchRule {
            threshold: Joules::new(2.0),
        };
        // Charged above threshold: keep.
        assert_eq!(rule.decide(&obs, 1), None);
        // Same capacitor: trivially allowed.
        assert_eq!(rule.decide(&obs, 0), Some(0));
        // Drain below threshold: switch allowed.
        let mut drained = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        drained.set_active(0).unwrap();
        let obs2 = PlannerObservation {
            bank: &drained,
            ..obs
        };
        assert_eq!(rule.decide(&obs2, 1), Some(1));
    }

    #[test]
    fn mpc_replans_once_per_day() {
        let node = node(2);
        let t = trace(2);
        let g = benchmarks::ecg();
        let engine = Engine::new(&node, &g, &t).unwrap();
        let mut mpc = ProposedPlanner::mpc(
            Box::new(NoisyOracle::perfect()),
            24,
            DpConfig {
                voltage_buckets: 6,
                keep_per_level: 1,
            },
            0.5,
            SwitchRule::default(),
        );
        engine.run(&mut mpc).unwrap();
        // 2 days × 2 capacitors × 24 periods × 6 buckets × subsets:
        // complexity must correspond to exactly two replans (not one per
        // period). With keep=1 ECG has 8 subset levels (incl. empty
        // level kept once per size 0..=6 → 7) — just bound it loosely.
        let per_day_upper = 2 * 24 * 6 * 20;
        assert!(
            mpc.complexity() <= 2 * per_day_upper as u64,
            "complexity {} suggests per-period replanning",
            mpc.complexity()
        );
    }

    #[test]
    fn injected_faults_degrade_conservatively() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let storage = &node.storage;
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        let mut p = ProposedPlanner::mpc(
            Box::new(NoisyOracle::perfect()),
            24,
            DpConfig {
                voltage_buckets: 4,
                keep_per_level: 1,
            },
            0.5,
            SwitchRule::default(),
        );
        assert_eq!(p.health(), PlannerHealth::Healthy);
        p.inject_fault(Some(DbnFaultMode::Unavailable));
        let d = p.plan(&obs);
        assert_eq!(p.health(), PlannerHealth::DbnUnavailable);
        assert_eq!(
            d.allowed,
            Some(g.all_tasks()),
            "degraded mode runs everything"
        );
        p.inject_fault(Some(DbnFaultMode::Nan));
        let _ = p.plan(&obs);
        assert_eq!(p.health(), PlannerHealth::NonFinite);
        // Clearing the fault restores the nominal path.
        p.inject_fault(None);
        let _ = p.plan(&obs);
        assert_eq!(p.health(), PlannerHealth::Healthy);
    }

    #[test]
    fn dbn_nan_outputs_are_never_acted_on() {
        let g = benchmarks::ecg();
        let node = node(1);
        let t = trace(1);
        let in_dim = 10 + 2 + 1;
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64; in_dim]).collect();
        let targets: Vec<Vec<f64>> = (0..20).map(|_| vec![1.0; 2 + g.len()]).collect();
        let dbn =
            helio_ann::Dbn::train(&inputs, &targets, &helio_ann::DbnConfig::small(2)).unwrap();
        let mut planner = ProposedPlanner::from_dbn(dbn, 0.5, SwitchRule::default());
        let storage = &node.storage;
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        planner.inject_fault(Some(DbnFaultMode::Nan));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::NonFinite);
        assert_eq!(d.allowed, Some(g.all_tasks()));
    }

    #[test]
    fn dbn_backend_round_trip() {
        // Train a tiny DBN on synthetic "always run everything on cap 0"
        // samples and check the planner emits sane decisions.
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let dbn = trained_dbn(&g);
        let mut planner = ProposedPlanner::from_dbn(dbn, 0.5, SwitchRule::default());
        let engine = Engine::new(&node, &g, &t).unwrap();
        let report = engine.run(&mut planner).unwrap();
        assert_eq!(report.planner, "proposed-dbn");
        // The all-ones teaching signal should admit everything.
        assert!(report.overall_dmr() < 1.0);
    }

    fn trained_dbn(g: &helio_tasks::TaskGraph) -> helio_ann::Dbn {
        let in_dim = 10 + 2 + 1;
        let inputs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mut v = vec![(i % 7) as f64 * 10.0; in_dim];
                v[in_dim - 1] = 0.3;
                v
            })
            .collect();
        let targets: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                let mut v = vec![0.0, 1.0];
                v.extend(vec![1.0; g.len()]);
                v
            })
            .collect();
        helio_ann::Dbn::train(&inputs, &targets, &helio_ann::DbnConfig::small(2)).unwrap()
    }

    #[test]
    fn compiled_backend_tracks_reference_dmr() {
        // Both compiled tiers must land within the tolerance-contract
        // neighbourhood of the f64 reference planner on a full run.
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let dbn = trained_dbn(&g);
        let engine = Engine::new(&node, &g, &t).unwrap();
        let reference = engine
            .run(&mut ProposedPlanner::from_shared_dbn(
                Arc::new(dbn.clone()),
                0.5,
                SwitchRule::default(),
            ))
            .unwrap();
        for (tier, name) in [
            (CompiledTier::F32, "compiled-dbn"),
            (CompiledTier::Int8, "compiled-dbn-i8"),
        ] {
            let mut planner =
                ProposedPlanner::compile_dbn(&dbn, tier, 0.5, SwitchRule::default()).unwrap();
            let report = engine.run(&mut planner).unwrap();
            assert_eq!(report.planner, name);
            assert!(
                (report.overall_dmr() - reference.overall_dmr()).abs() < 0.05,
                "{name}: compiled DMR {} vs reference {}",
                report.overall_dmr(),
                reference.overall_dmr()
            );
        }
    }

    #[test]
    fn compiled_backend_faults_degrade_conservatively() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let dbn = trained_dbn(&g);
        let mut planner =
            ProposedPlanner::compile_dbn(&dbn, CompiledTier::F32, 0.5, SwitchRule::default())
                .unwrap();
        let storage = &node.storage;
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        planner.inject_fault(Some(DbnFaultMode::Unavailable));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::DbnUnavailable);
        assert_eq!(d.allowed, Some(g.all_tasks()));
        planner.inject_fault(Some(DbnFaultMode::Nan));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::NonFinite);
        assert_eq!(d.allowed, Some(g.all_tasks()));
        planner.inject_fault(None);
        let _ = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::Healthy);
    }

    /// A teacher/student/fallback triple over the synthetic training
    /// set, with a tree small enough for debug-mode test runs.
    fn distilled_pair(
        g: &helio_tasks::TaskGraph,
    ) -> (
        Arc<helio_ann::DistilledPolicy>,
        Arc<CompiledDbn>,
        helio_ann::Dbn,
    ) {
        let dbn = trained_dbn(g);
        let compiled = Arc::new(CompiledDbn::compile(&dbn, CompiledTier::F32).unwrap());
        let cfg = helio_ann::DistillConfig {
            depth_const: 3,
            depth_vary: 3,
            samples: 2048,
            candidates: 16,
            holdout: 512,
            ..helio_ann::DistillConfig::small(3)
        };
        let policy = Arc::new(helio_ann::DistilledPolicy::distill(&dbn, 10, &[], &cfg).unwrap());
        (policy, compiled, dbn)
    }

    #[test]
    fn distilled_backend_tracks_reference_dmr() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let (policy, compiled, dbn) = distilled_pair(&g);
        let engine = Engine::new(&node, &g, &t).unwrap();
        let reference = engine
            .run(&mut ProposedPlanner::from_shared_dbn(
                Arc::new(dbn),
                0.5,
                SwitchRule::default(),
            ))
            .unwrap();
        let mut planner =
            ProposedPlanner::from_distilled(policy, compiled, 0.5, SwitchRule::default());
        let report = engine.run(&mut planner).unwrap();
        assert_eq!(report.planner, "distilled");
        assert!(
            (report.overall_dmr() - reference.overall_dmr()).abs() < 0.05,
            "distilled DMR {} vs reference {}",
            report.overall_dmr(),
            reference.overall_dmr()
        );
        assert_eq!(planner.fallback_count(), 0, "artifact served every period");
    }

    #[test]
    fn distilled_faults_step_down_one_tier_at_a_time() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let (policy, compiled, _) = distilled_pair(&g);
        let mut planner =
            ProposedPlanner::from_distilled(policy, compiled, 0.5, SwitchRule::default());
        let storage = &node.storage;
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        // Artifact down, compiled tier up: the fallback serves and the
        // planner stays healthy — the chain has only stepped down once.
        planner.inject_fault(Some(DbnFaultMode::Unavailable));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::Healthy);
        assert!(d.allowed.is_some());
        assert_eq!(planner.fallback_count(), 1);
        // A NaN forward is caught by the finite-output guard regardless
        // of which tier produced it.
        planner.inject_fault(Some(DbnFaultMode::Nan));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::NonFinite);
        assert_eq!(d.allowed, Some(g.all_tasks()));
        // A contract violation latches the demotion: the compiled tier
        // serves from here on even with no fault injected.
        planner.inject_fault(None);
        planner.on_contract_violation();
        let _ = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::Healthy);
        assert_eq!(planner.fallback_count(), 2);
        // With the artifact demoted, an unavailability fault has no
        // tier left to absorb it: conservative run-everything.
        planner.inject_fault(Some(DbnFaultMode::Unavailable));
        let d = planner.plan(&obs);
        assert_eq!(planner.health(), PlannerHealth::DbnUnavailable);
        assert_eq!(d.allowed, Some(g.all_tasks()));
    }

    #[test]
    fn distilled_checkpoint_round_trips_tier_state() {
        let node = node(1);
        let t = trace(1);
        let g = benchmarks::ecg();
        let (policy, compiled, dbn) = distilled_pair(&g);
        let storage = &node.storage;
        let bank = helio_storage::CapacitorBank::new(&node.capacitors, storage).unwrap();
        let obs = PlannerObservation {
            grid: &node.grid,
            period: helio_common::time::PeriodRef::new(0, 0),
            graph: &g,
            trace: &t,
            bank: &bank,
            accumulated_dmr: 0.0,
            storage,
            pmu: &node.pmu,
        };
        let mut a = ProposedPlanner::from_distilled(
            Arc::clone(&policy),
            Arc::clone(&compiled),
            0.5,
            SwitchRule::default(),
        );
        a.on_contract_violation();
        let _ = a.plan(&obs);
        assert_eq!(a.fallback_count(), 1);
        let ckpt = a.save_checkpoint();
        // A fresh planner restored from the checkpoint must not
        // re-trust the demoted artifact.
        let mut b = ProposedPlanner::from_distilled(policy, compiled, 0.5, SwitchRule::default());
        b.restore_checkpoint(&ckpt).unwrap();
        assert_eq!(b.fallback_count(), 1);
        let _ = b.plan(&obs);
        assert_eq!(
            b.fallback_count(),
            2,
            "restored latch keeps the fallback tier"
        );
        // Tier state is meaningless to other backends.
        let mut c =
            ProposedPlanner::compile_dbn(&dbn, CompiledTier::F32, 0.5, SwitchRule::default())
                .unwrap();
        assert!(c.restore_checkpoint(&ckpt).is_err());
    }
}
