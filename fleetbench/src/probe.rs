//! A benchmark-side [`PeriodPlanner`] wrapper that forwards every hook
//! to the planner inside and times the ones on the decision path. It
//! also captures each batched feature row, so the batched inference
//! the engine runs between the hooks can be replayed and timed on its
//! own.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use helio_ann::{Dbn, FoldTable};
use helio_faults::{DbnFaultMode, FaultEvent};
use heliosched::{
    PeriodPlanner, PlanContext, PlanDecision, PlannerCheckpoint, PlannerHealth, PlannerObservation,
};

/// Which batched path a captured row took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// `batch_input`: one row of a `Dbn::predict_batch_into` batch.
    Dbn,
    /// `batch_distilled_input`: one lane of a fold-table lookup plus
    /// `predict_batch_folded`.
    Distilled,
}

/// What one wrapped planner saw over one run.
#[derive(Debug, Default)]
pub struct ProbeStats {
    /// Time inside `batch_input` + `batch_distilled_input`.
    pub gather_ns: u64,
    /// Time inside `plan` + `plan_with_output`.
    pub decide_ns: u64,
    /// `plan_with_output` calls (decisions finished from a batched
    /// inference output).
    pub batched: u64,
    /// `plan` calls (decisions the planner made on its own).
    pub scalar: u64,
    /// Captured rows: flat period, path, and the features.
    pub rows: Vec<(usize, RowKind, Vec<f64>)>,
}

/// The wrapper. Its stats land in the shared slot when the engine
/// drops it, so the hot path touches only its own fields.
pub struct Probe {
    inner: Box<dyn PeriodPlanner>,
    stats: ProbeStats,
    slot: Arc<Mutex<ProbeStats>>,
}

impl Probe {
    /// Wraps `inner`; read the stats from the returned slot after the
    /// engine has run.
    pub fn wrap(inner: Box<dyn PeriodPlanner>) -> (Self, Arc<Mutex<ProbeStats>>) {
        let slot = Arc::new(Mutex::new(ProbeStats::default()));
        let probe = Self {
            inner,
            stats: ProbeStats::default(),
            slot: Arc::clone(&slot),
        };
        (probe, slot)
    }

    fn gathered(&mut self, obs: &PlannerObservation<'_>, kind: RowKind, input: &[f64]) {
        let flat = obs.grid.period_index(obs.period);
        self.stats.rows.push((flat, kind, input.to_vec()));
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // A poisoned slot only means another probe's owner panicked;
        // the stats written here are whole either way.
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = std::mem::take(&mut self.stats);
    }
}

/// Nanoseconds since `since`.
pub(crate) fn ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl PeriodPlanner for Probe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, obs: &PlannerObservation<'_>) -> PlanDecision {
        let t = Instant::now();
        let d = self.inner.plan(obs);
        self.stats.decide_ns += ns(t);
        self.stats.scalar += 1;
        d
    }

    fn complexity(&self) -> u64 {
        self.inner.complexity()
    }

    fn inject_fault(&mut self, mode: Option<DbnFaultMode>) {
        self.inner.inject_fault(mode);
    }

    fn health(&self) -> PlannerHealth {
        self.inner.health()
    }

    fn on_contract_violation(&mut self) {
        self.inner.on_contract_violation();
    }

    fn fallback_count(&self) -> usize {
        self.inner.fallback_count()
    }

    fn degraded_events(&self) -> Vec<FaultEvent> {
        self.inner.degraded_events()
    }

    fn dropped_events(&self) -> usize {
        self.inner.dropped_events()
    }

    fn save_checkpoint(&self) -> PlannerCheckpoint {
        self.inner.save_checkpoint()
    }

    fn restore_checkpoint(&mut self, ckpt: &PlannerCheckpoint) -> Result<(), String> {
        self.inner.restore_checkpoint(ckpt)
    }

    fn attach_context(&mut self, ctx: &Arc<PlanContext>) {
        self.inner.attach_context(ctx);
    }

    fn batch_input(&mut self, obs: &PlannerObservation<'_>, input: &mut Vec<f64>) -> bool {
        let t = Instant::now();
        let took = self.inner.batch_input(obs, input);
        self.stats.gather_ns += ns(t);
        if took {
            self.gathered(obs, RowKind::Dbn, input);
        }
        took
    }

    fn batch_dbn(&self) -> Option<Arc<Dbn>> {
        self.inner.batch_dbn()
    }

    fn batch_distilled_input(
        &mut self,
        obs: &PlannerObservation<'_>,
        input: &mut Vec<f64>,
    ) -> bool {
        let t = Instant::now();
        let took = self.inner.batch_distilled_input(obs, input);
        self.stats.gather_ns += ns(t);
        if took {
            self.gathered(obs, RowKind::Distilled, input);
        }
        took
    }

    fn batch_distilled(&self) -> Option<Arc<FoldTable>> {
        self.inner.batch_distilled()
    }

    fn plan_with_output(&mut self, obs: &PlannerObservation<'_>, out: &[f64]) -> PlanDecision {
        let t = Instant::now();
        let d = self.inner.plan_with_output(obs, out);
        self.stats.decide_ns += ns(t);
        self.stats.batched += 1;
        d
    }
}
