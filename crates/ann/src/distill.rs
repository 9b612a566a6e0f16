//! Distillation of a trained [`Dbn`] into a branch-free decision-tree
//! artifact.
//!
//! The compiled DBN path (`crate::compiled`) is latency-bound on three
//! *serial* sigmoid chains — no further SIMD on the same network shape
//! helps. This module changes the shape instead: it samples the trained
//! teacher over the feature box induced by its input scaler (plus any
//! caller-supplied trajectory samples) and fits a *linear model tree*:
//! one axis-aligned decision tree whose prediction is a fixed-count
//! walk of compares and loads followed by one small affine evaluation
//! per output — zero transcendentals, and far less arithmetic than even
//! one 16-wide sigmoid layer.
//!
//! The tree is *feature-partitioned by level* to expose the scheduler's
//! period structure: the top `depth_const` levels split only on the
//! run-constant prefix of the feature vector (the previous-period solar
//! powers, which are trace-derived and known for the whole run), the
//! bottom `depth_vary` levels only on the remaining, per-decision
//! features (supercapacitor voltages, accumulated DMR). A caller that
//! knows the constant prefix for a period calls
//! [`DistilledPolicy::prewalk`] + [`DistilledPolicy::fold`] once per
//! period — folding every constant feature's affine contribution into
//! per-leaf intercepts — and then
//! [`DistilledPolicy::predict_folded`] per decision, paying only
//! `depth_vary` compares plus `out_dim × |varying|` multiply-adds on
//! the hot path.
//!
//! The artifact is plain data (`serde`-serialisable, no host-specific
//! probes), so a fleet can build it once and share it `Arc`-style or
//! ship it between hosts; reloads predict bit-identically.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::dbn::{Dbn, PredictScratch};
use crate::error::AnnError;
use crate::matrix::Matrix;

/// Hyper-parameters for [`DistilledPolicy::distill`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistillConfig {
    /// Tree levels that split on the run-constant feature prefix
    /// `[0, const_prefix)`. May be 0 when there is no constant prefix.
    pub depth_const: usize,
    /// Tree levels that split on the varying features
    /// `[const_prefix, in_dim)`.
    pub depth_vary: usize,
    /// Number of box samples drawn uniformly over the teacher's fitted
    /// input range (widened by `range_expand`).
    pub samples: usize,
    /// Candidate split thresholds per feature, taken at sample
    /// quantiles.
    pub candidates: usize,
    /// Fractional widening of the sampled box beyond the teacher's
    /// fitted `[min, max]` range, so mildly out-of-range queries still
    /// land in trained regions.
    pub range_expand: f64,
    /// Each caller-supplied trajectory sample is replicated this many
    /// times, concentrating tree capacity on states the scheduler
    /// actually visits.
    pub extra_weight: usize,
    /// Ridge strength for the per-leaf affine fits (in standardised
    /// feature space, relative to the leaf sample count).
    pub ridge: f64,
    /// Fresh box samples held out to measure teacher/student decision
    /// agreement (stored in the artifact).
    pub holdout: usize,
    /// Deterministic seed for the sampling streams.
    pub seed: u64,
}

impl DistillConfig {
    /// A compact configuration adequate for the scheduler's ~13-input
    /// observation vectors; distils in well under a second.
    pub fn small(seed: u64) -> Self {
        Self {
            depth_const: 5,
            depth_vary: 5,
            samples: 32_768,
            candidates: 64,
            range_expand: 0.05,
            extra_weight: 4,
            ridge: 1e-4,
            holdout: 4_096,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for an empty or oversized tree,
    /// too few samples/candidates, or non-finite widening/ridge.
    pub fn validate(&self) -> Result<(), AnnError> {
        let depth = self.depth_const + self.depth_vary;
        if depth == 0 || depth > 20 {
            return Err(AnnError::BadConfig(format!(
                "tree depth must be in 1..=20, got {depth}"
            )));
        }
        if self.samples < 64 {
            return Err(AnnError::BadConfig(format!(
                "need at least 64 distillation samples, got {}",
                self.samples
            )));
        }
        if self.candidates < 2 {
            return Err(AnnError::BadConfig(format!(
                "need at least 2 split candidates per feature, got {}",
                self.candidates
            )));
        }
        if self.extra_weight == 0 {
            return Err(AnnError::BadConfig(
                "extra_weight must be at least 1".into(),
            ));
        }
        if self.holdout == 0 {
            return Err(AnnError::BadConfig(
                "holdout must be at least 1 sample".into(),
            ));
        }
        if !self.range_expand.is_finite() || self.range_expand < 0.0 {
            return Err(AnnError::BadConfig(format!(
                "range_expand must be finite and non-negative, got {}",
                self.range_expand
            )));
        }
        if !self.ridge.is_finite() || self.ridge <= 0.0 {
            return Err(AnnError::BadConfig(format!(
                "ridge must be finite and positive, got {}",
                self.ridge
            )));
        }
        Ok(())
    }
}

/// A distilled decision policy: one complete binary tree in heap
/// layout (node `n` has children `2n+1` / `2n+2`), thresholds in *raw*
/// (unscaled) feature space, and a small affine model
/// `y = bias + coef · x` at every leaf.
///
/// Prediction is branch-free in the classic decision-tree sense: a
/// fixed-count loop of `load feature index → load threshold → compare →
/// index arithmetic`, compiled to conditional moves, then one dense
/// affine evaluation. No scaling, no transcendentals.
///
/// Levels `[0, depth_const)` split only on features
/// `[0, const_prefix)`; levels `[depth_const, depth)` split only on
/// features `[const_prefix, in_dim)`. See [`DistilledPolicy::prewalk`]
/// and [`DistilledPolicy::fold`] for the per-period fast path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistilledPolicy {
    in_dim: usize,
    out_dim: usize,
    const_prefix: usize,
    depth_const: u32,
    depth_vary: u32,
    /// Split feature per internal node; `(1 << depth) - 1` entries.
    feat: Vec<u32>,
    /// Split threshold per internal node (raw feature space). A node
    /// with threshold `f64::MAX` routes every finite input left
    /// (degenerate split from an under-populated region; `MAX` rather
    /// than `+inf` so the JSON asset form round-trips bytewise).
    thresh: Vec<f64>,
    /// Leaf intercepts, `1 << depth` rows of `out_dim` outputs, in the
    /// teacher's raw output space. Quantised to `f32` — the same
    /// precision tier as the compiled network's `F32` weights: leaf
    /// evaluation runs entirely in `f32` (the decision heads are
    /// rounded/thresholded, so the ~1e-7 relative quantisation noise
    /// is far below any decision boundary) and the hot loop loads half
    /// the bytes per feature.
    leaf_bias: Vec<f32>,
    /// Leaf affine coefficients, `1 << depth` rows of
    /// `in_dim × out_dim` (feature-major: all `out_dim` coefficients
    /// of feature 0, then feature 1, …), raw feature space, quantised
    /// to `f32` like the intercepts. Feature-major keeps the hot-path
    /// accumulation a contiguous `out_dim`-wide lane update per
    /// feature — independent accumulators the compiler vectorises —
    /// instead of `out_dim` serial dot-product dependency chains.
    leaf_coef: Vec<f32>,
    /// Teacher/student decision match rate on the held-out box sample,
    /// measured at distillation time.
    agreement: f64,
}

/// Where a leaf evaluation starts: the leaf's own f32 intercept row
/// (even chain; the odd chain starts at zero), or a per-period fold
/// row holding both chains' raw f32 partial sums over the constant
/// feature prefix (`2 * out_dim` wide: even chain first, odd chain
/// second).
#[derive(Clone, Copy)]
enum LeafInit<'a> {
    Bias,
    Folded(&'a [f32]),
}

/// [`LeafInit`] with the intercept row resolved.
#[derive(Clone, Copy)]
enum LeafInitRow<'a> {
    Bias(&'a [f32]),
    Folded(&'a [f32]),
}

impl DistilledPolicy {
    /// Distils `teacher` into a linear model tree.
    ///
    /// `const_prefix` is the number of leading features that are
    /// constant within a scheduling period (the previous-period solar
    /// powers); pass 0 when no such structure exists. `extra_samples`
    /// are raw feature vectors from real trajectories (golden-scenario
    /// states); each is replicated [`DistillConfig::extra_weight`]
    /// times so the tree concentrates capacity where the scheduler
    /// actually operates.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for invalid hyper-parameters or
    /// a `const_prefix`/depth combination that leaves a tree section
    /// with no features to split on, and
    /// [`AnnError::DimensionMismatch`] for extra samples of the wrong
    /// width.
    pub fn distill(
        teacher: &Dbn,
        const_prefix: usize,
        extra_samples: &[Vec<f64>],
        cfg: &DistillConfig,
    ) -> Result<Self, AnnError> {
        cfg.validate()?;
        let in_dim = teacher.input_dim();
        let out_dim = teacher.output_dim();
        if const_prefix > in_dim {
            return Err(AnnError::BadConfig(format!(
                "const_prefix {const_prefix} exceeds input dim {in_dim}"
            )));
        }
        if cfg.depth_const > 0 && const_prefix == 0 {
            return Err(AnnError::BadConfig(
                "depth_const > 0 requires a nonzero const_prefix".into(),
            ));
        }
        if cfg.depth_vary > 0 && const_prefix == in_dim {
            return Err(AnnError::BadConfig(
                "depth_vary > 0 requires varying features beyond const_prefix".into(),
            ));
        }
        for s in extra_samples {
            if s.len() != in_dim {
                return Err(AnnError::dims(
                    format!("{in_dim} features"),
                    format!("{}", s.len()),
                ));
            }
        }

        // Sampling box: the teacher's fitted range, widened so mildly
        // out-of-range queries still land in trained regions. Constant
        // features (span 0) stay pinned.
        let mins = teacher.input_scaler().mins();
        let maxs = teacher.input_scaler().maxs();
        let mut lo = vec![0.0; in_dim];
        let mut hi = vec![0.0; in_dim];
        for i in 0..in_dim {
            let span = maxs[i] - mins[i];
            let pad = if span > 0.0 {
                span * cfg.range_expand
            } else {
                0.0
            };
            lo[i] = mins[i] - pad;
            hi[i] = maxs[i] + pad;
        }

        // Training set: box samples + weighted trajectory samples,
        // labelled by the teacher.
        let mut rng = helio_common::rng::derive(cfg.seed, "distill-box");
        let n = cfg.samples + extra_samples.len() * cfg.extra_weight;
        let mut xs = Matrix::zeros(n, in_dim);
        for r in 0..cfg.samples {
            let row = xs.row_mut(r);
            for i in 0..in_dim {
                let u: f64 = rng.gen();
                row[i] = lo[i] + u * (hi[i] - lo[i]);
            }
        }
        for (e, s) in extra_samples.iter().enumerate() {
            for w in 0..cfg.extra_weight {
                xs.row_mut(cfg.samples + e * cfg.extra_weight + w)
                    .copy_from_slice(s);
            }
        }
        let mut ys = Matrix::zeros(n, out_dim);
        let mut scratch = PredictScratch::default();
        let mut out = Vec::with_capacity(out_dim);
        for r in 0..n {
            teacher.predict_into(xs.row(r), &mut scratch, &mut out)?;
            ys.row_mut(r).copy_from_slice(&out);
        }

        // Global per-feature and per-output moments: features are
        // standardised inside the leaf fits (the raw scales differ by
        // orders of magnitude), outputs are weighted `1/std` in the
        // split criterion so a wide head (α spans 0..10) cannot crowd
        // out the near-binary task bits.
        let (feat_mean, feat_std) = column_moments(&xs, in_dim);
        let (_, out_std) = column_moments(&ys, out_dim);
        let out_weight: Vec<f64> = out_std
            .iter()
            .map(|s| if *s > 1e-9 { 1.0 / s } else { 1.0 })
            .collect();

        let depth = cfg.depth_const + cfg.depth_vary;
        let internal = (1usize << depth) - 1;
        let leaves = 1usize << depth;
        let mut fit = Fit {
            xs: &xs,
            ys: &ys,
            feat: vec![0; internal],
            thresh: vec![f64::MAX; internal],
            leaf_bias: vec![0.0; leaves * out_dim],
            leaf_coef: vec![0.0; leaves * out_dim * in_dim],
            depth,
            depth_const: cfg.depth_const,
            const_prefix,
            in_dim,
            out_dim,
            candidates: cfg.candidates,
            ridge: cfg.ridge,
            out_weight,
            feat_mean,
            feat_std,
        };
        let root_idx: Vec<usize> = (0..n).collect();
        let root_mean = column_means(&ys, &root_idx, out_dim);
        fit.grow(0, 0, root_idx, &root_mean);

        let mut policy = Self {
            in_dim,
            out_dim,
            const_prefix,
            depth_const: cfg.depth_const as u32,
            depth_vary: cfg.depth_vary as u32,
            feat: fit.feat,
            thresh: fit.thresh,
            // The ridge fits run in f64; the artifact keeps the f32
            // quantisation so the stored agreement below measures the
            // precision actually deployed.
            leaf_bias: fit.leaf_bias.iter().map(|&v| v as f32).collect(),
            leaf_coef: fit.leaf_coef.iter().map(|&v| v as f32).collect(),
            agreement: 0.0,
        };

        // Held-out agreement: fresh box samples, decision-level match
        // against the teacher (rounded heads, thresholded bits).
        let mut hold_rng = helio_common::rng::derive(cfg.seed, "distill-holdout");
        let mut x = vec![0.0; in_dim];
        let mut student = Vec::with_capacity(out_dim);
        let mut matches = 0usize;
        for _ in 0..cfg.holdout {
            for i in 0..in_dim {
                let u: f64 = hold_rng.gen();
                x[i] = lo[i] + u * (hi[i] - lo[i]);
            }
            teacher.predict_into(&x, &mut scratch, &mut out)?;
            policy.predict_into(&x, &mut student)?;
            if decisions_match(&out, &student) {
                matches += 1;
            }
        }
        policy.agreement = matches as f64 / cfg.holdout as f64;
        Ok(policy)
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of leading features treated as period-constant.
    pub fn const_prefix(&self) -> usize {
        self.const_prefix
    }

    /// Total tree depth (constant + varying levels).
    pub fn depth(&self) -> usize {
        (self.depth_const + self.depth_vary) as usize
    }

    /// Tree levels walked by [`DistilledPolicy::prewalk`].
    pub fn depth_const_levels(&self) -> usize {
        self.depth_const as usize
    }

    /// Tree levels walked by [`DistilledPolicy::predict_folded`].
    pub fn depth_vary_levels(&self) -> usize {
        self.depth_vary as usize
    }

    /// Length of the per-period fold buffer written by
    /// [`DistilledPolicy::fold`]: one partial-sum row per leaf under a
    /// prewalk cursor, each `2 * out_dim` wide (the even-indexed and
    /// odd-indexed feature chains of the two-chain accumulation are
    /// folded separately, as raw f32 partials, so the finish resumes
    /// both bit-exactly with no narrowing work).
    pub fn fold_len(&self) -> usize {
        (1usize << self.depth_vary) * 2 * self.out_dim
    }

    /// Teacher/student decision match rate on the distillation holdout
    /// (1.0 = every held-out sample produced the identical decision).
    pub fn agreement(&self) -> f64 {
        self.agreement
    }

    fn internal_nodes(&self) -> usize {
        (1usize << self.depth()) - 1
    }

    /// Walks the `depth_const` constant levels of the tree for one
    /// period. Only features `[0, const_prefix)` of `x` are read, so a
    /// slice holding just the constant prefix is accepted. The returned
    /// cursor is valid for [`DistilledPolicy::fold`] /
    /// [`DistilledPolicy::predict_folded`] on any query sharing the
    /// same constant prefix — cache it once per period.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `x` is shorter than
    /// `const_prefix`.
    #[inline]
    pub fn prewalk(&self, x: &[f64]) -> Result<u32, AnnError> {
        if x.len() < self.const_prefix {
            return Err(Self::prefix_err(self.const_prefix, x.len()));
        }
        let mut n = 0usize;
        for _ in 0..self.depth_const {
            let f = self.feat[n] as usize;
            n = 2 * n + 1 + usize::from(x[f] > self.thresh[n]);
        }
        Ok(n as u32)
    }

    /// Cold constructors for the hot-path dimension errors: keeping the
    /// `format!` machinery out of line is what lets the walk/evaluate
    /// bodies inline into their per-decision callers.
    #[cold]
    #[inline(never)]
    fn prefix_err(want: usize, got: usize) -> AnnError {
        AnnError::dims(format!("at least {want} features"), format!("{got}"))
    }

    #[cold]
    #[inline(never)]
    fn width_err(what: &str, want: usize, got: usize) -> AnnError {
        AnnError::dims(format!("{want} {what}"), format!("{got}"))
    }

    /// Folds the constant-prefix contribution of every leaf under
    /// `cursor` into per-leaf intercepts. Call once per period (cursor and constant features change only at
    /// period boundaries); `folded` is resized to
    /// [`DistilledPolicy::fold_len`] and is reusable across calls
    /// without reallocating. Only features `[0, const_prefix)` of `x`
    /// are read.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `x` is shorter than
    /// `const_prefix` or `cursor` is out of range.
    #[inline]
    pub fn fold(&self, cursor: u32, x: &[f64], folded: &mut Vec<f32>) -> Result<(), AnnError> {
        if x.len() < self.const_prefix {
            return Err(Self::prefix_err(self.const_prefix, x.len()));
        }
        let m = self.cursor_offset(cursor)?;
        let vary_leaves = 1usize << self.depth_vary;
        let row = 2 * self.out_dim;
        folded.clear();
        folded.resize(self.fold_len(), 0.0);
        for rel in 0..vary_leaves {
            let leaf = m * vary_leaves + rel;
            // Each partial row holds the two raw f32 running chains,
            // so `predict_folded` resumes the flat path's accumulation
            // sequence bit for bit.
            self.accumulate_leaf_partial(
                leaf,
                self.const_prefix,
                x,
                &mut folded[rel * row..(rel + 1) * row],
            );
        }
        Ok(())
    }

    /// Finishes a prediction from a [`DistilledPolicy::prewalk`] cursor
    /// and its [`DistilledPolicy::fold`] buffer: walks the `depth_vary`
    /// varying levels and evaluates the leaf affine model over only the
    /// varying features `[const_prefix, in_dim)`. Allocation-free once
    /// `out` has grown to `out_dim` — this is the per-decision hot
    /// path. Bit-identical to [`DistilledPolicy::predict_into`] on the
    /// full feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `x` or `folded`
    /// have the wrong width or `cursor` is out of range.
    #[inline]
    pub fn predict_folded(
        &self,
        cursor: u32,
        folded: &[f32],
        x: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        if x.len() != self.in_dim {
            return Err(Self::width_err("features", self.in_dim, x.len()));
        }
        if folded.len() != self.fold_len() {
            return Err(Self::width_err(
                "folded intercepts",
                self.fold_len(),
                folded.len(),
            ));
        }
        let m = self.cursor_offset(cursor)?;
        let mut n = cursor as usize;
        for _ in 0..self.depth_vary {
            let f = self.feat[n] as usize;
            n = 2 * n + 1 + usize::from(x[f] > self.thresh[n]);
        }
        let leaf = n - self.internal_nodes();
        let rel = leaf - m * (1usize << self.depth_vary);
        let od = self.out_dim;
        let row = 2 * od;
        out.clear();
        out.resize(od, 0.0);
        self.accumulate_leaf(
            leaf,
            self.const_prefix,
            self.in_dim,
            x,
            LeafInit::Folded(&folded[rel * row..(rel + 1) * row]),
            out,
        );
        Ok(())
    }

    /// Full prediction: constant walk, fold of the constant prefix into
    /// the leaf intercept, varying walk, affine finish — the same
    /// operations in the same order as the
    /// [`DistilledPolicy::prewalk`] / [`DistilledPolicy::fold`] /
    /// [`DistilledPolicy::predict_folded`] split, so both paths are
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    #[inline(always)]
    pub fn predict_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<(), AnnError> {
        if x.len() != self.in_dim {
            return Err(Self::width_err("features", self.in_dim, x.len()));
        }
        let cursor = self.prewalk(x)?;
        let mut n = cursor as usize;
        for _ in 0..self.depth_vary {
            let f = self.feat[n] as usize;
            n = 2 * n + 1 + usize::from(x[f] > self.thresh[n]);
        }
        let leaf = n - self.internal_nodes();
        let od = self.out_dim;
        out.clear();
        out.resize(od, 0.0);
        // Feature-ascending two-chain accumulation — constant prefix
        // first, varying tail second, the exact operation sequence of
        // `fold` + `predict_folded` (each parity chain is a strictly
        // sequential f32 sum, so splitting both at any feature
        // boundary changes no rounding).
        self.accumulate_leaf(leaf, 0, self.in_dim, x, LeafInit::Bias, out);
        Ok(())
    }

    /// Allocating convenience wrapper over
    /// [`DistilledPolicy::predict_into`] (tests and one-off queries).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    pub fn predict(&self, x: &[f64]) -> Result<Vec<f64>, AnnError> {
        let mut out = Vec::with_capacity(self.out_dim);
        self.predict_into(x, &mut out)?;
        Ok(out)
    }

    /// Batched decision finish over many scenario lanes sharing this
    /// artifact. `entries[lane]` carries the lane's shared-fold state
    /// (normally straight out of [`FoldTable::lookup`]): `Some`
    /// resumes the period fold exactly like
    /// [`DistilledPolicy::predict_folded`], `None` takes the flat
    /// [`DistilledPolicy::predict_into`] path (a prefix the table has
    /// seen only once). `inputs` is lane-major
    /// (`entries.len() * in_dim` features), `out` is resized to
    /// `entries.len() * out_dim` — allocation-free once grown.
    ///
    /// Every lane runs the same two parity-interleaved f32
    /// accumulation chains as the sequential paths — on AVX-512 hosts
    /// as one masked 16-float register per chain (plain mul-then-add,
    /// never FMA), elsewhere through the scalar twin — so the batched
    /// output is bit-identical to calling
    /// `predict_folded`/`predict_into` lane by lane.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `inputs` is not
    /// `entries.len() * in_dim` wide or a fold entry does not match
    /// this artifact's fold length / cursor range (entries must come
    /// from a [`FoldTable`] built over this policy).
    pub fn predict_batch_folded(
        &self,
        entries: &[Option<Arc<FoldEntry>>],
        inputs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        #[cfg(target_arch = "x86_64")]
        let wide = self.out_dim <= 16 && std::arch::is_x86_feature_detected!("avx512f");
        #[cfg(not(target_arch = "x86_64"))]
        let wide = false;
        self.predict_batch_impl(entries, inputs, out, wide)
    }

    /// [`DistilledPolicy::predict_batch_folded`] pinned to the scalar
    /// twin — the SIMD/scalar identity gates diff against this.
    #[doc(hidden)]
    pub fn predict_batch_folded_scalar(
        &self,
        entries: &[Option<Arc<FoldEntry>>],
        inputs: &[f64],
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        self.predict_batch_impl(entries, inputs, out, false)
    }

    fn predict_batch_impl(
        &self,
        entries: &[Option<Arc<FoldEntry>>],
        inputs: &[f64],
        out: &mut Vec<f64>,
        wide: bool,
    ) -> Result<(), AnnError> {
        let od = self.out_dim;
        let want = entries.len() * self.in_dim;
        if inputs.len() != want {
            return Err(Self::width_err("lane-major features", want, inputs.len()));
        }
        out.clear();
        out.resize(entries.len() * od, 0.0);
        let row = 2 * od;
        for (lane, entry) in entries.iter().enumerate() {
            let x = &inputs[lane * self.in_dim..(lane + 1) * self.in_dim];
            let dst = &mut out[lane * od..(lane + 1) * od];
            // Walk start, accumulation window start, and leaf init are
            // the only things that differ between the folded and flat
            // lanes; the walk and the finish below are shared.
            let (cursor, t0, folded) = match entry {
                Some(e) => {
                    if e.folded.len() != self.fold_len() {
                        return Err(Self::width_err(
                            "folded intercepts",
                            self.fold_len(),
                            e.folded.len(),
                        ));
                    }
                    (e.cursor, self.const_prefix, Some(&e.folded))
                }
                None => (self.prewalk(x)?, 0, None),
            };
            let m = self.cursor_offset(cursor)?;
            let mut n = cursor as usize;
            for _ in 0..self.depth_vary {
                let f = self.feat[n] as usize;
                n = 2 * n + 1 + usize::from(x[f] > self.thresh[n]);
            }
            let leaf = n - self.internal_nodes();
            let init = match folded {
                Some(f) => {
                    let rel = leaf - m * (1usize << self.depth_vary);
                    LeafInit::Folded(&f[rel * row..(rel + 1) * row])
                }
                None => LeafInit::Bias,
            };
            self.leaf_finish(wide, leaf, t0, x, init, dst);
        }
        Ok(())
    }

    /// Leaf-evaluation dispatch for the batched path: the masked
    /// AVX-512 kernel when the caller's probe allows it, the scalar
    /// twin ([`DistilledPolicy::accumulate_leaf`]) otherwise.
    #[inline(always)]
    fn leaf_finish(
        &self,
        wide: bool,
        leaf: usize,
        t0: usize,
        x: &[f64],
        init: LeafInit<'_>,
        dst: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if wide {
            // SAFETY: `wide` is only set after an `avx512f` runtime
            // probe succeeded with `out_dim <= 16`.
            unsafe { self.accumulate_leaf_avx512(leaf, t0, x, init, dst) };
            return;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = wide;
        self.accumulate_leaf(leaf, t0, self.in_dim, x, init, dst);
    }

    /// Evaluates the leaf model `dst[d] = init[d] + Σ coef[t][d]·x[t]`
    /// over features `[t0, t1)` of leaf `leaf`, writing the combined
    /// f64-widened result into `dst` (length `out_dim`).
    ///
    /// The whole evaluation runs in `f32` (the artifact's storage
    /// precision) as **two independent accumulation chains** — one
    /// over even-indexed features, one over odd-indexed (parity of
    /// the *global* feature index, so any `[t0, t1)` window routes
    /// each feature to the same chain). A single strictly sequential
    /// chain of thirteen float adds per output was the latency floor;
    /// two chains halve the dependency depth and the CPU overlaps
    /// them. The even chain starts from the intercept, the odd chain
    /// from zero, and the output is the f32 sum `even + odd` widened
    /// to f64.
    ///
    /// [`DistilledPolicy::accumulate_leaf_partial`] stops the same
    /// accumulation at a feature boundary and stores both raw f32
    /// chains; resuming from them via [`LeafInit::Folded`] reproduces
    /// the unsplit evaluation bit for bit (each chain is a strictly
    /// sequential f32 sum, so splitting at any boundary changes no
    /// rounding).
    ///
    /// Dispatches to a const-width body for the scheduler's decision
    /// widths (the lane count known at compile time keeps the
    /// accumulators in registers with no per-feature vector-loop
    /// prologue).
    ///
    /// `inline(always)`: the callers are the (themselves inlined)
    /// predict bodies, and the out-of-line version pays a
    /// ten-register prologue per decision.
    #[inline(always)]
    fn accumulate_leaf(
        &self,
        leaf: usize,
        t0: usize,
        t1: usize,
        x: &[f64],
        init: LeafInit<'_>,
        dst: &mut [f64],
    ) {
        let od = self.out_dim;
        let lc = leaf * self.in_dim * od;
        let xs = &x[t0..t1];
        let coefs = &self.leaf_coef[lc + t0 * od..lc + t1 * od];
        let init = match init {
            LeafInit::Bias => LeafInitRow::Bias(&self.leaf_bias[leaf * od..(leaf + 1) * od]),
            LeafInit::Folded(row) => LeafInitRow::Folded(row),
        };
        match od {
            8 => Self::leaf_rows_fixed::<8>(coefs, xs, t0, init, dst),
            10 => Self::leaf_rows_fixed::<10>(coefs, xs, t0, init, dst),
            12 => Self::leaf_rows_fixed::<12>(coefs, xs, t0, init, dst),
            16 => Self::leaf_rows_fixed::<16>(coefs, xs, t0, init, dst),
            _ => Self::leaf_rows_dyn(coefs, xs, t0, init, dst),
        }
    }

    /// The fold-building counterpart of
    /// [`DistilledPolicy::accumulate_leaf`]: accumulates the leaf
    /// model over the constant prefix `[0, t_split)` and stores the
    /// two raw f32 chains into `dst` (length `2 * out_dim`: even
    /// chain first, odd chain second). Runs once per period per leaf,
    /// so it takes the lane-blocked dynamic body unconditionally.
    fn accumulate_leaf_partial(&self, leaf: usize, t_split: usize, x: &[f64], dst: &mut [f32]) {
        let od = self.out_dim;
        let lc = leaf * self.in_dim * od;
        let coefs = &self.leaf_coef[lc..lc + t_split * od];
        let bias = &self.leaf_bias[leaf * od..(leaf + 1) * od];
        const B: usize = 16;
        let mut lane = 0;
        while lane < od {
            let w = B.min(od - lane);
            let mut even = [0.0f32; B];
            let mut odd = [0.0f32; B];
            even[..w].copy_from_slice(&bias[lane..lane + w]);
            let mut it = coefs.chunks_exact(od).zip(&x[..t_split]);
            while let Some((row, &v)) = it.next() {
                let vf = v as f32;
                for (a, &c) in even[..w].iter_mut().zip(&row[lane..lane + w]) {
                    *a += c * vf;
                }
                let Some((row, &v)) = it.next() else { break };
                let vf = v as f32;
                for (a, &c) in odd[..w].iter_mut().zip(&row[lane..lane + w]) {
                    *a += c * vf;
                }
            }
            dst[lane..lane + w].copy_from_slice(&even[..w]);
            dst[od + lane..od + lane + w].copy_from_slice(&odd[..w]);
            lane += w;
        }
    }

    /// [`DistilledPolicy::accumulate_leaf`] body with the output
    /// width as a compile-time constant (`N == out_dim`).
    #[inline(always)]
    fn leaf_rows_fixed<const N: usize>(
        coefs: &[f32],
        xs: &[f64],
        t0: usize,
        init: LeafInitRow<'_>,
        dst: &mut [f64],
    ) {
        let mut even = [0.0f32; N];
        let mut odd = [0.0f32; N];
        match init {
            LeafInitRow::Bias(b) => even.copy_from_slice(&b[..N]),
            LeafInitRow::Folded(f) => {
                even.copy_from_slice(&f[..N]);
                odd.copy_from_slice(&f[N..2 * N]);
            }
        }
        // `chunks_exact` + slice zips: no per-iteration bounds checks
        // or iterator-adapter state, just one wide multiply-add block
        // per feature, alternating between the two chains.
        let mut it = coefs.chunks_exact(N).zip(xs);
        if t0 % 2 == 1 {
            if let Some((row, &v)) = it.next() {
                let vf = v as f32;
                for (a, &c) in odd.iter_mut().zip(row) {
                    *a += c * vf;
                }
            }
        }
        while let Some((row, &v)) = it.next() {
            let vf = v as f32;
            for (a, &c) in even.iter_mut().zip(row) {
                *a += c * vf;
            }
            let Some((row, &v)) = it.next() else { break };
            let vf = v as f32;
            for (a, &c) in odd.iter_mut().zip(row) {
                *a += c * vf;
            }
        }
        for ((d, &e), &o) in dst.iter_mut().zip(even.iter()).zip(odd.iter()) {
            *d = f64::from(e + o);
        }
    }

    /// [`DistilledPolicy::accumulate_leaf`] body for widths without a
    /// const-dispatched variant: output lanes are processed in
    /// register-resident blocks so the per-lane operation sequence —
    /// and therefore every rounding — matches the fixed bodies, and
    /// no scratch is allocated.
    fn leaf_rows_dyn(coefs: &[f32], xs: &[f64], t0: usize, init: LeafInitRow<'_>, dst: &mut [f64]) {
        const B: usize = 16;
        let od = dst.len();
        let mut lane = 0;
        while lane < od {
            let w = B.min(od - lane);
            let mut even = [0.0f32; B];
            let mut odd = [0.0f32; B];
            match init {
                LeafInitRow::Bias(b) => even[..w].copy_from_slice(&b[lane..lane + w]),
                LeafInitRow::Folded(f) => {
                    even[..w].copy_from_slice(&f[lane..lane + w]);
                    odd[..w].copy_from_slice(&f[od + lane..od + lane + w]);
                }
            }
            let mut it = coefs.chunks_exact(od).zip(xs);
            if t0 % 2 == 1 {
                if let Some((row, &v)) = it.next() {
                    let vf = v as f32;
                    for (a, &c) in odd[..w].iter_mut().zip(&row[lane..lane + w]) {
                        *a += c * vf;
                    }
                }
            }
            while let Some((row, &v)) = it.next() {
                let vf = v as f32;
                for (a, &c) in even[..w].iter_mut().zip(&row[lane..lane + w]) {
                    *a += c * vf;
                }
                let Some((row, &v)) = it.next() else { break };
                let vf = v as f32;
                for (a, &c) in odd[..w].iter_mut().zip(&row[lane..lane + w]) {
                    *a += c * vf;
                }
            }
            for ((d, &e), &o) in dst[lane..lane + w]
                .iter_mut()
                .zip(even.iter())
                .zip(odd.iter())
            {
                *d = f64::from(e + o);
            }
            lane += w;
        }
    }

    /// [`DistilledPolicy::accumulate_leaf`] with both parity chains
    /// held in one masked 16-float ZMM register each. Per output lane
    /// the operation sequence is the scalar twin's exactly — broadcast
    /// the feature, `vmulps` against the coefficient row, `vaddps`
    /// into the chain of the feature's global parity, finish with one
    /// f32 `even + odd` widened to f64. No FMA anywhere: the artifact
    /// owes bit-identity, and a fused multiply-add rounds once where
    /// the scalar path rounds twice.
    ///
    /// # Safety
    ///
    /// The caller must have verified that the host supports `avx512f`
    /// and that `out_dim <= 16` (the mask covers one register).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn accumulate_leaf_avx512(
        &self,
        leaf: usize,
        t0: usize,
        x: &[f64],
        init: LeafInit<'_>,
        dst: &mut [f64],
    ) {
        use std::arch::x86_64::{
            __mmask16, _mm512_add_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps,
            _mm512_set1_ps, _mm512_setzero_ps,
        };
        let od = self.out_dim;
        debug_assert!(od <= 16 && dst.len() == od);
        let mask: __mmask16 = if od == 16 { !0 } else { (1u16 << od) - 1 };
        let lc = leaf * self.in_dim * od;
        let xs = &x[t0..self.in_dim];
        let coefs = &self.leaf_coef[lc + t0 * od..lc + self.in_dim * od];
        // SAFETY: the masked loads touch exactly the first `od` floats
        // of each row; `validate` pins `leaf_bias`/`leaf_coef` to
        // `leaves * od` / `leaves * in_dim * od`, and a fold row is
        // `2 * od` wide, so every enabled mask lane is in bounds.
        let (mut even, mut odd) = match init {
            LeafInit::Bias => {
                let b = &self.leaf_bias[leaf * od..(leaf + 1) * od];
                (_mm512_maskz_loadu_ps(mask, b.as_ptr()), _mm512_setzero_ps())
            }
            LeafInit::Folded(f) => (
                _mm512_maskz_loadu_ps(mask, f.as_ptr()),
                // SAFETY: `f` is one fold row, `2 * od` floats.
                _mm512_maskz_loadu_ps(mask, f.as_ptr().add(od)),
            ),
        };
        for (t, (row, &v)) in coefs.chunks_exact(od).zip(xs).enumerate() {
            let vf = _mm512_set1_ps(v as f32);
            // SAFETY: `row` is exactly `od` floats (`chunks_exact`).
            let c = _mm512_maskz_loadu_ps(mask, row.as_ptr());
            let prod = _mm512_mul_ps(c, vf);
            if (t0 + t).is_multiple_of(2) {
                even = _mm512_add_ps(even, prod);
            } else {
                odd = _mm512_add_ps(odd, prod);
            }
        }
        let sum = _mm512_add_ps(even, odd);
        let mut buf = [0.0f32; 16];
        // SAFETY: `buf` holds a full register's 16 floats.
        _mm512_mask_storeu_ps(buf.as_mut_ptr(), mask, sum);
        for (d, &s) in dst.iter_mut().zip(buf.iter()) {
            *d = f64::from(s);
        }
    }

    /// Validates a cursor and returns its offset among the
    /// constant-level boundary nodes.
    #[inline]
    fn cursor_offset(&self, cursor: u32) -> Result<usize, AnnError> {
        let first = (1usize << self.depth_const) - 1;
        let n = cursor as usize;
        if n < first || n > 2 * first {
            return Err(Self::cursor_err(first, n));
        }
        Ok(n - first)
    }

    #[cold]
    #[inline(never)]
    fn cursor_err(first: usize, got: usize) -> AnnError {
        AnnError::dims(
            format!("cursor in [{first}, {}]", 2 * first),
            format!("{got}"),
        )
    }

    /// Structural validation: every array has the advertised length,
    /// every node splits on a feature its level is allowed to read, and
    /// every leaf model is finite. Called on deserialisation so the
    /// indexing in the walk methods is panic-free on any artifact that
    /// passes.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] describing the first violation.
    pub fn validate(&self) -> Result<(), AnnError> {
        if self.in_dim == 0 || self.out_dim == 0 {
            return Err(AnnError::BadConfig("empty input or output dim".into()));
        }
        if self.const_prefix > self.in_dim {
            return Err(AnnError::BadConfig(format!(
                "const_prefix {} exceeds input dim {}",
                self.const_prefix, self.in_dim
            )));
        }
        let depth = self.depth();
        if depth == 0 || depth > 20 {
            return Err(AnnError::BadConfig(format!(
                "tree depth must be in 1..=20, got {depth}"
            )));
        }
        let internal = (1usize << depth) - 1;
        if self.feat.len() != internal || self.thresh.len() != internal {
            return Err(AnnError::BadConfig(format!(
                "expected {internal} internal nodes, got {} features / {} thresholds",
                self.feat.len(),
                self.thresh.len()
            )));
        }
        let leaves = 1usize << depth;
        if self.leaf_bias.len() != leaves * self.out_dim {
            return Err(AnnError::BadConfig(format!(
                "expected {} leaf intercepts, got {}",
                leaves * self.out_dim,
                self.leaf_bias.len()
            )));
        }
        if self.leaf_coef.len() != leaves * self.out_dim * self.in_dim {
            return Err(AnnError::BadConfig(format!(
                "expected {} leaf coefficients, got {}",
                leaves * self.out_dim * self.in_dim,
                self.leaf_coef.len()
            )));
        }
        for level in 0..depth {
            let (fl, fh) = if level < self.depth_const as usize {
                (0, self.const_prefix)
            } else {
                (self.const_prefix, self.in_dim)
            };
            let start = (1usize << level) - 1;
            let end = (1usize << (level + 1)) - 1;
            for n in start..end {
                let f = self.feat[n] as usize;
                if f < fl || f >= fh {
                    return Err(AnnError::BadConfig(format!(
                        "node {n} (level {level}) splits on feature {f}, allowed [{fl}, {fh})"
                    )));
                }
                if !self.thresh[n].is_finite() {
                    return Err(AnnError::BadConfig(format!(
                        "node {n} has non-finite threshold"
                    )));
                }
            }
        }
        if self.leaf_bias.iter().any(|v| !v.is_finite())
            || self.leaf_coef.iter().any(|v| !v.is_finite())
        {
            return Err(AnnError::BadConfig("non-finite leaf model".into()));
        }
        if !self.agreement.is_finite() || !(0.0..=1.0).contains(&self.agreement) {
            return Err(AnnError::BadConfig(format!(
                "agreement {} outside [0, 1]",
                self.agreement
            )));
        }
        Ok(())
    }

    /// Serialises the artifact to JSON (deployable policy asset).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] when serialisation fails (should
    /// not happen for well-formed artifacts).
    pub fn to_json(&self) -> Result<String, AnnError> {
        serde_json::to_string(self).map_err(|e| AnnError::BadConfig(e.to_string()))
    }

    /// Restores and validates an artifact serialised with
    /// [`DistilledPolicy::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for malformed JSON or a
    /// structurally invalid artifact.
    pub fn from_json(json: &str) -> Result<Self, AnnError> {
        let policy: Self =
            serde_json::from_str(json).map_err(|e| AnnError::BadConfig(e.to_string()))?;
        policy.validate()?;
        Ok(policy)
    }
}

/// One period's shared prewalk/fold product: the constant-level tree
/// cursor and the folded per-leaf partial chains for one run-constant
/// feature prefix. Built by [`FoldTable::lookup`] (or directly via
/// [`FoldEntry::build`]) and read behind an `Arc` by every scenario
/// lane whose period shares the prefix.
#[derive(Debug)]
pub struct FoldEntry {
    cursor: u32,
    folded: Box<[f32]>,
}

impl FoldEntry {
    /// Prewalks and folds the constant prefix of `x` into a shareable
    /// entry for `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `x` is shorter
    /// than the policy's constant prefix.
    pub fn build(policy: &DistilledPolicy, x: &[f64]) -> Result<Self, AnnError> {
        let cursor = policy.prewalk(x)?;
        let mut folded = Vec::with_capacity(policy.fold_len());
        policy.fold(cursor, x, &mut folded)?;
        Ok(Self {
            cursor,
            folded: folded.into_boxed_slice(),
        })
    }

    /// Constant-level cursor for [`DistilledPolicy::predict_folded`].
    pub fn cursor(&self) -> u32 {
        self.cursor
    }

    /// Folded per-leaf partial chains, [`DistilledPolicy::fold_len`]
    /// floats.
    pub fn folded(&self) -> &[f32] {
        &self.folded
    }
}

/// Longest constant prefix whose lookup key fits on the stack — the
/// hit path of [`FoldTable::lookup`] allocates nothing below this.
const FOLD_KEY_STACK: usize = 32;

/// Fleet-wide shared fold cache for one distilled artifact.
///
/// Keyed by the run-constant feature prefix — the exact f64 bit
/// patterns, so two periods share an entry only when their constant
/// features are identical (the same run-constant contract
/// `DbnDecideCache` and the batch engine's `PlanContext` rely on, but
/// sharable across traces, scenarios, shards and fleet requests
/// instead of per flat index per planner). The table preserves the
/// sequential planner's lazy schedule: the first sighting of a prefix
/// only records it (the caller takes the flat predict path — a prefix
/// seen exactly once never pays for a fold), the second sighting
/// builds the fold, and every later one reuses the `Arc`-shared
/// entry. Because the folded path is bit-identical to the flat path,
/// sharing, eviction and capacity bounds change throughput only —
/// never output bytes.
///
/// Memory is bounded: past `capacity` distinct prefixes the
/// least-recently-used slot is evicted, so multi-year traces cannot
/// grow the table without limit. Recency is an exact LRU kept in O(1)
/// per lookup: a slab of nodes on a doubly linked list, most recent
/// first, indexed by a hash map whose key `Arc` the node shares (each
/// prefix is stored once). A prefix is "used" when it is inserted and
/// whenever a lookup returns its fold; the victim is the list's tail.
///
/// Interior-mutable behind a `Mutex`, so one table (behind an `Arc`)
/// serves every scenario in a `BatchEngine` batch, every shard of
/// `run_sharded`, and every request of a fleet service concurrently.
/// Checkpoints never serialise the table — it is a cache rebuilt
/// deterministically from the run-constant prefixes on resume, so a
/// checkpoint carries the key (the trace), not the table.
#[derive(Debug)]
pub struct FoldTable {
    policy: Arc<DistilledPolicy>,
    capacity: usize,
    inner: Mutex<FoldTableInner>,
}

/// End-of-list marker for [`FoldNode`] links.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct FoldTableInner {
    /// Prefix → slab index of its node.
    index: HashMap<Arc<[u64]>, usize>,
    /// Grows to `capacity` nodes; past that, each new prefix reuses
    /// the evicted tail's node.
    nodes: Vec<FoldNode>,
    /// Most recently used node.
    head: usize,
    /// Least recently used node: the next eviction victim.
    tail: usize,
}

#[derive(Debug)]
struct FoldNode {
    /// The same allocation as this node's key in the index.
    key: Arc<[u64]>,
    /// `None` while the prefix has been seen exactly once — the fold
    /// is not yet worth building.
    fold: Option<Arc<FoldEntry>>,
    prev: usize,
    next: usize,
}

impl FoldTableInner {
    fn new() -> Self {
        Self {
            index: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    /// Marks node `i` most recently used.
    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    /// Records a first sighting of `key`, evicting the least recently
    /// used prefix when the table already holds `capacity`.
    fn insert(&mut self, key: &[u64], capacity: usize) {
        let key: Arc<[u64]> = Arc::from(key);
        let node = FoldNode {
            key: Arc::clone(&key),
            fold: None,
            prev: NIL,
            next: NIL,
        };
        // `capacity >= 1`, so a full table has a tail.
        let i = if self.index.len() >= capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.index.remove(&self.nodes[victim].key);
            self.nodes[victim] = node;
            victim
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.index.insert(key, i);
        self.push_front(i);
    }
}

impl FoldTable {
    /// Default prefix capacity: comfortably above a decade of daily
    /// period prefixes for the paper's 24-period day, a few MiB of
    /// folds at the scheduler's decision widths.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates an empty table over `policy` holding at most
    /// `capacity` distinct prefixes (clamped to at least 1).
    pub fn new(policy: Arc<DistilledPolicy>, capacity: usize) -> Self {
        Self {
            policy,
            capacity: capacity.max(1),
            inner: Mutex::new(FoldTableInner::new()),
        }
    }

    /// The artifact this table folds for.
    pub fn policy(&self) -> &Arc<DistilledPolicy> {
        &self.policy
    }

    /// Maximum number of distinct prefixes held.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of prefixes currently tracked (seen-once markers and
    /// built folds both count toward [`FoldTable::capacity`]).
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the table has seen no prefix yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FoldTableInner> {
        // The only work under the lock that can fail — building a
        // fold — runs before any index or list update, so a poisoned
        // table is still consistent (worst case: a fold is rebuilt).
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks up — and on the second sighting lazily builds — the fold
    /// entry for the constant prefix of `x`. `None` means the prefix
    /// has now been seen exactly once: take the flat
    /// [`DistilledPolicy::predict_into`] path, which is bit-identical
    /// and strictly cheaper for a prefix never revisited. The hit
    /// path allocates nothing (prefixes up to [`FOLD_KEY_STACK`]
    /// features build their key on the stack), and every path costs
    /// O(1) table work besides hashing the key.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `x` is shorter
    /// than the policy's constant prefix.
    pub fn lookup(&self, x: &[f64]) -> Result<Option<Arc<FoldEntry>>, AnnError> {
        let cp = self.policy.const_prefix();
        if x.len() < cp {
            return Err(DistilledPolicy::prefix_err(cp, x.len()));
        }
        let mut stack = [0u64; FOLD_KEY_STACK];
        let heap: Vec<u64>;
        let key: &[u64] = if cp <= FOLD_KEY_STACK {
            for (b, v) in stack.iter_mut().zip(&x[..cp]) {
                *b = v.to_bits();
            }
            &stack[..cp]
        } else {
            heap = x[..cp].iter().map(|v| v.to_bits()).collect();
            &heap
        };
        let mut inner = self.lock();
        let Some(&i) = inner.index.get(key) else {
            inner.insert(key, self.capacity);
            return Ok(None);
        };
        let entry = match &inner.nodes[i].fold {
            Some(entry) => Arc::clone(entry),
            None => {
                let entry = Arc::new(FoldEntry::build(&self.policy, x)?);
                inner.nodes[i].fold = Some(Arc::clone(&entry));
                entry
            }
        };
        inner.touch(i);
        Ok(Some(entry))
    }
}

/// Decision-level equality between two raw output vectors: the first
/// two outputs (capacitor head, α head) compared after rounding to the
/// nearest integer, every remaining output (task-admission bits)
/// compared as a `>= 0.5` threshold — mirroring how the online planner
/// consumes the vector.
pub fn decisions_match(a: &[f64], b: &[f64]) -> bool {
    if a.len() != b.len() || a.len() < 2 {
        return false;
    }
    if a[0].round() != b[0].round() || a[1].round() != b[1].round() {
        return false;
    }
    a.iter()
        .zip(b.iter())
        .skip(2)
        .all(|(x, y)| (*x >= 0.5) == (*y >= 0.5))
}

fn column_means(ys: &Matrix, idx: &[usize], out_dim: usize) -> Vec<f64> {
    let mut mean = vec![0.0; out_dim];
    if idx.is_empty() {
        return mean;
    }
    for &r in idx {
        for (m, v) in mean.iter_mut().zip(ys.row(r)) {
            *m += v;
        }
    }
    let inv = 1.0 / idx.len() as f64;
    for m in &mut mean {
        *m *= inv;
    }
    mean
}

/// Per-column mean and standard deviation over all rows.
fn column_moments(m: &Matrix, cols: usize) -> (Vec<f64>, Vec<f64>) {
    let n = m.rows().max(1) as f64;
    let mut mean = vec![0.0; cols];
    let mut sq = vec![0.0; cols];
    for r in 0..m.rows() {
        for ((mu, q), v) in mean.iter_mut().zip(sq.iter_mut()).zip(m.row(r)) {
            *mu += v;
            *q += v * v;
        }
    }
    let mut std = vec![0.0; cols];
    for ((mu, q), s) in mean.iter_mut().zip(&sq).zip(std.iter_mut()) {
        *mu /= n;
        *s = (q / n - *mu * *mu).max(0.0).sqrt();
    }
    (mean, std)
}

/// Greedy CART fitter for the complete, level-feature-partitioned
/// linear model tree.
struct Fit<'a> {
    xs: &'a Matrix,
    ys: &'a Matrix,
    feat: Vec<u32>,
    thresh: Vec<f64>,
    leaf_bias: Vec<f64>,
    leaf_coef: Vec<f64>,
    depth: usize,
    depth_const: usize,
    const_prefix: usize,
    in_dim: usize,
    out_dim: usize,
    candidates: usize,
    ridge: f64,
    /// Per-output weights in the split criterion: `1 / std`, so a
    /// wide head (α spans 0..10) cannot crowd out the near-binary task
    /// bits when scoring variance reduction.
    out_weight: Vec<f64>,
    /// Global feature moments for standardised ridge fits.
    feat_mean: Vec<f64>,
    feat_std: Vec<f64>,
}

impl Fit<'_> {
    fn grow(&mut self, node: usize, level: usize, idx: Vec<usize>, parent_mean: &[f64]) {
        let mean = if idx.is_empty() {
            parent_mean.to_vec()
        } else {
            column_means(self.ys, &idx, self.out_dim)
        };
        if level == self.depth {
            self.fit_leaf(node - ((1usize << self.depth) - 1), &idx, &mean);
            return;
        }
        let (fl, fh) = if level < self.depth_const {
            (0, self.const_prefix)
        } else {
            (self.const_prefix, self.in_dim)
        };
        match self.best_split(&idx, fl, fh) {
            Some((f, t)) => {
                self.feat[node] = f as u32;
                self.thresh[node] = t;
                let mut left = Vec::new();
                let mut right = Vec::new();
                for &r in &idx {
                    if self.xs.row(r)[f] > t {
                        right.push(r);
                    } else {
                        left.push(r);
                    }
                }
                self.grow(2 * node + 1, level + 1, left, &mean);
                self.grow(2 * node + 2, level + 1, right, &mean);
            }
            None => {
                // Degenerate region (too small or constant): route
                // everything left; the right subtree inherits the mean.
                // `f64::MAX` rather than `+inf` because the routing
                // rule is `x > thresh` and the JSON form (which maps
                // non-finite floats to null) must round-trip bytewise.
                self.feat[node] = fl as u32;
                self.thresh[node] = f64::MAX;
                self.grow(2 * node + 1, level + 1, idx, &mean);
                self.grow(2 * node + 2, level + 1, Vec::new(), &mean);
            }
        }
    }

    /// Ridge-fits `y ≈ bias + coef · x` over the leaf's samples in
    /// globally standardised feature space, then unfolds the model back
    /// to raw space. Under-populated leaves keep the (ancestor) mean
    /// with zero slope.
    fn fit_leaf(&mut self, leaf: usize, idx: &[usize], mean: &[f64]) {
        let bias_base = leaf * self.out_dim;
        let p = self.in_dim;
        let dims = p + 1; // intercept last
        let nl = idx.len();
        // Fewer samples than model dims: fall back to the mean.
        if nl < dims + 2 {
            self.leaf_bias[bias_base..bias_base + self.out_dim].copy_from_slice(mean);
            return;
        }
        // Normal equations in z-space: G = Zᵀ Z + λ n I, b_d = Zᵀ y_d.
        let mut g = vec![0.0; dims * dims];
        let mut b = vec![0.0; dims * self.out_dim];
        let mut z = vec![0.0; dims];
        for &r in idx {
            let xr = self.xs.row(r);
            for i in 0..p {
                z[i] = if self.feat_std[i] > 1e-12 {
                    (xr[i] - self.feat_mean[i]) / self.feat_std[i]
                } else {
                    0.0
                };
            }
            z[p] = 1.0;
            for i in 0..dims {
                let zi = z[i];
                if zi == 0.0 {
                    continue;
                }
                for j in i..dims {
                    g[i * dims + j] += zi * z[j];
                }
                for (d, v) in self.ys.row(r).iter().enumerate() {
                    b[d * dims + i] += zi * v;
                }
            }
        }
        for i in 0..dims {
            for j in 0..i {
                g[i * dims + j] = g[j * dims + i];
            }
            g[i * dims + i] += self.ridge * nl as f64;
        }
        let Some(chol) = cholesky(&g, dims) else {
            self.leaf_bias[bias_base..bias_base + self.out_dim].copy_from_slice(mean);
            return;
        };
        for d in 0..self.out_dim {
            let w = chol_solve(&chol, dims, &b[d * dims..(d + 1) * dims]);
            // Unfold z-space weights to raw space:
            //   y = w_p + Σ_i w_i (x_i - μ_i)/σ_i
            //     = (w_p - Σ_i w_i μ_i/σ_i) + Σ_i (w_i/σ_i) x_i.
            let lc = leaf * self.in_dim * self.out_dim;
            let mut bias = w[p];
            let mut ok = bias.is_finite();
            for (i, wi) in w.iter().enumerate().take(p) {
                let c = if self.feat_std[i] > 1e-12 {
                    wi / self.feat_std[i]
                } else {
                    0.0
                };
                ok &= c.is_finite();
                bias -= c * self.feat_mean[i];
                self.leaf_coef[lc + i * self.out_dim + d] = c;
            }
            if ok && bias.is_finite() {
                self.leaf_bias[bias_base + d] = bias;
            } else {
                self.leaf_bias[bias_base + d] = mean[d];
                for i in 0..p {
                    self.leaf_coef[lc + i * self.out_dim + d] = 0.0;
                }
            }
        }
    }

    /// Best axis-aligned split over features `[fl, fh)` by summed
    /// per-output variance reduction, evaluated at sample quantiles via
    /// one sorted sweep per feature. Returns `None` when no candidate
    /// separates the region.
    fn best_split(&self, idx: &[usize], fl: usize, fh: usize) -> Option<(usize, f64)> {
        let n = idx.len();
        if n < 2 || fl >= fh {
            return None;
        }
        let mut total = vec![0.0; self.out_dim];
        for &r in idx {
            for ((t, v), w) in total.iter_mut().zip(self.ys.row(r)).zip(&self.out_weight) {
                *t += v * w;
            }
        }
        let mut best: Option<(f64, usize, f64)> = None;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut left_sum = vec![0.0; self.out_dim];
        for f in fl..fh {
            order.clear();
            order.extend_from_slice(idx);
            order.sort_unstable_by(|&a, &b| self.xs.row(a)[f].total_cmp(&self.xs.row(b)[f]));
            left_sum.fill(0.0);
            // Candidate split positions at quantiles of this region.
            let mut next_cand = 1usize;
            let stride = (n / (self.candidates + 1)).max(1);
            for (k, &r) in order.iter().enumerate() {
                if k > 0 && k == next_cand * stride {
                    next_cand += 1;
                    let a = self.xs.row(order[k - 1])[f];
                    let b = self.xs.row(r)[f];
                    if a < b {
                        // Score = Σ_d (S_L²/n_L + S_R²/n_R); maximising
                        // this minimises the summed within-child SSE.
                        let nl = k as f64;
                        let nr = (n - k) as f64;
                        let mut score = 0.0;
                        for (sl, st) in left_sum.iter().zip(&total) {
                            let sr = st - sl;
                            score += sl * sl / nl + sr * sr / nr;
                        }
                        let mut t = a + (b - a) / 2.0;
                        if t >= b {
                            t = a;
                        }
                        if best.is_none_or(|(bs, _, _)| score > bs) {
                            best = Some((score, f, t));
                        }
                    }
                }
                for ((s, v), w) in left_sum
                    .iter_mut()
                    .zip(self.ys.row(r))
                    .zip(&self.out_weight)
                {
                    *s += v * w;
                }
            }
        }
        best.map(|(_, f, t)| (f, t))
    }
}

/// In-place Cholesky factorisation of a symmetric positive-definite
/// `dims × dims` matrix (row-major). Returns the lower factor, or
/// `None` when the matrix is not positive definite.
fn cholesky(g: &[f64], dims: usize) -> Option<Vec<f64>> {
    let mut l = vec![0.0; dims * dims];
    for i in 0..dims {
        for j in 0..=i {
            let mut s = g[i * dims + j];
            for k in 0..j {
                s -= l[i * dims + k] * l[j * dims + k];
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return None;
                }
                l[i * dims + i] = s.sqrt();
            } else {
                l[i * dims + j] = s / l[j * dims + j];
            }
        }
    }
    Some(l)
}

/// Solves `L Lᵀ w = b` given the lower Cholesky factor.
fn chol_solve(l: &[f64], dims: usize, b: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; dims];
    for i in 0..dims {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * dims + k] * y[k];
        }
        y[i] = s / l[i * dims + i];
    }
    let mut w = vec![0.0; dims];
    for i in (0..dims).rev() {
        let mut s = y[i];
        for k in i + 1..dims {
            s -= l[k * dims + i] * w[k];
        }
        w[i] = s / l[i * dims + i];
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbn::DbnConfig;

    /// A scheduler-shaped teacher: 5 "power" features + 2 "voltages" +
    /// 1 "dmr", mapping to a cap head, an α head and two bits.
    fn teacher() -> Dbn {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..400usize {
            let p = (i % 20) as f64 / 19.0;
            let v = ((i / 20) % 5) as f64 / 4.0;
            let d = ((i / 100) % 4) as f64 / 3.0;
            let x = vec![
                p * 40.0,
                (1.0 - p) * 35.0,
                p * 10.0,
                20.0 + p * 5.0,
                p * p * 30.0,
                2.0 + v * 2.5,
                2.1 + (1.0 - v) * 2.0,
                d,
            ];
            ys.push(vec![
                (p * 4.0).round(),
                (v * 8.0).round(),
                f64::from(p + v > 0.9),
                f64::from(d > 0.5),
            ]);
            xs.push(x);
        }
        let mut cfg = DbnConfig::small(13);
        cfg.bp_epochs = 120;
        Dbn::train(&xs, &ys, &cfg).unwrap()
    }

    fn small_cfg() -> DistillConfig {
        let mut cfg = DistillConfig::small(99);
        cfg.depth_const = 4;
        cfg.depth_vary = 4;
        cfg.samples = 8_192;
        cfg.holdout = 1_024;
        cfg
    }

    #[test]
    #[ignore = "diagnostic sweep for picking default hyper-parameters"]
    fn agreement_sweep() {
        let dbn = teacher();
        for (dc, dv, samples, ridge, cand) in [
            (4usize, 4usize, 16_384usize, 1e-3f64, 32usize),
            (4, 4, 16_384, 1e-4, 32),
            (4, 4, 16_384, 1e-5, 64),
            (5, 5, 32_768, 1e-4, 32),
            (5, 5, 65_536, 1e-4, 64),
            (5, 4, 32_768, 1e-4, 64),
        ] {
            let mut cfg = DistillConfig::small(99);
            cfg.depth_const = dc;
            cfg.depth_vary = dv;
            cfg.samples = samples;
            cfg.ridge = ridge;
            cfg.candidates = cand;
            cfg.holdout = 2_048;
            let p = DistilledPolicy::distill(&dbn, 5, &[], &cfg).unwrap();
            println!(
                "dc={dc} dv={dv} n={samples} ridge={ridge} cand={cand} -> agreement {}",
                p.agreement()
            );
        }
    }

    #[test]
    fn distills_with_high_agreement() {
        let dbn = teacher();
        let policy = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        assert_eq!(policy.input_dim(), 8);
        assert_eq!(policy.output_dim(), 4);
        assert!(
            policy.agreement() > 0.75,
            "holdout agreement {}",
            policy.agreement()
        );
        policy.validate().unwrap();
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the scalar folded path is the contract under test
    fn folded_path_is_bitwise_predict_into() {
        let dbn = teacher();
        let policy = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let x = [30.0, 10.0, 7.5, 22.0, 15.0, 3.0, 3.5, 0.4];
        let mut whole = Vec::new();
        policy.predict_into(&x, &mut whole).unwrap();
        let cursor = policy.prewalk(&x).unwrap();
        let mut folded = Vec::new();
        policy.fold(cursor, &x, &mut folded).unwrap();
        assert_eq!(folded.len(), policy.fold_len());
        // The per-decision finish must not read the constant prefix:
        // poison it.
        let mut x_poisoned = x;
        for v in &mut x_poisoned[..5] {
            *v = f64::NAN;
        }
        let mut split = Vec::new();
        policy
            .predict_folded(cursor, &folded, &x_poisoned, &mut split)
            .unwrap();
        assert_eq!(whole, split);
    }

    #[test]
    fn prewalk_and_fold_accept_the_bare_prefix() {
        let dbn = teacher();
        let policy = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let full = [30.0, 10.0, 7.5, 22.0, 15.0, 3.0, 3.5, 0.4];
        let a = policy.prewalk(&full).unwrap();
        let b = policy.prewalk(&full[..5]).unwrap();
        assert_eq!(a, b);
        assert!(policy.prewalk(&full[..3]).is_err());
        let mut fa = Vec::new();
        let mut fb = Vec::new();
        policy.fold(a, &full, &mut fa).unwrap();
        policy.fold(a, &full[..5], &mut fb).unwrap();
        assert_eq!(fa, fb);
        assert!(policy.fold(a, &full[..3], &mut fa).is_err());
        assert!(policy.fold(0, &full, &mut fa).is_err());
    }

    #[test]
    fn trajectory_samples_sharpen_local_accuracy() {
        let dbn = teacher();
        let traj: Vec<Vec<f64>> = (0..64)
            .map(|i| {
                let p = i as f64 / 63.0;
                vec![
                    p * 40.0,
                    (1.0 - p) * 35.0,
                    p * 10.0,
                    20.0 + p * 5.0,
                    p * p * 30.0,
                    3.2,
                    3.1,
                    0.25,
                ]
            })
            .collect();
        let plain = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let tuned = DistilledPolicy::distill(&dbn, 5, &traj, &small_cfg()).unwrap();
        let mut scratch = PredictScratch::default();
        let mut want = Vec::new();
        let mut err = |p: &DistilledPolicy| {
            let mut e = 0.0f64;
            let mut got = Vec::new();
            for x in &traj {
                dbn.predict_into(x, &mut scratch, &mut want).unwrap();
                p.predict_into(x, &mut got).unwrap();
                for (w, g) in want.iter().zip(&got) {
                    e += (w - g).abs();
                }
            }
            e
        };
        let e_plain = err(&plain);
        let e_tuned = err(&tuned);
        assert!(
            e_tuned <= e_plain * 1.05,
            "trajectory weighting should not hurt local accuracy: {e_tuned} vs {e_plain}"
        );
    }

    #[test]
    fn json_round_trip_is_bytewise_and_deterministic() {
        let dbn = teacher();
        let policy = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let json = policy.to_json().unwrap();
        let back = DistilledPolicy::from_json(&json).unwrap();
        assert_eq!(policy, back);
        assert_eq!(json, back.to_json().unwrap());
        let x = [12.0, 20.0, 3.0, 21.0, 8.0, 2.5, 4.0, 0.9];
        assert_eq!(
            policy.predict(&x).unwrap(),
            back.predict(&x).unwrap(),
            "reloaded artifact must predict bit-identically"
        );
    }

    #[test]
    fn distill_is_deterministic() {
        let dbn = teacher();
        let a = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let b = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_configs_and_artifacts() {
        let dbn = teacher();
        let mut cfg = small_cfg();
        cfg.depth_const = 0;
        cfg.depth_vary = 0;
        assert!(DistilledPolicy::distill(&dbn, 5, &[], &cfg).is_err());
        let mut cfg = small_cfg();
        cfg.samples = 8;
        assert!(DistilledPolicy::distill(&dbn, 5, &[], &cfg).is_err());
        assert!(DistilledPolicy::distill(&dbn, 99, &[], &small_cfg()).is_err());
        assert!(DistilledPolicy::distill(&dbn, 0, &[], &small_cfg()).is_err());
        assert!(DistilledPolicy::distill(&dbn, 5, &[vec![1.0]], &small_cfg()).is_err());

        let policy = DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap();
        let mut broken = policy.clone();
        broken.feat[0] = 7; // varying feature at a constant level
        assert!(broken.validate().is_err());
        let mut broken = policy.clone();
        broken.leaf_bias.pop();
        assert!(broken.validate().is_err());
        let mut broken = policy.clone();
        broken.leaf_coef[0] = f32::INFINITY;
        assert!(broken.validate().is_err());
        let mut broken = policy;
        broken.thresh[0] = f64::NAN;
        assert!(broken.validate().is_err());
    }

    #[test]
    fn degenerate_regions_fall_back_to_ancestor_means() {
        // A teacher over a tiny box: most tree regions see no samples,
        // exercising the +inf degenerate-split path end to end.
        let xs: Vec<Vec<f64>> = (0..80)
            .map(|i| vec![i as f64 / 79.0, 0.5, (i % 7) as f64 / 6.0])
            .collect();
        let ys: Vec<Vec<f64>> = xs
            .iter()
            .map(|x| vec![x[0], 1.0 - x[0], f64::from(x[2] > 0.5)])
            .collect();
        let mut cfg = DbnConfig::small(5);
        cfg.bp_epochs = 60;
        let dbn = Dbn::train(&xs, &ys, &cfg).unwrap();
        let mut dcfg = DistillConfig::small(7);
        dcfg.depth_const = 5;
        dcfg.depth_vary = 5;
        dcfg.samples = 256;
        dcfg.holdout = 64;
        let policy = DistilledPolicy::distill(&dbn, 1, &[], &dcfg).unwrap();
        policy.validate().unwrap();
        // Far outside the box still lands on a finite leaf model.
        let y = policy.predict(&[1e6, -1e6, 1e6]).unwrap();
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn decisions_match_mirrors_planner_consumption() {
        assert!(decisions_match(
            &[2.2, 5.4, 0.9, 0.1],
            &[1.8, 4.6, 0.51, 0.49]
        ));
        assert!(!decisions_match(&[2.6, 5.0, 0.9], &[1.8, 5.0, 0.9]));
        assert!(!decisions_match(&[2.0, 5.0, 0.6], &[2.0, 5.0, 0.4]));
        assert!(!decisions_match(&[2.0, 5.0], &[2.0, 5.0, 0.4]));
        assert!(!decisions_match(&[1.0], &[1.0]));
    }

    /// Deterministic pseudo-queries over `periods` distinct constant
    /// prefixes, `per` varying tails each.
    fn queries(periods: usize, per: usize) -> Vec<Vec<f64>> {
        let mut qs = Vec::new();
        for p in 0..periods {
            for d in 0..per {
                qs.push(vec![
                    (p % 20) as f64 * 2.0,
                    35.0 - (p % 18) as f64,
                    (p % 11) as f64,
                    20.0 + (p % 6) as f64,
                    (p % 31) as f64,
                    2.0 + (d % 5) as f64 * 0.6,
                    2.1 + ((d + p) % 4) as f64 * 0.5,
                    (d % 3) as f64 / 3.0,
                ]);
            }
        }
        qs
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the scalar path is the byte reference
    fn fold_table_preserves_the_lazy_schedule_and_bytes() {
        let dbn = teacher();
        let policy = Arc::new(DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap());
        let table = FoldTable::new(Arc::clone(&policy), FoldTable::DEFAULT_CAPACITY);
        let qs = queries(6, 3);
        let mut reference = Vec::new();
        let mut out = Vec::new();
        for (i, x) in qs.iter().enumerate() {
            let entry = match table.lookup(x).unwrap() {
                // A later tail of a period the table already folded.
                Some(e) => {
                    assert_ne!(i % 3, 0, "a period's first sighting must be cold");
                    e
                }
                // First sighting of the period's prefix: no fold yet;
                // the second sighting (same prefix, any tail) folds.
                None => {
                    assert_eq!(i % 3, 0, "only a period's first sighting is cold");
                    table.lookup(x).unwrap().expect("second sighting folds")
                }
            };
            policy.predict_into(x, &mut reference).unwrap();
            policy
                .predict_folded(entry.cursor(), entry.folded(), x, &mut out)
                .unwrap();
            let want: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(want, got, "folded lookup diverged from the flat path");
            // Later sightings share the same entry.
            let again = table.lookup(x).unwrap().expect("ready entry");
            assert!(Arc::ptr_eq(&entry, &again));
        }
        assert_eq!(table.len(), 6, "one slot per distinct prefix");
        assert!(table.lookup(&qs[0][..3]).is_err(), "short prefix rejected");
    }

    #[test]
    fn fold_table_capacity_bounds_memory_by_evicting_lru() {
        let dbn = teacher();
        let policy = Arc::new(DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap());
        let table = FoldTable::new(Arc::clone(&policy), 4);
        assert_eq!(FoldTable::new(Arc::clone(&policy), 0).capacity(), 1);
        let qs = queries(6, 1);
        // Fill to capacity with Ready folds.
        for x in &qs[..4] {
            assert!(table.lookup(x).unwrap().is_none());
            assert!(table.lookup(x).unwrap().is_some());
        }
        assert_eq!(table.len(), 4);
        // Touch prefixes 1..4 so prefix 0 is the LRU victim.
        for x in &qs[1..4] {
            assert!(table.lookup(x).unwrap().is_some());
        }
        // A fifth prefix evicts exactly one slot.
        assert!(table.lookup(&qs[4]).unwrap().is_none());
        assert_eq!(table.len(), 4, "capacity bound held");
        // Prefix 0 was evicted — it is a fresh first sighting again —
        // while a surviving prefix still has its fold.
        assert!(table.lookup(&qs[1]).unwrap().is_some());
        assert!(table.lookup(&qs[0]).unwrap().is_none());
        assert_eq!(table.len(), 4);
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the scalar path is the byte reference
    fn batched_lanes_are_bitwise_the_sequential_paths() {
        let dbn = teacher();
        let policy = Arc::new(DistilledPolicy::distill(&dbn, 5, &[], &small_cfg()).unwrap());
        let table = FoldTable::new(Arc::clone(&policy), FoldTable::DEFAULT_CAPACITY);
        let qs = queries(5, 4);
        // Mixed lanes: even periods folded (seen twice), odd flat.
        let mut entries = Vec::new();
        let mut inputs = Vec::new();
        let mut reference = Vec::new();
        let mut one = Vec::new();
        for (i, x) in qs.iter().enumerate() {
            if (i / 4) % 2 == 0 {
                table.lookup(x).unwrap();
            }
            let entry = if (i / 4) % 2 == 0 {
                table.lookup(x).unwrap()
            } else {
                None
            };
            match &entry {
                Some(e) => policy
                    .predict_folded(e.cursor(), e.folded(), x, &mut one)
                    .unwrap(),
                None => policy.predict_into(x, &mut one).unwrap(),
            }
            reference.extend_from_slice(&one);
            inputs.extend_from_slice(x);
            entries.push(entry);
        }
        let want: Vec<u64> = reference.iter().map(|v| v.to_bits()).collect();
        let mut out = Vec::new();
        policy
            .predict_batch_folded(&entries, &inputs, &mut out)
            .unwrap();
        let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got, "batched kernel diverged from sequential lanes");
        let mut scalar = Vec::new();
        policy
            .predict_batch_folded_scalar(&entries, &inputs, &mut scalar)
            .unwrap();
        let scalar_bits: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, scalar_bits, "scalar twin diverged");
        // Wrong lane-major width is rejected.
        assert!(policy
            .predict_batch_folded(&entries, &inputs[1..], &mut out)
            .is_err());
        // An entry with the wrong fold length is rejected.
        let mut bad_cfg = small_cfg();
        bad_cfg.depth_vary = 2;
        bad_cfg.samples = 2_048;
        bad_cfg.holdout = 256;
        let other = DistilledPolicy::distill(&dbn, 5, &[], &bad_cfg).unwrap();
        let foreign = Arc::new(FoldEntry::build(&other, &qs[0]).unwrap());
        assert!(policy
            .predict_batch_folded(&[Some(foreign)], &qs[0], &mut out)
            .is_err());
    }
}
