//! The deep belief network of the paper's Fig. 6: a stack of RBMs
//! pre-trained greedily with CD-1 (the "hidden layers" extracting
//! features of the inputs), assembled into a feed-forward network whose
//! output ("visible") layers are fine-tuned with back-propagation.

use helio_common::rng::seeded;
use serde::{Deserialize, Serialize};

use crate::error::AnnError;
use crate::matrix::Matrix;
use crate::mlp::Mlp;
use crate::rbm::Rbm;
use crate::scaler::MinMaxScaler;
use crate::train::TrainingSet;

/// Training hyper-parameters of a [`Dbn`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbnConfig {
    /// Hidden layer sizes (the RBM stack), e.g. `[16, 12]`.
    pub hidden: Vec<usize>,
    /// CD-1 epochs per RBM layer.
    pub rbm_epochs: usize,
    /// CD-1 learning rate.
    pub rbm_lr: f64,
    /// Back-propagation fine-tuning epochs.
    pub bp_epochs: usize,
    /// Back-propagation learning rate.
    pub bp_lr: f64,
    /// Deterministic seed for initialisation and CD sampling.
    pub seed: u64,
}

impl DbnConfig {
    /// A compact configuration adequate for the scheduler's ~20-input
    /// observation vectors; trains in well under a second.
    pub fn small(seed: u64) -> Self {
        Self {
            hidden: vec![16, 10],
            rbm_epochs: 30,
            rbm_lr: 0.1,
            bp_epochs: 600,
            bp_lr: 0.4,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for empty/zero layers or
    /// non-positive learning rates.
    pub fn validate(&self) -> Result<(), AnnError> {
        if self.hidden.is_empty() || self.hidden.contains(&0) {
            return Err(AnnError::BadConfig(
                "hidden layer list must be nonempty with nonzero sizes".into(),
            ));
        }
        if self.rbm_lr <= 0.0 || self.bp_lr <= 0.0 {
            return Err(AnnError::BadConfig(
                "learning rates must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// Reusable buffers for [`Dbn::predict_into`]: the scaled input, the
/// MLP's ping-pong activations, and the squashed output. One scratch
/// per call site makes steady-state inference allocation-free.
#[derive(Debug, Default, Clone)]
pub struct PredictScratch {
    x: Vec<f64>,
    hidden: Vec<f64>,
    y: Vec<f64>,
}

/// Reusable buffers for [`Dbn::predict_batch_into`]: the scaled input
/// batch and the MLP's ping-pong activation matrices. One scratch per
/// call site makes steady-state batched inference allocation-free once
/// the matrices have grown to the widest layer.
#[derive(Debug, Default, Clone)]
pub struct BatchPredictScratch {
    x: Matrix,
    hidden: Matrix,
    y: Matrix,
}

/// A trained DBN regressor with built-in input/output scaling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dbn {
    input_scaler: MinMaxScaler,
    output_scaler: MinMaxScaler,
    network: Mlp,
    final_loss: f64,
}

impl Dbn {
    /// Trains a DBN on `(inputs, targets)` pairs: greedy RBM
    /// pre-training of the hidden stack, then supervised BP fine-tuning
    /// of the whole network. Thin wrapper over [`Dbn::train_set`] —
    /// identical results, one extra packing pass over the data.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadTrainingSet`] for empty or inconsistent
    /// data and [`AnnError::BadConfig`] for invalid hyper-parameters.
    pub fn train(
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        cfg: &DbnConfig,
    ) -> Result<Self, AnnError> {
        cfg.validate()?;
        if inputs.len() != targets.len() {
            return Err(AnnError::BadTrainingSet(format!(
                "{} inputs vs {} targets",
                inputs.len(),
                targets.len()
            )));
        }
        Self::train_set(&TrainingSet::from_rows(inputs, targets)?, cfg)
    }

    /// Trains a DBN on a packed [`TrainingSet`] — the core training
    /// entry point. The whole pipeline stays `Matrix`-native: scaler
    /// fit, transforms, CD-1 sweeps and back-propagation all read the
    /// packed rows in place, and the per-sample kernels reuse scratch
    /// buffers, so no stage clones the data set.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadTrainingSet`] for an empty set and
    /// [`AnnError::BadConfig`] for invalid hyper-parameters.
    pub fn train_set(set: &TrainingSet, cfg: &DbnConfig) -> Result<Self, AnnError> {
        cfg.validate()?;
        if set.is_empty() {
            return Err(AnnError::BadTrainingSet(format!(
                "{} inputs vs {} targets",
                set.len(),
                set.len()
            )));
        }
        let input_scaler = MinMaxScaler::fit_matrix(&set.inputs)?;
        let output_scaler = MinMaxScaler::fit_matrix(&set.targets)?;
        let n = set.len();
        let in_dim = input_scaler.dim();
        let out_dim = output_scaler.dim();
        let mut xs = Matrix::zeros(n, in_dim);
        for r in 0..n {
            input_scaler.transform_slice(set.inputs.row(r), xs.row_mut(r))?;
        }
        // Targets are squeezed into [0.05, 0.95] so the sigmoid output
        // layer can actually reach them.
        let mut ys = Matrix::zeros(n, out_dim);
        for r in 0..n {
            output_scaler.transform_slice(set.targets.row(r), ys.row_mut(r))?;
            for y in ys.row_mut(r) {
                *y = 0.05 + 0.9 * *y;
            }
        }

        let mut rng = seeded(cfg.seed);

        // Greedy unsupervised pre-training of the RBM stack.
        let mut rbms: Vec<Rbm> = Vec::with_capacity(cfg.hidden.len());
        let mut layer_input = xs.clone();
        let mut prev_dim = in_dim;
        for &h in &cfg.hidden {
            let mut rbm = Rbm::new(prev_dim, h, &mut rng);
            rbm.train_matrix(&layer_input, cfg.rbm_epochs, cfg.rbm_lr, &mut rng)?;
            // One blocked matmul instead of a matvec per sample;
            // bitwise identical to mapping `hidden_probs`.
            layer_input = rbm.hidden_probs_batch_matrix(&layer_input)?;
            prev_dim = h;
            rbms.push(rbm);
        }

        // Assemble the full network and load the pre-trained layers.
        let mut sizes = vec![in_dim];
        sizes.extend_from_slice(&cfg.hidden);
        sizes.push(out_dim);
        let mut network = Mlp::new(&sizes, &mut rng)?;
        for (i, rbm) in rbms.iter().enumerate() {
            network.load_layer(i, rbm.weights().clone(), rbm.hidden_bias().to_vec())?;
        }

        // Supervised fine-tuning.
        let final_loss = network.train_matrix(&xs, &ys, cfg.bp_epochs, cfg.bp_lr)?;

        Ok(Self {
            input_scaler,
            output_scaler,
            network,
            final_loss,
        })
    }

    /// Predicts the target vector for one raw (unscaled) input.
    ///
    /// **This is the allocating convenience wrapper**: every call
    /// builds a fresh [`PredictScratch`] and output `Vec`. Hot paths
    /// that predict once per period (the online planner, benchmarks,
    /// anything inside a simulation loop) must use
    /// [`Dbn::predict_into`] with a reused scratch — or the compiled
    /// fast path, [`crate::compiled::CompiledDbn`] — instead.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    pub fn predict(&self, input: &[f64]) -> Result<Vec<f64>, AnnError> {
        let mut scratch = PredictScratch::default();
        let mut out = Vec::with_capacity(self.output_dim());
        self.predict_into(input, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`Dbn::predict`] writing the prediction into `out` and reusing
    /// `scratch` for every intermediate, so repeated inference (the
    /// online planner calls this once per period) allocates nothing
    /// after the first call. Bitwise identical to [`Dbn::predict`].
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] for wrong input sizes.
    pub fn predict_into(
        &self,
        input: &[f64],
        scratch: &mut PredictScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), AnnError> {
        self.input_scaler.transform_into(input, &mut scratch.x)?;
        self.network
            .forward_into(&scratch.x, &mut scratch.hidden, &mut scratch.y)?;
        for v in scratch.y.iter_mut() {
            *v = ((*v - 0.05) / 0.9).clamp(0.0, 1.0);
        }
        self.output_scaler.inverse_into(&scratch.y, out)
    }

    /// Batched [`Dbn::predict_into`]: one prediction per row of
    /// `inputs` (a `batch × input_dim` matrix of raw, unscaled
    /// features), written to the corresponding row of `out`. The whole
    /// batch goes through each network layer as a single blocked
    /// matrix product, so every row of `out` is bitwise identical to
    /// calling [`Dbn::predict_into`] on that row alone — batching is a
    /// pure throughput optimisation.
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::DimensionMismatch`] when `inputs` is not
    /// `batch × input_dim`.
    pub fn predict_batch_into(
        &self,
        inputs: &Matrix,
        scratch: &mut BatchPredictScratch,
        out: &mut Matrix,
    ) -> Result<(), AnnError> {
        if inputs.cols() != self.input_dim() {
            return Err(AnnError::dims(
                format!("{} input features", self.input_dim()),
                format!("{}", inputs.cols()),
            ));
        }
        let batch = inputs.rows();
        scratch.x.reset(batch, self.input_dim());
        for r in 0..batch {
            self.input_scaler
                .transform_slice(inputs.row(r), scratch.x.row_mut(r))?;
        }
        self.network
            .forward_batch_into(&scratch.x, &mut scratch.hidden, &mut scratch.y)?;
        for r in 0..batch {
            for v in scratch.y.row_mut(r) {
                *v = ((*v - 0.05) / 0.9).clamp(0.0, 1.0);
            }
        }
        out.reset(batch, self.output_dim());
        for r in 0..batch {
            self.output_scaler
                .inverse_slice(scratch.y.row(r), out.row_mut(r))?;
        }
        Ok(())
    }

    /// Mean training loss of the final fine-tuning epoch (scaled
    /// space).
    pub fn final_loss(&self) -> f64 {
        self.final_loss
    }

    /// The fitted input scaler: compile-time affine folding reads it
    /// (see `crate::compiled`) and distillation callers use its range
    /// to build trajectory samples inside the trained region (see
    /// `crate::distill`).
    pub fn input_scaler(&self) -> &MinMaxScaler {
        &self.input_scaler
    }

    /// The fitted output scaler.
    pub(crate) fn output_scaler(&self) -> &MinMaxScaler {
        &self.output_scaler
    }

    /// The fine-tuned network.
    pub(crate) fn network(&self) -> &Mlp {
        &self.network
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_scaler.dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.output_scaler.dim()
    }

    /// Serialises the trained network to JSON (deployable weights).
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] when serialisation fails (should
    /// not happen for well-formed networks).
    pub fn to_json(&self) -> Result<String, AnnError> {
        serde_json::to_string(self).map_err(|e| AnnError::BadConfig(e.to_string()))
    }

    /// Restores a network serialised with [`Dbn::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`AnnError::BadConfig`] for malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, AnnError> {
        serde_json::from_str(json).map_err(|e| AnnError::BadConfig(e.to_string()))
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests exercise the allocating wrapper itself
mod tests {
    use super::*;

    /// A nonlinear two-input function mimicking the scheduler mapping
    /// (bounded inputs, bounded outputs).
    fn dataset() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..12 {
            for j in 0..12 {
                let a = i as f64 / 11.0;
                let b = j as f64 / 11.0;
                xs.push(vec![a * 50.0, b * 4.0 + 1.0]); // scheduler-like ranges
                ys.push(vec![(a * b).sqrt(), if a + b > 1.0 { 1.0 } else { 0.0 }]);
            }
        }
        (xs, ys)
    }

    #[test]
    fn learns_nonlinear_mapping() {
        let (xs, ys) = dataset();
        let dbn = Dbn::train(&xs, &ys, &DbnConfig::small(3)).unwrap();
        assert!(dbn.final_loss() < 0.01, "loss {}", dbn.final_loss());
        // Spot-check a few points.
        let y = dbn.predict(&[50.0, 5.0]).unwrap(); // a=1, b=1
        assert!(y[0] > 0.8, "sqrt(1·1) ≈ 1, got {}", y[0]);
        assert!(y[1] > 0.7, "threshold output should fire, got {}", y[1]);
        let y = dbn.predict(&[0.0, 1.0]).unwrap(); // a=0, b=0
        assert!(y[0] < 0.25, "sqrt(0) ≈ 0, got {}", y[0]);
        assert!(
            y[1] < 0.35,
            "threshold output should stay low, got {}",
            y[1]
        );
    }

    #[test]
    fn pretraining_plus_bp_beats_tiny_bp_budget() {
        // With a small BP budget, RBM pre-training should help (or at
        // least not hurt): compare against a config with zero RBM epochs.
        let (xs, ys) = dataset();
        let mut with = DbnConfig::small(4);
        with.bp_epochs = 40;
        let mut without = with.clone();
        without.rbm_epochs = 0;
        let dbn_with = Dbn::train(&xs, &ys, &with).unwrap();
        let dbn_without = Dbn::train(&xs, &ys, &without).unwrap();
        assert!(
            dbn_with.final_loss() < dbn_without.final_loss() * 1.5,
            "pretrained {} vs cold {}",
            dbn_with.final_loss(),
            dbn_without.final_loss()
        );
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = dataset();
        let a = Dbn::train(&xs, &ys, &DbnConfig::small(5)).unwrap();
        let b = Dbn::train(&xs, &ys, &DbnConfig::small(5)).unwrap();
        assert_eq!(
            a.predict(&[25.0, 3.0]).unwrap(),
            b.predict(&[25.0, 3.0]).unwrap()
        );
    }

    #[test]
    fn predict_into_is_bitwise_predict() {
        let (xs, ys) = dataset();
        let dbn = Dbn::train(&xs, &ys, &DbnConfig::small(7)).unwrap();
        let mut scratch = PredictScratch::default();
        let mut out = Vec::new();
        for x in xs.iter().step_by(17) {
            dbn.predict_into(x, &mut scratch, &mut out).unwrap();
            assert_eq!(out, dbn.predict(x).unwrap());
        }
        assert!(dbn.predict_into(&[1.0], &mut scratch, &mut out).is_err());
    }

    /// Runs `rows` through `predict_batch_into` twice (the second pass
    /// reuses the buffers) and asserts every output row is bitwise the
    /// per-row `predict`.
    fn assert_batch_is_per_row(dbn: &Dbn, rows: &[Vec<f64>], scratch: &mut BatchPredictScratch) {
        let inputs = Matrix::from_rows(rows).unwrap();
        let mut out = Matrix::default();
        for _ in 0..2 {
            dbn.predict_batch_into(&inputs, scratch, &mut out).unwrap();
            assert_eq!((out.rows(), out.cols()), (rows.len(), dbn.output_dim()));
            for (r, x) in rows.iter().enumerate() {
                assert_eq!(out.row(r), dbn.predict(x).unwrap().as_slice(), "row {r}");
            }
        }
    }

    #[test]
    fn predict_batch_into_is_bitwise_per_row_predict() {
        let (xs, ys) = dataset();
        let dbn = Dbn::train(&xs, &ys, &DbnConfig::small(8)).unwrap();
        let rows: Vec<Vec<f64>> = xs.iter().step_by(13).cloned().collect();
        let mut scratch = BatchPredictScratch::default();
        assert_batch_is_per_row(&dbn, &rows, &mut scratch);

        // The deployment width: two 128-unit hidden layers over a
        // scheduler-shaped 5-in, 7-out mapping. 67 rows give eight full
        // 8-lane tiles plus a 3-row scalar remainder, and the 7-wide
        // output layer leaves a column tail after the 4-column blocks.
        // Identity does not need a good network, so one epoch each.
        let wide_x: Vec<Vec<f64>> = (0..67)
            .map(|i| {
                (0..5)
                    .map(|k| ((i * 7 + k * 13) % 50) as f64 / 10.0)
                    .collect()
            })
            .collect();
        let wide_y: Vec<Vec<f64>> = (0..67)
            .map(|i| (0..7).map(|k| ((i + k) % 2) as f64).collect())
            .collect();
        let cfg = DbnConfig {
            hidden: vec![128, 128],
            rbm_epochs: 1,
            bp_epochs: 1,
            ..DbnConfig::small(9)
        };
        let wide = Dbn::train(&wide_x, &wide_y, &cfg).unwrap();
        assert_batch_is_per_row(&wide, &wide_x, &mut scratch);

        let mut out = Matrix::default();
        let bad = Matrix::zeros(2, dbn.input_dim() + 1);
        assert!(dbn
            .predict_batch_into(&bad, &mut scratch, &mut out)
            .is_err());
        let empty = Matrix::zeros(0, dbn.input_dim());
        dbn.predict_batch_into(&empty, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(out.rows(), 0);
    }

    #[test]
    fn train_set_is_bitwise_train() {
        let (xs, ys) = dataset();
        let mut cfg = DbnConfig::small(9);
        cfg.bp_epochs = 60;
        let a = Dbn::train(&xs, &ys, &cfg).unwrap();
        let set = TrainingSet::from_rows(&xs, &ys).unwrap();
        let b = Dbn::train_set(&set, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.final_loss().to_bits(), b.final_loss().to_bits());
    }

    #[test]
    fn empty_and_mismatched_sets_are_rejected() {
        let cfg = DbnConfig::small(1);
        let empty = TrainingSet::from_rows(&[], &[]).unwrap();
        assert!(matches!(
            Dbn::train_set(&empty, &cfg),
            Err(AnnError::BadTrainingSet(_))
        ));
        assert!(matches!(
            Dbn::train(&[vec![1.0]], &[], &cfg),
            Err(AnnError::BadTrainingSet(_))
        ));
        assert!(matches!(
            Dbn::train(&[vec![1.0], vec![1.0, 2.0]], &[vec![0.0], vec![0.0]], &cfg),
            Err(AnnError::BadTrainingSet(_))
        ));
    }

    #[test]
    fn json_round_trip() {
        let (xs, ys) = dataset();
        let dbn = Dbn::train(&xs, &ys, &DbnConfig::small(6)).unwrap();
        let json = dbn.to_json().unwrap();
        let back = Dbn::from_json(&json).unwrap();
        let a = dbn.predict(&[30.0, 2.0]).unwrap();
        let b = back.predict(&[30.0, 2.0]).unwrap();
        for (x, y) in a.iter().zip(&b) {
            // JSON prints decimal floats; round-trip is close, not exact.
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn validation_errors() {
        let (xs, ys) = dataset();
        let mut cfg = DbnConfig::small(1);
        cfg.hidden = vec![];
        assert!(Dbn::train(&xs, &ys, &cfg).is_err());
        let cfg = DbnConfig::small(1);
        assert!(Dbn::train(&[], &[], &cfg).is_err());
        assert!(Dbn::train(&xs, &ys[..3], &cfg).is_err());
        let dbn = Dbn::train(&xs, &ys, &cfg).unwrap();
        assert!(dbn.predict(&[1.0]).is_err());
        assert_eq!(dbn.input_dim(), 2);
        assert_eq!(dbn.output_dim(), 2);
    }
}
