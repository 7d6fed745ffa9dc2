//! The assembled DLRM (paper Figure 2) with pluggable embedding layers.
//!
//! Each sparse field is served by one [`EmbeddingLayer`]:
//!
//! * [`EmbeddingLayer::Dense`] — the uncompressed PyTorch-style table;
//! * [`EmbeddingLayer::Tt`] — an Eff-TT table (the drop-in replacement the
//!   paper advertises: swapping the variants is the entire migration);
//! * [`EmbeddingLayer::Hosted`] — a table whose parameters live somewhere
//!   else (host memory behind the parameter server); its pooled embeddings
//!   arrive from outside and its gradients are handed back, which is how
//!   the pipeline trainer of `el-pipeline` drives the model.

use crate::band::fit;
use crate::embedding_bag::EmbeddingBag;
use crate::interaction::Interaction;
use crate::loss::{bce_with_logits, predict_proba};
use crate::metrics;
use crate::mlp::Mlp;
use crate::optim::{Adagrad, OptimizerKind};
use el_core::{StageTimers, TtConfig, TtEmbeddingBag, TtWorkspace};
use el_data::{DatasetSpec, MiniBatch, SparseField};
use el_tensor::Matrix;
use rand::Rng;
use rayon::prelude::*;

/// One sparse field's embedding table.
// Variant sizes intentionally differ: `Dense` embeds the table handle while
// `Hosted` is a stub; boxing `Dense` would add an indirection on the hottest
// lookup path.
#[allow(clippy::large_enum_variant)]
pub enum EmbeddingLayer {
    /// Uncompressed table trained with sparse gradients.
    Dense(EmbeddingBag),
    /// Eff-TT compressed table with its kernel workspace.
    Tt(Box<TtEmbeddingBag>, TtWorkspace),
    /// Parameters live outside the model (host memory / parameter server).
    Hosted {
        /// Embedding dimension served by the external owner.
        dim: usize,
    },
}

impl EmbeddingLayer {
    /// Embedding dimension of the layer.
    pub fn dim(&self) -> usize {
        match self {
            EmbeddingLayer::Dense(b) => b.dim(),
            EmbeddingLayer::Tt(b, _) => b.dim(),
            EmbeddingLayer::Hosted { dim } => *dim,
        }
    }

    /// Device-resident parameter bytes of the layer.
    pub fn footprint_bytes(&self) -> usize {
        match self {
            EmbeddingLayer::Dense(b) => b.footprint_bytes(),
            EmbeddingLayer::Tt(b, _) => b.footprint_bytes(),
            EmbeddingLayer::Hosted { .. } => 0,
        }
    }

    /// Pooled lookup of field `t` of a `rows`-sample batch into `out`. A
    /// hosted table copies the pooled rows its owner shipped with the batch.
    /// Every table kind runs its whole lookup here, pointer preparation
    /// included, inside the embedding stage's fork.
    // CONTRACT: non-blocking
    fn forward_into(
        &mut self,
        t: usize,
        field: &SparseField,
        rows: usize,
        hosted: &[(usize, Matrix)],
        out: &mut Matrix,
    ) {
        let (indices, offsets) = (&field.indices[..], &field.offsets[..]);
        match self {
            EmbeddingLayer::Dense(bag) => bag.forward_into(indices, offsets, out),
            EmbeddingLayer::Tt(bag, ws) => bag.forward_into(indices, offsets, ws, out),
            EmbeddingLayer::Hosted { dim } => {
                let (_, pooled) = hosted
                    .iter()
                    .find(|(idx, _)| *idx == t)
                    // PANIC-OK: trainer ships every hosted table with each batch.
                    .unwrap_or_else(|| panic!("hosted table {t} missing its embeddings"));
                assert_eq!(pooled.rows(), rows);
                assert_eq!(pooled.cols(), *dim);
                out.reset_zeroed(pooled.rows(), *dim);
                out.as_mut_slice().copy_from_slice(pooled.as_slice());
            }
        }
    }

    /// Backward and update of one table from the gradient of its pooled
    /// output; `state` is the table's Adagrad state, `None` under SGD. A
    /// hosted table has nothing to update here: its gradient is handed back
    /// to the caller.
    // CONTRACT: non-blocking
    fn backward(
        &mut self,
        field: &SparseField,
        grad: &Matrix,
        state: Option<&mut [Adagrad]>,
        lr: f32,
    ) {
        let (indices, offsets) = (&field.indices[..], &field.offsets[..]);
        match self {
            EmbeddingLayer::Dense(bag) => match state {
                None => bag.backward_sgd(indices, offsets, grad, lr),
                Some(state) => bag.backward_adagrad(indices, offsets, grad, lr, &mut state[0]),
            },
            EmbeddingLayer::Tt(bag, ws) => match state {
                None => bag.backward_sgd(grad, ws, lr),
                Some(state) => {
                    // Adagrad needs materialized core gradients; the
                    // fused-update shortcut is SGD-specific (paper §III-B).
                    bag.backward_grads(grad, ws);
                    let cores = &mut bag.cores_mut().cores;
                    for ((core, grads), state) in cores.iter_mut().zip(ws.grads()).zip(state) {
                        state.step(core, grads, lr);
                    }
                }
            },
            EmbeddingLayer::Hosted { .. } => {}
        }
    }
}

/// Model hyper-parameters.
#[derive(Clone, Debug)]
pub struct DlrmConfig {
    /// Number of dense features.
    pub num_dense: usize,
    /// Cardinality of each sparse field.
    pub table_cardinalities: Vec<usize>,
    /// Embedding dimension (all tables).
    pub dim: usize,
    /// Bottom-MLP hidden sizes (input/output added automatically).
    pub bottom_hidden: Vec<usize>,
    /// Top-MLP hidden sizes (input/output added automatically).
    pub top_hidden: Vec<usize>,
    /// Tables with at least this many rows are TT-compressed (the paper
    /// compresses tables above 1M rows; scale accordingly).
    pub tt_threshold: usize,
    /// TT rank for compressed tables.
    pub tt_rank: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Optimizer for every trainable component (the paper uses SGD, which
    /// also enables the fused TT-core update; Adagrad matches the
    /// reference DLRM's sparse-embedding default).
    pub optimizer: OptimizerKind,
}

impl DlrmConfig {
    /// A configuration matching a dataset spec with DLRM-default MLPs.
    pub fn for_spec(spec: &DatasetSpec, dim: usize, tt_threshold: usize, tt_rank: usize) -> Self {
        Self {
            num_dense: spec.num_dense,
            table_cardinalities: spec.table_cardinalities.clone(),
            dim,
            bottom_hidden: vec![64, 32],
            top_hidden: vec![64, 32],
            tt_threshold,
            tt_rank,
            lr: 0.05,
            optimizer: OptimizerKind::Sgd,
        }
    }
}

/// Metrics of one evaluation run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalMetrics {
    /// Accuracy at threshold 0.5 (Table IV).
    pub accuracy: f64,
    /// ROC AUC.
    pub auc: f64,
    /// Mean binary log loss.
    pub log_loss: f64,
}

/// Result of a hybrid training step.
pub struct StepOutput {
    /// Mean BCE loss of the batch.
    pub loss: f32,
    /// Gradients of the pooled embeddings of each hosted table
    /// (`(table, batch x dim)`), to be pushed to the parameter server.
    pub hosted_grads: Vec<(usize, Matrix)>,
}

/// Per-component Adagrad state (allocated only when the model trains with
/// [`OptimizerKind::Adagrad`]).
///
/// Serializable because a durable checkpoint must carry it: restarting the
/// accumulators changes every subsequent step size, so a resumed run could
/// never be byte-identical to an uninterrupted one without this state.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdagradStates {
    /// One state per bottom-MLP layer.
    pub bottom: Vec<Adagrad>,
    /// One state per top-MLP layer.
    pub top: Vec<Adagrad>,
    /// One state per table: dense tables get a whole-table accumulator,
    /// TT tables one accumulator per core.
    pub tables: Vec<Vec<Adagrad>>,
}

/// The DLRM model.
pub struct DlrmModel {
    /// Bottom MLP: dense features -> `dim`.
    pub bottom: Mlp,
    /// One embedding layer per sparse field.
    pub tables: Vec<EmbeddingLayer>,
    /// Feature interaction.
    pub interaction: Interaction,
    /// Top MLP: interaction output -> logit.
    pub top: Mlp,
    /// Learning rate (shared by MLPs and embeddings).
    pub lr: f32,
    /// Which optimizer `train_step*` applies.
    pub optimizer: OptimizerKind,
    /// Adagrad accumulators; `None` under SGD.
    opt_states: Option<AdagradStates>,
    /// Per-table pooled embeddings of the last forward, reused across steps.
    pooled: Vec<Matrix>,
    /// The bottom MLP's input and output. The input is moved into the MLP
    /// for the step and taken back after its backward.
    dense: Matrix,
    z0: Matrix,
    /// The interaction's output (the top MLP's input, moved in and taken
    /// back like `dense`) and per-feature gradients.
    inter_out: Matrix,
    inter_grads: Vec<Matrix>,
    /// The top MLP's output and input gradient.
    logits: Matrix,
    d_inter: Matrix,
}

impl DlrmModel {
    /// Builds a model, compressing large tables per the configuration.
    pub fn new(config: &DlrmConfig, rng: &mut impl Rng) -> Self {
        let mut bottom_sizes = vec![config.num_dense.max(1)];
        bottom_sizes.extend_from_slice(&config.bottom_hidden);
        bottom_sizes.push(config.dim);
        let bottom = Mlp::new(&bottom_sizes, rng);

        let tables: Vec<EmbeddingLayer> = config
            .table_cardinalities
            .iter()
            .map(|&card| {
                if card >= config.tt_threshold {
                    let tt_cfg = TtConfig::new(card, config.dim, config.tt_rank);
                    EmbeddingLayer::Tt(
                        Box::new(TtEmbeddingBag::new(&tt_cfg, rng)),
                        TtWorkspace::new(),
                    )
                } else {
                    EmbeddingLayer::Dense(EmbeddingBag::new(card, config.dim, 0.05, rng))
                }
            })
            .collect();

        let mut top_sizes = vec![Interaction::new(1 + tables.len(), config.dim).out_dim()];
        top_sizes.extend_from_slice(&config.top_hidden);
        top_sizes.push(1);
        let top = Mlp::new(&top_sizes, rng);
        Self::from_parts(bottom, tables, top, config.lr, config.optimizer)
    }

    /// Reassembles a model from pre-built components (checkpoint restore).
    pub fn from_parts(
        bottom: Mlp,
        tables: Vec<EmbeddingLayer>,
        top: Mlp,
        lr: f32,
        optimizer: OptimizerKind,
    ) -> Self {
        let dim = tables.first().map(EmbeddingLayer::dim).unwrap_or(bottom.out_dim());
        let interaction = Interaction::new(1 + tables.len(), dim);
        let opt_states = match optimizer {
            OptimizerKind::Sgd => None,
            OptimizerKind::Adagrad { eps } => {
                let make = |mut states: Vec<Adagrad>| {
                    for s in &mut states {
                        s.eps = eps;
                    }
                    states
                };
                Some(AdagradStates {
                    bottom: make(bottom.adagrad_states()),
                    top: make(top.adagrad_states()),
                    tables: tables
                        .iter()
                        .map(|t| {
                            make(match t {
                                EmbeddingLayer::Dense(b) => vec![Adagrad::new(b.weight.len())],
                                EmbeddingLayer::Tt(b, _) => {
                                    b.cores().cores.iter().map(|c| Adagrad::new(c.len())).collect()
                                }
                                EmbeddingLayer::Hosted { .. } => Vec::new(),
                            })
                        })
                        .collect(),
                })
            }
        };
        Self {
            bottom,
            tables,
            interaction,
            top,
            lr,
            optimizer,
            opt_states,
            pooled: Vec::new(),
            dense: Matrix::default(),
            z0: Matrix::default(),
            inter_out: Matrix::default(),
            inter_grads: Vec::new(),
            logits: Matrix::default(),
            d_inter: Matrix::default(),
        }
    }

    /// Reassembles a model and installs previously captured optimizer
    /// state (checkpoint restore, format v2). `states == None` behaves
    /// like [`DlrmModel::from_parts`]: fresh accumulators.
    pub fn from_parts_with_states(
        bottom: Mlp,
        tables: Vec<EmbeddingLayer>,
        top: Mlp,
        lr: f32,
        optimizer: OptimizerKind,
        states: Option<AdagradStates>,
    ) -> Result<Self, String> {
        let mut model = Self::from_parts(bottom, tables, top, lr, optimizer);
        if let Some(states) = states {
            model.install_opt_states(states)?;
        }
        Ok(model)
    }

    /// The model's Adagrad accumulators, if it trains with Adagrad.
    pub fn opt_states(&self) -> Option<&AdagradStates> {
        self.opt_states.as_ref()
    }

    /// Replaces the optimizer accumulators with captured ones, validating
    /// that every component's state length matches this model's shape.
    pub fn install_opt_states(&mut self, states: AdagradStates) -> Result<(), String> {
        let Some(fresh) = self.opt_states.as_ref() else {
            return Err("optimizer state supplied for an SGD model".into());
        };
        let describe = |what: &str, got: usize, want: usize| {
            format!("{what}: captured state has {got} entries, model needs {want}")
        };
        if states.bottom.len() != fresh.bottom.len() {
            return Err(describe("bottom MLP", states.bottom.len(), fresh.bottom.len()));
        }
        if states.top.len() != fresh.top.len() {
            return Err(describe("top MLP", states.top.len(), fresh.top.len()));
        }
        if states.tables.len() != fresh.tables.len() {
            return Err(describe("tables", states.tables.len(), fresh.tables.len()));
        }
        let pairs = states
            .bottom
            .iter()
            .zip(&fresh.bottom)
            .chain(states.top.iter().zip(&fresh.top))
            .chain(states.tables.iter().flatten().zip(fresh.tables.iter().flatten()));
        for (got, want) in pairs {
            if got.accum.len() != want.accum.len() {
                return Err(describe("accumulator", got.accum.len(), want.accum.len()));
            }
        }
        for (got, want) in states.tables.iter().zip(&fresh.tables) {
            if got.len() != want.len() {
                return Err(describe("table cores", got.len(), want.len()));
            }
        }
        self.opt_states = Some(states);
        Ok(())
    }

    /// Number of sparse fields.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Moves every `Dense` table whose index `pick` accepts out of the
    /// model, leaving `Hosted { dim }` behind, and returns the moved tables
    /// with their indices for a parameter server. Other tables stay put.
    pub fn host_dense_tables(
        &mut self,
        mut pick: impl FnMut(usize) -> bool,
    ) -> Vec<(usize, EmbeddingBag)> {
        let mut host = Vec::new();
        for (t, table) in self.tables.iter_mut().enumerate() {
            if matches!(table, EmbeddingLayer::Dense(_)) && pick(t) {
                let dim = table.dim();
                if let EmbeddingLayer::Dense(bag) =
                    std::mem::replace(table, EmbeddingLayer::Hosted { dim })
                {
                    host.push((t, bag));
                }
            }
        }
        host
    }

    /// Table indices served by the parameter server.
    pub fn hosted_tables(&self) -> Vec<usize> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, EmbeddingLayer::Hosted { .. }))
            .map(|(i, _)| i)
            .collect()
    }

    /// Device-resident embedding bytes (Table III's EL-Rec column).
    pub fn embedding_footprint_bytes(&self) -> usize {
        self.tables.iter().map(EmbeddingLayer::footprint_bytes).sum()
    }

    /// Stage timers summed over all TT tables (analysis vs forward vs
    /// backward wall time). The tables run side by side, so this adds
    /// overlapping per-table wall times; it is not a share of the step.
    pub fn stage_timers(&self) -> StageTimers {
        let mut total = StageTimers::default();
        for t in &self.tables {
            if let EmbeddingLayer::Tt(_, ws) = t {
                total.merge(&ws.stage_timers());
            }
        }
        total
    }

    /// Zeroes every TT table's stage timers.
    pub fn reset_stage_timers(&mut self) {
        for t in &mut self.tables {
            if let EmbeddingLayer::Tt(_, ws) = t {
                ws.reset_stage_timers();
            }
        }
    }

    /// One SGD step over a batch where every table is model-resident.
    pub fn train_step(&mut self, batch: &MiniBatch) -> f32 {
        assert!(self.hosted_tables().is_empty(), "model has hosted tables; use train_step_hybrid");
        self.train_step_hybrid(batch, &[]).loss
    }

    /// One SGD step where hosted tables' pooled embeddings are supplied by
    /// the caller (parameter-server pull); returns their gradients for the
    /// push path.
    pub fn train_step_hybrid(
        &mut self,
        batch: &MiniBatch,
        hosted_embeddings: &[(usize, Matrix)],
    ) -> StepOutput {
        let dense = self.dense_input(batch);
        self.bottom.forward_owned(dense, &mut self.z0);
        self.embedding_forward(batch, hosted_embeddings);

        let mut features: Vec<&Matrix> = Vec::with_capacity(1 + self.pooled.len());
        features.push(&self.z0);
        features.extend(self.pooled.iter());
        self.interaction.forward_into(&features, &mut self.inter_out);

        self.top.forward_owned(std::mem::take(&mut self.inter_out), &mut self.logits);
        let (loss, d_logits) = bce_with_logits(&self.logits, &batch.labels);

        // Backward.
        self.top.backward_into(&d_logits, Some(&mut self.d_inter));
        self.inter_out = self.top.take_input();
        self.interaction.backward_into(&features, &self.d_inter, &mut self.inter_grads);
        drop(features);

        // Every table's backward and update, across the pool (see
        // `embedding_forward`).
        let lr = self.lr;
        let mut states: Vec<Option<&mut [Adagrad]>> = match &mut self.opt_states {
            Some(states) => states.tables.iter_mut().map(|s| Some(&mut s[..])).collect(),
            None => self.tables.iter().map(|_| None).collect(),
        };
        self.tables
            .par_iter_mut()
            .zip(&batch.fields)
            .zip(&self.inter_grads[1..])
            .zip(&mut states)
            .for_each(|(((table, field), grad), state)| {
                table.backward(field, grad, state.as_deref_mut(), lr)
            });

        // The bottom MLP's input gradient would have no reader.
        self.bottom.backward_into(&self.inter_grads[0], None);
        self.dense = self.bottom.take_input();
        match &mut self.opt_states {
            None => {
                self.top.step(lr);
                self.bottom.step(lr);
            }
            Some(states) => {
                self.top.step_adagrad(lr, &mut states.top);
                self.bottom.step_adagrad(lr, &mut states.bottom);
            }
        }

        // Hosted tables' gradients go back to their owner, in table order.
        let hosted_grads = self
            .tables
            .iter()
            .zip(&mut self.inter_grads[1..])
            .enumerate()
            .filter(|(_, (table, _))| matches!(table, EmbeddingLayer::Hosted { .. }))
            .map(|(t, (_, grad))| (t, std::mem::take(grad)))
            .collect();
        StepOutput { loss, hosted_grads }
    }

    /// Probability predictions for a batch (no parameter updates; TT
    /// workspaces are still exercised because lookup shares the training
    /// kernels).
    pub fn predict(&mut self, batch: &MiniBatch) -> Vec<f32> {
        let dense = self.dense_input(batch);
        let z0 = self.bottom.predict(&dense);
        self.dense = dense;
        self.embedding_forward(batch, &[]);
        let mut features: Vec<&Matrix> = Vec::with_capacity(1 + self.pooled.len());
        features.push(&z0);
        features.extend(self.pooled.iter());
        self.interaction.forward_into(&features, &mut self.inter_out);
        let logits = self.top.predict(&self.inter_out);
        predict_proba(&logits)
    }

    /// Evaluates accuracy / AUC / log-loss over batches.
    pub fn evaluate(&mut self, batches: &[MiniBatch]) -> EvalMetrics {
        let mut probs = Vec::new();
        let mut labels = Vec::new();
        for b in batches {
            probs.extend(self.predict(b));
            labels.extend_from_slice(&b.labels);
        }
        EvalMetrics {
            accuracy: metrics::accuracy(&probs, &labels),
            auc: metrics::auc(&probs, &labels),
            log_loss: metrics::log_loss(&probs, &labels),
        }
    }

    /// Every table's pooled lookup into `self.pooled`, the tables spread
    /// across the rayon pool (the table-wise axis of two-dimensional sparse
    /// parallelism, inside one worker). Tables touch only their own weights
    /// and workspace, so the bytes are those of a sequential walk. The
    /// outputs are reused across steps.
    fn embedding_forward(&mut self, batch: &MiniBatch, hosted: &[(usize, Matrix)]) {
        assert_eq!(batch.fields.len(), self.tables.len(), "field/table count mismatch");
        let rows = batch.batch_size();
        self.pooled.resize_with(self.tables.len(), || Matrix::zeros(0, 0));
        self.tables
            .par_iter_mut()
            .enumerate()
            .zip(&batch.fields)
            .zip(&mut self.pooled)
            .for_each(|(((t, table), field), out)| table.forward_into(t, field, rows, hosted, out));
    }

    /// The batch's dense features as the bottom MLP's input, in the
    /// model's reused buffer, taken out of the model for the step.
    fn dense_input(&mut self, batch: &MiniBatch) -> Matrix {
        let mut dense = std::mem::take(&mut self.dense);
        if batch.num_dense == 0 {
            // Bottom MLP still needs an input; feed a constant.
            fit(&mut dense, batch.batch_size(), self.bottom.in_dim());
            dense.as_mut_slice().fill(1.0);
        } else {
            fit(&mut dense, batch.batch_size(), batch.num_dense);
            dense.as_mut_slice().copy_from_slice(&batch.dense);
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use el_data::SyntheticDataset;
    use rand::SeedableRng;

    fn toy_config() -> DlrmConfig {
        DlrmConfig {
            num_dense: 4,
            table_cardinalities: vec![100, 2000, 50],
            dim: 8,
            bottom_hidden: vec![16],
            top_hidden: vec![16],
            tt_threshold: 1000, // table 1 becomes TT
            tt_rank: 8,
            lr: 0.05,
            optimizer: OptimizerKind::Sgd,
        }
    }

    fn toy_data() -> SyntheticDataset {
        let mut spec = DatasetSpec::toy(3, 100, 100_000);
        spec.table_cardinalities = vec![100, 2000, 50];
        spec.num_dense = 4;
        SyntheticDataset::new(spec, 77)
    }

    #[test]
    fn model_mixes_dense_and_tt_tables() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let model = DlrmModel::new(&toy_config(), &mut rng);
        assert!(matches!(model.tables[0], EmbeddingLayer::Dense(_)));
        assert!(matches!(model.tables[1], EmbeddingLayer::Tt(_, _)));
        assert!(matches!(model.tables[2], EmbeddingLayer::Dense(_)));
    }

    #[test]
    fn train_step_runs_and_loss_is_finite() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut model = DlrmModel::new(&toy_config(), &mut rng);
        let batch = toy_data().batch(0, 64);
        let loss = model.train_step(&batch);
        assert!(loss.is_finite() && loss > 0.0);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut model = DlrmModel::new(&toy_config(), &mut rng);
        let data = toy_data();
        let mut first = 0.0;
        let mut smoothed_last = 0.0;
        let n = 60;
        for i in 0..n {
            let batch = data.batch(i % 8, 128); // cycle a few batches
            let loss = model.train_step(&batch);
            if i == 0 {
                first = loss;
            }
            if i >= n - 8 {
                smoothed_last += loss / 8.0;
            }
        }
        assert!(smoothed_last < first * 0.98, "loss did not improve: {first} -> {smoothed_last}");
    }

    #[test]
    fn predictions_are_probabilities() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut model = DlrmModel::new(&toy_config(), &mut rng);
        let batch = toy_data().batch(0, 32);
        let probs = model.predict(&batch);
        assert_eq!(probs.len(), 32);
        assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn evaluate_reports_sane_metrics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut model = DlrmModel::new(&toy_config(), &mut rng);
        let data = toy_data();
        let batches: Vec<MiniBatch> = (0..4).map(|i| data.batch(100 + i, 64)).collect();
        let m = model.evaluate(&batches);
        assert!(m.accuracy > 0.0 && m.accuracy <= 1.0);
        assert!(m.auc >= 0.0 && m.auc <= 1.0);
        assert!(m.log_loss.is_finite());
    }

    #[test]
    fn hybrid_step_returns_gradients_for_hosted_tables() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut model = DlrmModel::new(&toy_config(), &mut rng);
        model.tables[2] = EmbeddingLayer::Hosted { dim: 8 };
        let batch = toy_data().batch(0, 16);
        let external = Matrix::uniform(16, 8, 0.1, &mut rng);
        let out = model.train_step_hybrid(&batch, &[(2, external)]);
        assert!(out.loss.is_finite());
        assert_eq!(out.hosted_grads.len(), 1);
        assert_eq!(out.hosted_grads[0].0, 2);
        assert_eq!(out.hosted_grads[0].1.rows(), 16);
        // gradient actually flows: not all zeros
        assert!(out.hosted_grads[0].1.as_slice().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn hosting_moves_only_the_picked_dense_tables() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut model = DlrmModel::new(&toy_config(), &mut rng);
        // table 1 is TT: picked, but not dense, so it stays
        let host = model.host_dense_tables(|t| t >= 1);
        assert_eq!(host.iter().map(|(t, bag)| (*t, bag.dim())).collect::<Vec<_>>(), [(2, 8)]);
        assert_eq!(model.hosted_tables(), vec![2]);
        assert!(matches!(model.tables[0], EmbeddingLayer::Dense(_)));
        assert!(matches!(model.tables[1], EmbeddingLayer::Tt(..)));
        assert_eq!(model.tables[2].dim(), 8);
    }

    #[test]
    #[should_panic(expected = "missing its embeddings")]
    fn hybrid_step_requires_hosted_embeddings() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut model = DlrmModel::new(&toy_config(), &mut rng);
        model.tables[0] = EmbeddingLayer::Hosted { dim: 8 };
        let batch = toy_data().batch(0, 4);
        let _ = model.train_step_hybrid(&batch, &[]);
    }

    #[test]
    fn adagrad_training_reduces_loss() {
        let mut cfg = toy_config();
        cfg.optimizer = OptimizerKind::Adagrad { eps: 1e-8 };
        cfg.lr = 0.05;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut model = DlrmModel::new(&cfg, &mut rng);
        let data = toy_data();
        let mut first = 0.0;
        let mut last = 0.0;
        for i in 0..50 {
            let loss = model.train_step(&data.batch(i % 8, 128));
            if i == 0 {
                first = loss;
            }
            last = loss;
        }
        assert!(last < first, "adagrad did not learn: {first} -> {last}");
    }

    #[test]
    fn adagrad_differs_from_sgd_after_one_step() {
        let batch = toy_data().batch(0, 64);
        let run = |optimizer: OptimizerKind| {
            let mut cfg = toy_config();
            cfg.optimizer = optimizer;
            let mut rng = rand::rngs::StdRng::seed_from_u64(12);
            let mut model = DlrmModel::new(&cfg, &mut rng);
            let _ = model.train_step(&batch);
            model.predict(&toy_data().batch(5, 16))
        };
        let sgd = run(OptimizerKind::Sgd);
        let ada = run(OptimizerKind::Adagrad { eps: 1e-8 });
        assert!(
            sgd.iter().zip(&ada).any(|(a, b)| (a - b).abs() > 1e-6),
            "optimizers should produce different parameter updates"
        );
    }

    #[test]
    fn tt_compression_shrinks_footprint() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let compressed = DlrmModel::new(&toy_config(), &mut rng);
        let mut uncompressed_cfg = toy_config();
        uncompressed_cfg.tt_threshold = usize::MAX;
        let uncompressed = DlrmModel::new(&uncompressed_cfg, &mut rng);
        assert!(compressed.embedding_footprint_bytes() < uncompressed.embedding_footprint_bytes());
    }
}
