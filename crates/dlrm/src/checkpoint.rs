//! The model section of a checkpoint.
//!
//! Industry DLRM training runs for days; a training system needs durable
//! snapshots. [`DlrmCheckpoint`] captures everything trainable (MLPs,
//! dense tables, TT cores, optimizer choice **and** optimizer
//! accumulators) in a serde-serializable form; kernel workspaces and
//! option flags that only affect speed are rebuilt on load.
//!
//! This module owns the model payload's codec ([`DlrmCheckpoint::capture`],
//! [`DlrmCheckpoint::restore`], [`DlrmCheckpoint::to_bytes`],
//! [`DlrmCheckpoint::from_bytes`]) and its typed failure: a corrupt or
//! future-versioned payload is a [`CkptError`], never a panic. It writes
//! no file. The one durable format — a framed, checksummed file with this
//! payload as its `model` section beside the hosted tables and the loader
//! cursor, saved by one atomic write — is `el_pipeline::ckpt` (DESIGN.md
//! §11). Hosted tables appear here only as dimension stubs, because their
//! parameters live in the parameter server.

use crate::embedding_bag::EmbeddingBag;
use crate::mlp::Mlp;
use crate::model::{AdagradStates, DlrmModel, EmbeddingLayer};
use crate::optim::OptimizerKind;
use el_core::{TtEmbeddingBag, TtOptions, TtWorkspace};
use el_tensor::tt::TtCores;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Typed checkpoint failure: corruption, versioning and IO are distinct
/// conditions with distinct recoveries (fall back to an older file, warn
/// and upgrade, retry the mount), so they must not collapse into one
/// opaque `io::Error` — and never into a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptError {
    /// The bytes are not a valid checkpoint: bad magic, framing that runs
    /// past the end of the file, a checksum mismatch, or a payload that
    /// fails to deserialize. Carries a human-readable reason.
    Corrupt(String),
    /// The checkpoint's format version is not supported by this build.
    Version {
        /// Version recorded in the file.
        got: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// The checkpoint is well-formed but inconsistent with the model it
    /// is being restored into (e.g. optimizer state of the wrong shape).
    StateMismatch(String),
    /// The underlying storage failed (message of the OS error).
    Io(String),
    /// A checkpoint store scan found no checkpoint that passes
    /// verification.
    NoValidCheckpoint,
    /// A checkpointed run was asked to save every zero batches.
    ZeroInterval,
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
            CkptError::Version { got, supported } => {
                write!(f, "unsupported checkpoint version {got} (this build reads <= {supported})")
            }
            CkptError::StateMismatch(why) => {
                write!(f, "checkpoint does not fit the model: {why}")
            }
            CkptError::Io(why) => write!(f, "checkpoint IO failed: {why}"),
            CkptError::NoValidCheckpoint => write!(f, "no valid checkpoint found"),
            CkptError::ZeroInterval => {
                write!(f, "checkpoint interval must be at least one batch")
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e.to_string())
    }
}

/// Serializable snapshot of one embedding layer.
#[derive(Serialize, Deserialize)]
pub enum TableCheckpoint {
    /// Uncompressed table.
    Dense(EmbeddingBag),
    /// TT table: cores plus logical row count and kernel options.
    Tt {
        /// The trained cores.
        cores: TtCores,
        /// Logical rows (capacity may be padded above this).
        num_rows: usize,
        /// Kernel options to restore.
        options: TtOptions,
    },
    /// Parameters live elsewhere; only the dimension is recorded. The
    /// owning parameter server's state is captured separately
    /// (`el_pipeline::ckpt::ServerCheckpoint`).
    Hosted {
        /// Embedding dimension.
        dim: usize,
    },
}

/// Serializable snapshot of a whole model.
#[derive(Serialize, Deserialize)]
pub struct DlrmCheckpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Bottom MLP parameters.
    pub bottom: Mlp,
    /// Top MLP parameters.
    pub top: Mlp,
    /// Embedding layers.
    pub tables: Vec<TableCheckpoint>,
    /// Learning rate.
    pub lr: f32,
    /// Optimizer kind.
    pub optimizer: OptimizerKind,
    /// Adagrad accumulators (format v2; `None` for SGD models and for v1
    /// files, which dropped them). Absent accumulators on an Adagrad
    /// model restart from zero with a logged warning — the resumed run is
    /// then *not* byte-identical to an uninterrupted one.
    #[serde(default)]
    pub opt_states: Option<AdagradStates>,
}

/// Current checkpoint format version.
///
/// * v1 — parameters only; Adagrad accumulators intentionally dropped.
/// * v2 — adds `opt_states` so an Adagrad run resumes byte-identically.
pub const CHECKPOINT_VERSION: u32 = 2;

impl DlrmCheckpoint {
    /// Captures a model, including optimizer accumulators.
    pub fn capture(model: &DlrmModel) -> Self {
        let tables: Vec<TableCheckpoint> = model
            .tables
            .iter()
            .map(|t| match t {
                EmbeddingLayer::Dense(bag) => TableCheckpoint::Dense(bag.clone()),
                EmbeddingLayer::Tt(bag, _) => TableCheckpoint::Tt {
                    cores: bag.cores().clone(),
                    num_rows: bag.num_rows(),
                    options: bag.options.clone(),
                },
                EmbeddingLayer::Hosted { dim } => TableCheckpoint::Hosted { dim: *dim },
            })
            .collect();
        let mut opt_states = model.opt_states().cloned();
        if let Some(states) = &mut opt_states {
            // Hosted tables train server-side (plain SGD on the parameter
            // server); any worker-side accumulator entry for them is a
            // leftover from before the table was hoisted and must not be
            // persisted — restore builds hosted entries empty.
            for (i, t) in model.tables.iter().enumerate() {
                if matches!(t, EmbeddingLayer::Hosted { .. }) {
                    if let Some(entry) = states.tables.get_mut(i) {
                        entry.clear();
                    }
                }
            }
        }
        Self {
            version: CHECKPOINT_VERSION,
            bottom: model.bottom.clone(),
            top: model.top.clone(),
            tables,
            lr: model.lr,
            optimizer: model.optimizer,
            opt_states,
        }
    }

    /// Restores a model (fresh workspaces; optimizer accumulators from
    /// the checkpoint when present, restarted with a warning otherwise).
    pub fn restore(self) -> Result<DlrmModel, CkptError> {
        if self.version == 0 || self.version > CHECKPOINT_VERSION {
            return Err(CkptError::Version { got: self.version, supported: CHECKPOINT_VERSION });
        }
        let tables = self
            .tables
            .into_iter()
            .map(|t| match t {
                TableCheckpoint::Dense(bag) => EmbeddingLayer::Dense(bag),
                TableCheckpoint::Tt { cores, num_rows, options } => EmbeddingLayer::Tt(
                    Box::new(TtEmbeddingBag::from_cores(cores, num_rows).with_options(options)),
                    TtWorkspace::new(),
                ),
                TableCheckpoint::Hosted { dim } => EmbeddingLayer::Hosted { dim },
            })
            .collect();
        if matches!(self.optimizer, OptimizerKind::Adagrad { .. }) && self.opt_states.is_none() {
            eprintln!(
                "warning: checkpoint (format v{}) carries no Adagrad accumulators; \
                 restarting them — the resumed trajectory will diverge from the \
                 original run",
                self.version
            );
        }
        DlrmModel::from_parts_with_states(
            self.bottom,
            tables,
            self.top,
            self.lr,
            self.optimizer,
            self.opt_states,
        )
        .map_err(CkptError::StateMismatch)
    }

    /// Serializes to JSON bytes (the payload of a checkpoint's `model`
    /// section).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("serializing to a Vec cannot fail")
    }

    /// Deserializes from bytes with a typed corruption error.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| CkptError::Corrupt(format!("model payload not UTF-8: {e}")))?;
        serde_json::from_str(text).map_err(|e| CkptError::Corrupt(format!("model payload: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DlrmConfig;
    use el_data::{DatasetSpec, SyntheticDataset};
    use rand::SeedableRng;

    fn trained_model_with(optimizer: OptimizerKind) -> (DlrmModel, SyntheticDataset) {
        let mut spec = DatasetSpec::toy(3, 1500, 1_000_000);
        spec.num_dense = 4;
        let ds = SyntheticDataset::new(spec, 55);
        let cfg = DlrmConfig {
            num_dense: 4,
            table_cardinalities: vec![1500; 3],
            dim: 8,
            bottom_hidden: vec![16],
            top_hidden: vec![16],
            tt_threshold: 1000, // all tables TT
            tt_rank: 8,
            lr: 0.05,
            optimizer,
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut model = DlrmModel::new(&cfg, &mut rng);
        for k in 0..5 {
            let _ = model.train_step(&ds.batch(k, 64));
        }
        (model, ds)
    }

    fn trained_model() -> (DlrmModel, SyntheticDataset) {
        trained_model_with(OptimizerKind::Sgd)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (mut model, ds) = trained_model();
        let batch = ds.batch(100, 32);
        let before = model.predict(&batch);

        let bytes = DlrmCheckpoint::capture(&model).to_bytes();
        let mut restored = DlrmCheckpoint::from_bytes(&bytes).unwrap().restore().unwrap();
        let after = restored.predict(&batch);
        assert_eq!(before, after, "restored model must predict identically");
    }

    #[test]
    fn restored_model_keeps_training() {
        let (model, ds) = trained_model();
        let bytes = DlrmCheckpoint::capture(&model).to_bytes();
        let mut restored = DlrmCheckpoint::from_bytes(&bytes).unwrap().restore().unwrap();
        let loss = restored.train_step(&ds.batch(50, 64));
        assert!(loss.is_finite());
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let (model, _) = trained_model();
        let mut ckpt = DlrmCheckpoint::capture(&model);
        ckpt.version = 999;
        match ckpt.restore() {
            Err(CkptError::Version { got: 999, supported }) => {
                assert_eq!(supported, CHECKPOINT_VERSION)
            }
            other => panic!("expected a version error, got {:?}", other.map(|_| "a model")),
        }
    }

    #[test]
    fn low_bit_tables_are_a_typed_error() {
        // Files written while int8 and bf16 tables still trained in the
        // model carry `Quantized` / `Bf16` table variants. Loading one
        // fails with a corruption error that names the variant.
        let cfg = DlrmConfig::for_spec(&DatasetSpec::toy(2, 50, 1_000), 8, usize::MAX, 8);
        let model = DlrmModel::new(&cfg, &mut rand::rngs::StdRng::seed_from_u64(11));
        let json = String::from_utf8(DlrmCheckpoint::capture(&model).to_bytes()).unwrap();
        assert_eq!(json.matches(r#"{"Dense":"#).count(), 2, "one entry per dense table");
        for variant in ["Quantized", "Bf16"] {
            let old = json.replace(r#"{"Dense":"#, &format!(r#"{{"{variant}":"#));
            match DlrmCheckpoint::from_bytes(old.as_bytes()) {
                Err(CkptError::Corrupt(msg)) => assert!(msg.contains(variant), "{msg}"),
                other => panic!("expected Corrupt, got {:?}", other.map(|_| "a checkpoint")),
            }
        }
    }

    #[test]
    fn hosted_tables_round_trip_as_stubs() {
        let (mut model, _) = trained_model();
        model.tables[1] = EmbeddingLayer::Hosted { dim: 8 };
        let bytes = DlrmCheckpoint::capture(&model).to_bytes();
        let restored = DlrmCheckpoint::from_bytes(&bytes).unwrap().restore().unwrap();
        assert_eq!(restored.hosted_tables(), vec![1]);
    }

    #[test]
    fn adagrad_accumulators_resume_byte_identically() {
        // Uninterrupted: train 5 + 3 more batches. Interrupted: train 5,
        // checkpoint, restore, train the same 3. With persisted
        // accumulators both must follow the same bit-exact trajectory.
        let (mut oracle, ds) = trained_model_with(OptimizerKind::Adagrad { eps: 1e-8 });
        let ckpt = DlrmCheckpoint::capture(&oracle);
        assert!(ckpt.opt_states.is_some(), "v2 must capture Adagrad state");
        let bytes = ckpt.to_bytes();
        let mut resumed = DlrmCheckpoint::from_bytes(&bytes).unwrap().restore().unwrap();
        for k in 5..8 {
            let a = oracle.train_step(&ds.batch(k, 64));
            let b = resumed.train_step(&ds.batch(k, 64));
            assert_eq!(a.to_bits(), b.to_bits(), "loss diverged at batch {k}");
        }
        let check = ds.batch(99, 32);
        for (a, b) in oracle.predict(&check).iter().zip(resumed.predict(&check)) {
            assert_eq!(a.to_bits(), b.to_bits(), "predictions diverged after resume");
        }
    }

    #[test]
    fn v1_checkpoint_loads_with_restarted_accumulators() {
        // A v1 file has version: 1 and no opt_states field at all. It
        // must load (not panic), with accumulators restarted.
        let (model, ds) = trained_model_with(OptimizerKind::Adagrad { eps: 1e-8 });
        let mut ckpt = DlrmCheckpoint::capture(&model);
        ckpt.version = 1;
        ckpt.opt_states = None;
        let json = String::from_utf8(ckpt.to_bytes()).unwrap();
        assert!(!json.contains("\"opt_states\":{"), "v1 surrogate must not carry state");
        let mut restored = DlrmCheckpoint::from_bytes(json.as_bytes()).unwrap().restore().unwrap();
        let fresh = restored.opt_states().expect("adagrad model rebuilds state");
        assert!(
            fresh.bottom.iter().all(|s| s.accum.iter().all(|&a| a == 0.0)),
            "v1 load must restart accumulators from zero"
        );
        assert!(restored.train_step(&ds.batch(9, 32)).is_finite());
    }

    #[test]
    fn tt_options_with_retired_fields_still_load() {
        // Checkpoints written before `deterministic` and `fused_pooling`
        // were removed carry six `TtOptions` fields; the two retired keys
        // are ignored and the four live ones restore.
        let (mut model, ds) = trained_model();
        for t in &mut model.tables {
            if let EmbeddingLayer::Tt(bag, _) = t {
                bag.options = TtOptions {
                    forward: el_core::ForwardStrategy::Naive,
                    backward: el_core::BackwardStrategy::PerLookup,
                    fused_update: false,
                    parallel_analysis: false,
                };
            }
        }
        let json = String::from_utf8(DlrmCheckpoint::capture(&model).to_bytes()).unwrap();
        let live = r#""fused_update":false,"parallel_analysis":false}"#;
        let retired = r#""fused_update":false,"deterministic":true,"parallel_analysis":false,"fused_pooling":true}"#;
        assert_eq!(json.matches(live).count(), 3, "one options object per TT table");
        let old = json.replace(live, retired);

        let mut restored = DlrmCheckpoint::from_bytes(old.as_bytes()).unwrap().restore().unwrap();
        for t in &restored.tables {
            let EmbeddingLayer::Tt(bag, _) = t else { panic!("every table is TT") };
            assert_eq!(bag.options.forward, el_core::ForwardStrategy::Naive);
            assert_eq!(bag.options.backward, el_core::BackwardStrategy::PerLookup);
            assert!(!bag.options.fused_update && !bag.options.parallel_analysis);
        }
        let batch = ds.batch(4, 32);
        assert_eq!(model.predict(&batch), restored.predict(&batch));
    }

    #[test]
    fn mismatched_opt_states_are_rejected() {
        let (model, _) = trained_model_with(OptimizerKind::Adagrad { eps: 1e-8 });
        let (other, _) = trained_model_with(OptimizerKind::Adagrad { eps: 1e-8 });
        let mut ckpt = DlrmCheckpoint::capture(&model);
        let mut wrong = other.opt_states().unwrap().clone();
        wrong.bottom[0].accum.push(0.0); // shape no longer fits
        ckpt.opt_states = Some(wrong);
        match ckpt.restore() {
            Err(CkptError::StateMismatch(_)) => {}
            other => panic!("expected StateMismatch, got {:?}", other.map(|_| "a model")),
        }
    }

    #[test]
    fn corrupt_bytes_are_a_typed_error() {
        match DlrmCheckpoint::from_bytes(b"{ not json") {
            Err(CkptError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| "a model")),
        }
    }
}
