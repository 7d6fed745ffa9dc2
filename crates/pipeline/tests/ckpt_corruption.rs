//! The corruption matrix (DESIGN.md §11).
//!
//! A valid training checkpoint truncated at *every* byte boundary and
//! bit-flipped at *every* byte position must surface as a typed
//! [`CkptError`] — never a panic, never a silently wrong model — and a
//! store holding an older valid checkpoint must fall back to it no
//! matter which corruption hit the newest file.

use el_dlrm::checkpoint::{CkptError, DlrmCheckpoint};
use el_dlrm::{DlrmConfig, DlrmModel, OptimizerKind};
use el_pipeline::ckpt::{verify_bytes, CkptStore, MemStorage, Storage, TrainingCheckpoint};
use rand::SeedableRng;
use std::sync::Arc;

/// A deliberately tiny model so the full byte-granular matrix stays fast.
fn tiny_ckpt(next_batch: u64) -> TrainingCheckpoint {
    let cfg = DlrmConfig {
        num_dense: 2,
        table_cardinalities: vec![12],
        dim: 2,
        bottom_hidden: vec![4],
        top_hidden: vec![4],
        tt_threshold: usize::MAX,
        tt_rank: 4,
        lr: 0.05,
        optimizer: OptimizerKind::Sgd,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let model = DlrmModel::new(&cfg, &mut rng);
    TrainingCheckpoint { model: Some(DlrmCheckpoint::capture(&model)), server: None, next_batch }
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = tiny_ckpt(3).to_framed_bytes();
    assert!(TrainingCheckpoint::from_framed_bytes(&bytes).is_ok(), "baseline must be valid");
    for len in 0..bytes.len() {
        match TrainingCheckpoint::from_framed_bytes(&bytes[..len]) {
            Err(CkptError::Corrupt(_)) => {}
            Err(e) => panic!("truncation to {len} bytes: wrong error kind: {e}"),
            Ok(_) => panic!("truncation to {len} bytes decoded successfully"),
        }
        assert!(verify_bytes(&bytes[..len]).is_err(), "verify accepted truncation to {len}");
    }
}

#[test]
fn every_single_byte_flip_is_a_typed_error() {
    let bytes = tiny_ckpt(3).to_framed_bytes();
    for pos in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x40;
        match TrainingCheckpoint::from_framed_bytes(&mutated) {
            Err(CkptError::Corrupt(_)) => {}
            Err(e) => panic!("flip at byte {pos}: wrong error kind: {e}"),
            Ok(_) => panic!("flip at byte {pos} decoded successfully"),
        }
        assert!(verify_bytes(&mutated).is_err(), "verify accepted flip at byte {pos}");
    }
}

/// Saves an older and a newer checkpoint, returns the store handle, the
/// shared storage, and the newer file's name and bytes.
fn two_checkpoint_store() -> (CkptStore<Arc<MemStorage>>, Arc<MemStorage>, String, Vec<u8>) {
    let storage = Arc::new(MemStorage::new());
    let mut store = CkptStore::open(Arc::clone(&storage), 4).unwrap();
    store.save(&tiny_ckpt(3)).unwrap();
    let newest = store.save(&tiny_ckpt(7)).unwrap();
    let bytes = storage.read_file(&newest).unwrap();
    (store, storage, newest, bytes)
}

#[test]
fn store_falls_back_to_previous_valid_at_every_truncation() {
    let (store, storage, newest, bytes) = two_checkpoint_store();
    for len in 0..bytes.len() {
        storage.corrupt_file(&newest, bytes[..len].to_vec());
        let (name, ckpt) = store
            .latest_valid()
            .unwrap_or_else(|e| panic!("truncation to {len} bytes lost recovery: {e}"));
        assert_ne!(name, newest, "truncation to {len} bytes: corrupted file won");
        assert_eq!(ckpt.next_batch, 3, "truncation to {len} bytes recovered the wrong state");
    }
}

#[test]
fn store_falls_back_to_previous_valid_at_every_flip() {
    let (store, storage, newest, bytes) = two_checkpoint_store();
    for pos in 0..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x01;
        storage.corrupt_file(&newest, mutated);
        let (name, ckpt) = store
            .latest_valid()
            .unwrap_or_else(|e| panic!("flip at byte {pos} lost recovery: {e}"));
        assert_ne!(name, newest, "flip at byte {pos}: corrupted file won");
        assert_eq!(ckpt.next_batch, 3, "flip at byte {pos} recovered the wrong state");
    }
    // restoring the original bytes restores the newest checkpoint
    storage.corrupt_file(&newest, bytes);
    assert_eq!(store.latest_valid().unwrap().1.next_batch, 7);
}

#[test]
fn corruption_of_every_file_reports_no_valid_checkpoint() {
    let (store, storage, _, _) = two_checkpoint_store();
    for name in store.names_newest_first().unwrap() {
        let bytes = storage.read_file(&name).unwrap();
        storage.corrupt_file(&name, bytes[..bytes.len() / 2].to_vec());
    }
    match store.latest_valid() {
        Err(CkptError::NoValidCheckpoint) => {}
        Err(e) => panic!("wrong error kind: {e}"),
        Ok((name, _)) => panic!("recovered from fully corrupted store: {name}"),
    }
}
