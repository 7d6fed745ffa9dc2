//! The serving tier's coalescing must be *invisible* to clients: batching
//! requests together (in any interleaving) has to return byte-for-byte the
//! answer each request would have gotten alone.
//!
//! Property 1 drives the [`el_serve::Coalescer`] directly — one coalesced
//! batch vs. the same requests issued sequentially, each through its own
//! fresh session, compared with exact `==` on the f32 output. This holds
//! because every product is read from the same cached copy on both the hit
//! and the miss path.
//!
//! Property 2 re-partitions the same request set into arbitrary
//! sub-batches served through *one* session, so cache state evolves
//! differently (hits where the one-shot batch saw misses) — the answers
//! must still be identical.
//!
//! Property 3 bounds the coalesced serving output against the training
//! forward: within 1e-5 of the output magnitude.

use el_core::{TtConfig, TtEmbeddingBag, TtInferenceSession, TtWorkspace};
use el_serve::{Coalescer, ServeRequest};
use proptest::prelude::*;
use rand::SeedableRng;

/// A random small table: order 2..=4, rows 6..=200, dim in {4, 8, 16}.
fn arb_config() -> impl Strategy<Value = TtConfig> {
    (2usize..=4, 6usize..=200, prop_oneof![Just(4usize), Just(8), Just(16)], 2usize..=6)
        .prop_map(|(order, rows, dim, rank)| TtConfig::with_order(rows, dim, rank, order))
}

/// 1..=12 requests of 1..=9 lookups each (raw, reduced mod rows later).
fn arb_requests() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..1_000_000, 1..10), 1..13)
}

fn make_table(config: &TtConfig, seed: u64) -> TtEmbeddingBag {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    TtEmbeddingBag::new(config, &mut rng)
}

fn make_reqs(raw: &[Vec<u32>], num_rows: usize) -> Vec<ServeRequest> {
    raw.iter()
        .enumerate()
        .map(|(i, indices)| ServeRequest {
            tenant: 0,
            id: i as u64,
            indices: indices.iter().map(|&x| x % num_rows as u32).collect(),
            out: Vec::new(),
            submit_ns: 0,
        })
        .collect()
}

/// The per-request oracle: each request served alone through a fresh
/// session (no shared cache state, no batching).
fn sequential_oracle(table: &TtEmbeddingBag, reqs: &[ServeRequest]) -> Vec<Vec<f32>> {
    reqs.iter()
        .map(|r| {
            let mut session = TtInferenceSession::new(table, 64);
            session.lookup(&r.indices, &[0, r.indices.len() as u32]).as_slice().to_vec()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One coalesced batch == per-request sequential issuance, exactly.
    #[test]
    fn coalesced_batch_is_byte_identical_to_sequential(
        (config, seed) in arb_config().prop_flat_map(|c| (Just(c), 0u64..1000)),
        raw in arb_requests(),
    ) {
        let table = make_table(&config, seed);
        let mut reqs = make_reqs(&raw, config.num_rows);
        let want = sequential_oracle(&table, &reqs);
        let mut session = TtInferenceSession::new(&table, 64);
        let mut co = Coalescer::new();
        co.process_into(&mut session, &mut reqs);
        for (r, w) in reqs.iter().zip(&want) {
            prop_assert_eq!(
                r.out.as_slice(), w.as_slice(),
                "request {} diverged under coalescing", r.id
            );
        }
    }

    /// Any re-partitioning of the request stream into sub-batches through
    /// one long-lived session (cache state carrying over between batches)
    /// still answers every request identically.
    #[test]
    fn arbitrary_interleavings_are_byte_identical(
        (config, seed) in arb_config().prop_flat_map(|c| (Just(c), 0u64..1000)),
        raw in arb_requests(),
        cuts in proptest::collection::vec(0usize..13, 0..5),
    ) {
        let table = make_table(&config, seed);
        let mut reqs = make_reqs(&raw, config.num_rows);
        let want = sequential_oracle(&table, &reqs);

        // cuts -> a partition of [0, len) into consecutive sub-batches
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (reqs.len() + 1)).collect();
        bounds.push(0);
        bounds.push(reqs.len());
        bounds.sort_unstable();
        bounds.dedup();

        let mut session = TtInferenceSession::new(&table, 64);
        let mut co = Coalescer::new();
        for w in bounds.windows(2) {
            co.process_into(&mut session, &mut reqs[w[0]..w[1]]);
        }
        for (r, w) in reqs.iter().zip(&want) {
            prop_assert_eq!(
                r.out.as_slice(), w.as_slice(),
                "request {} diverged under re-partitioning", r.id
            );
        }
    }

    /// Coalesced serving stays within 1e-5 of the training forward, in
    /// units of the output magnitude.
    #[test]
    fn coalesced_output_is_bounded_against_training_forward(
        (config, seed) in arb_config().prop_flat_map(|c| (Just(c), 0u64..1000)),
        raw in arb_requests(),
    ) {
        let table = make_table(&config, seed);
        let mut ws = TtWorkspace::new();
        let mut reqs = make_reqs(&raw, config.num_rows);
        let mut session = TtInferenceSession::new(&table, 64);
        let mut co = Coalescer::new();
        co.process_into(&mut session, &mut reqs);
        for r in &reqs {
            let want = table.forward(&r.indices, &[0, r.indices.len() as u32], &mut ws);
            let scale = want.as_slice().iter().fold(1.0f32, |m, v| m.max(v.abs()));
            let diff = r
                .out
                .iter()
                .zip(want.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            prop_assert!(
                diff < 1e-5 * scale,
                "request {} diverged from training forward by {} (scale {})",
                r.id, diff, scale
            );
        }
    }
}
