//! Reordering determinism: the Louvain bijection must be a pure function
//! of `(cardinality, batches, config)` — identical across repeated runs,
//! and identical across `RAYON_NUM_THREADS` settings (guarding against a
//! future parallelization of the graph build or community detection
//! introducing schedule-dependent tie-breaks). The thread-count cases
//! re-exec this test binary, following `vendor/rayon/tests/stress.rs`,
//! because a pool's size is fixed at first use within a process.

use el_reorder::{IndexBijection, ReorderConfig, Reorderer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::Command;

const CARDINALITY: usize = 400;

/// A deterministic, skewed profiling workload: heavy head plus clustered
/// tail co-occurrences, enough structure for Louvain to find communities.
fn workload(seed: u64) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..60)
        .map(|_| {
            let mut batch = Vec::with_capacity(24);
            for _ in 0..8 {
                batch.push(rng.gen_range(0..(CARDINALITY / 20) as u32)); // hot head
            }
            let cluster = rng.gen_range(0..8u32);
            for _ in 0..16 {
                let lo = (CARDINALITY / 20) as u32 + cluster * 40;
                batch.push(rng.gen_range(lo..lo + 40).min(CARDINALITY as u32 - 1));
            }
            batch
        })
        .collect()
}

fn fit(seed: u64) -> IndexBijection {
    let batches = workload(seed);
    let views: Vec<&[u32]> = batches.iter().map(|b| b.as_slice()).collect();
    Reorderer::default().fit(CARDINALITY, &views)
}

/// FNV-1a over the forward map — the whole bijection, since `inverse` is
/// derived from `forward`.
fn bijection_hash(b: &IndexBijection) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in &b.forward {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn repeated_fits_are_identical() {
    let a = fit(7);
    let b = fit(7);
    assert_eq!(a.forward, b.forward, "same seed, same batches, different bijection");
    assert_eq!(a.inverse, b.inverse);
    a.validate().expect("bijection must be a permutation");
}

#[test]
fn different_profiles_give_different_orders() {
    // guards against the hash comparing a constant (e.g. identity) map
    let a = fit(7);
    let b = fit(8);
    assert_ne!(bijection_hash(&a), bijection_hash(&b));
}

// ---------------------------------------------------------------------------
// Cross-thread-count determinism (subprocess harness)
// ---------------------------------------------------------------------------

/// Child body: prints the bijection hash for the parent to compare.
/// Runs only when re-exec'd with `EL_REORDER_CHILD` set.
#[test]
fn determinism_child() {
    if std::env::var("EL_REORDER_CHILD").is_err() {
        return; // not a child: louvain_is_thread_count_invariant drives this
    }
    let bij = fit(7);
    bij.validate().expect("bijection must be a permutation");
    println!("bijection-hash={:#018x}", bijection_hash(&bij));
}

/// Re-execs this binary with `RAYON_NUM_THREADS` pinned and returns the
/// hash the child printed.
fn child_hash(threads: &str) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .args(["determinism_child", "--exact", "--nocapture"])
        .env("EL_REORDER_CHILD", "1")
        .env("RAYON_NUM_THREADS", threads)
        .output()
        .expect("spawning determinism child failed");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "child (RAYON_NUM_THREADS={threads}) failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr),
    );
    // libtest prints "test determinism_child ... " without a newline, so
    // the marker may share a line with the harness banner — split, don't
    // match on line starts
    stdout
        .split("bijection-hash=")
        .nth(1)
        .expect("child must print its bijection hash")
        .split_whitespace()
        .next()
        .expect("hash value follows the marker")
        .to_string()
}

#[test]
fn louvain_is_thread_count_invariant() {
    let h1 = child_hash("1");
    let h4 = child_hash("4");
    assert_eq!(h1, h4, "bijection depends on RAYON_NUM_THREADS");
    // and both match this process's own fit
    assert_eq!(h1, format!("{:#018x}", bijection_hash(&fit(7))));
}

// ---------------------------------------------------------------------------
// Permutation property
// ---------------------------------------------------------------------------

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fitted bijection is a true permutation — checked from first
    /// principles (sorted forward map is exactly 0..n, and inverse∘forward
    /// is the identity), independently of `IndexBijection::validate`, for
    /// arbitrary workloads.
    #[test]
    fn fit_is_a_true_permutation(
        seed in 0u64..10_000,
        card in 2usize..120,
        hot_pct in 0u32..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let batches: Vec<Vec<u32>> = (0..8)
            .map(|_| (0..12).map(|_| rng.gen_range(0..card as u32)).collect())
            .collect();
        let views: Vec<&[u32]> = batches.iter().map(|b| b.as_slice()).collect();
        let config = ReorderConfig { hot_ratio: f64::from(hot_pct) / 100.0, seed };
        let bij = Reorderer::new(config).fit(card, &views);
        prop_assert_eq!(bij.forward.len(), card);
        prop_assert_eq!(bij.inverse.len(), card);
        let mut sorted = bij.forward.clone();
        sorted.sort_unstable();
        let identity: Vec<u32> = (0..card as u32).collect();
        prop_assert_eq!(&sorted, &identity, "forward map is not onto 0..{}", card);
        for (i, &f) in bij.forward.iter().enumerate() {
            prop_assert_eq!(bij.inverse[f as usize] as usize, i, "inverse∘forward ≠ id at {}", i);
        }
    }
}
