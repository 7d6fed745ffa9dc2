//! Reordering determinism: the Louvain bijection must be a pure function
//! of `(cardinality, batches, config)` — identical across repeated runs,
//! across processes and across `RAYON_NUM_THREADS` settings. The fitted
//! workloads include tie-heavy graphs (rings and grids, every edge of
//! weight 1), where the order in which local moving scores tied
//! candidates decides the bijection: a scan in hash-map order gives a
//! different bijection in each process. The thread-count cases re-exec
//! this test binary, following `vendor/rayon/tests/stress.rs`, because a
//! pool's size is fixed at first use within a process; the children also
//! generate the profiling batches across their pool
//! (`SyntheticDataset::batches`), which must equal the sequential batches.

use el_data::{DatasetSpec, MiniBatch, SyntheticDataset};
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

/// Unweighted tie-heavy profiles, as `(cardinality, batches)`, one batch
/// per edge: a ring of `n` vertices, and a `side` x `side` grid.
fn ring(n: u32) -> (usize, Vec<Vec<u32>>) {
    (n as usize, (0..n).map(|i| vec![i, (i + 1) % n]).collect())
}

fn grid(side: u32) -> (usize, Vec<Vec<u32>>) {
    let mut batches = Vec::new();
    for v in 0..side * side {
        if v % side + 1 < side {
            batches.push(vec![v, v + 1]);
        }
        if v + side < side * side {
            batches.push(vec![v, v + side]);
        }
    }
    ((side * side) as usize, batches)
}

/// Hash of the bijections of the tie-heavy profiles (hot ratio 0, so
/// every index is a graph vertex).
fn tie_heavy_hash() -> u64 {
    let reorderer = Reorderer::new(ReorderConfig { hot_ratio: 0.0, seed: 3 });
    let mut h = Fnv::new();
    for (card, batches) in [ring(12), ring(60), grid(4), grid(8)] {
        let views: Vec<&[u32]> = batches.iter().map(|b| b.as_slice()).collect();
        let bij = reorderer.fit(card, &views);
        bij.validate().expect("bijection must be a permutation");
        h.words(&bij.forward);
    }
    h.0
}

/// FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, words: &[u32]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }
}

/// FNV-1a over the forward map — the whole bijection, since `inverse` is
/// derived from `forward`.
fn bijection_hash(b: &IndexBijection) -> u64 {
    let mut h = Fnv::new();
    h.words(&b.forward);
    h.0
}

/// Hash of every byte of a batch list: dense features, labels and each
/// field's indices and offsets.
fn batches_hash(batches: &[MiniBatch]) -> u64 {
    let mut h = Fnv::new();
    for b in batches {
        for x in b.dense.iter().chain(&b.labels) {
            h.bytes(&x.to_bits().to_le_bytes());
        }
        for f in &b.fields {
            h.words(&f.indices);
            h.words(&f.offsets);
        }
    }
    h.0
}

const PROFILE: (u64, usize, usize) = (3, 12, 40);

fn profile_dataset() -> SyntheticDataset {
    SyntheticDataset::new(DatasetSpec::toy(3, 2_000, 100_000), 11)
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
    println!("tie-hash={:#018x}", tie_heavy_hash());
    let (first, count, size) = PROFILE;
    println!("batches-hash={:#018x}", batches_hash(&profile_dataset().batches(first, count, size)));
}

/// Re-execs this binary with `RAYON_NUM_THREADS` pinned and returns the
/// child's output.
fn child_output(threads: &str) -> String {
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
    stdout
}

/// The value a child printed after `marker`. libtest prints "test
/// determinism_child ... " without a newline, so the marker may share a
/// line with the harness banner — split, don't match on line starts.
fn printed<'a>(stdout: &'a str, marker: &str) -> &'a str {
    stdout
        .split(marker)
        .nth(1)
        .unwrap_or_else(|| panic!("child must print {marker}"))
        .split_whitespace()
        .next()
        .expect("hash value follows the marker")
}

#[test]
fn louvain_is_thread_count_invariant() {
    let outs = [child_output("1"), child_output("4")];
    // every child matches this process's own fits and sequential batches
    let (first, count, size) = PROFILE;
    let ds = profile_dataset();
    let sequential: Vec<MiniBatch> = (0..count as u64).map(|i| ds.batch(first + i, size)).collect();
    let expected = [
        ("bijection-hash=", bijection_hash(&fit(7))),
        ("tie-hash=", tie_heavy_hash()),
        ("batches-hash=", batches_hash(&sequential)),
    ];
    for (threads, out) in ["1", "4"].iter().zip(&outs) {
        for (marker, hash) in expected {
            assert_eq!(
                printed(out, marker),
                format!("{hash:#018x}"),
                "{marker} differs at RAYON_NUM_THREADS={threads}"
            );
        }
    }
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
