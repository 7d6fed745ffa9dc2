//! Batched GEMM — the `cublasGemmBatchedEx` stand-in.
//!
//! EL-Rec's Algorithm 1 (parallel pointer preparation) produces three pointer
//! lists `Ptr_a`, `Ptr_b`, `Ptr_c` and hands them to one batched-GEMM launch
//! that executes every small product concurrently. This module reproduces
//! that contract on the CPU:
//!
//! * operands live in three flat **arenas** (`a_arena`, `b_arena`, `c_arena`),
//! * a [`GemmTask`] is a triple of element offsets into those arenas — the
//!   safe-Rust analogue of a device pointer triple,
//! * [`batched_gemm`] executes all tasks of a [`GemmBatch`] across the rayon
//!   pool in one call.
//!
//! # Safety contract
//!
//! Like its CUDA counterpart, the batched kernel requires the *output*
//! regions of all tasks to be pairwise disjoint; this is checked with an
//! `O(t log t)` validation in debug builds and trusted in release builds.

use crate::gemm::gemm_nn;
use crate::micro::{self, Layout};
use crate::small::{self, Op};
use rayon::prelude::*;

/// One small GEMM inside a batch: element offsets of A, B and C inside their
/// respective arenas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmTask {
    /// Offset of the `m x k` A block in the A arena.
    pub a: usize,
    /// Offset of the `k x n` B block in the B arena.
    pub b: usize,
    /// Offset of the `m x n` C block in the C arena.
    pub c: usize,
}

/// A batch of equally-shaped GEMMs: `C_i = A_i * B_i`, overwriting `C_i`.
#[derive(Clone, Debug)]
pub struct GemmBatch {
    /// Rows of each A/C block.
    pub m: usize,
    /// Columns of each B/C block.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// The pointer list.
    pub tasks: Vec<GemmTask>,
}

impl Default for GemmBatch {
    /// An empty degenerate-shape batch — a placeholder whose task list
    /// capacity can be recycled via [`GemmBatch::reset`].
    fn default() -> Self {
        Self::new(0, 0, 0)
    }
}

impl GemmBatch {
    /// An empty batch of the given shape.
    pub fn new(m: usize, n: usize, k: usize) -> Self {
        Self { m, n, k, tasks: Vec::new() }
    }

    /// Reshapes the batch in place for a new level, clearing the task list
    /// but keeping its allocation (the zero-alloc hot-path hook).
    pub fn reset(&mut self, m: usize, n: usize, k: usize) {
        self.m = m;
        self.n = n;
        self.k = k;
        self.tasks.clear();
    }

    /// Number of queued tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when no task is queued.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Queues one task.
    pub fn push(&mut self, a: usize, b: usize, c: usize) {
        self.tasks.push(GemmTask { a, b, c });
    }

    /// Total floating-point operations the batch performs (2·m·n·k each).
    pub fn flops(&self) -> usize {
        2 * self.m * self.n * self.k * self.tasks.len()
    }
}

/// Wrapper that lets rayon move a raw pointer across threads. The
/// disjointness contract of [`batched_gemm`] makes concurrent writes
/// through it race-free.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
// SAFETY: SendPtr is only constructed inside `batched_gemm`, whose tasks
// write through disjoint C regions (checked in debug builds); no two
// threads ever touch the same element.
unsafe impl Send for SendPtr {}
// SAFETY: as above — shared references only enable disjoint writes.
unsafe impl Sync for SendPtr {}

/// Executes every task of `batch` over the rayon pool.
///
/// # Panics
///
/// Panics when a task reads or writes out of arena bounds, and — in debug
/// builds — when two tasks' C regions overlap.
// CONTRACT: non-blocking
pub fn batched_gemm(batch: &GemmBatch, a_arena: &[f32], b_arena: &[f32], c_arena: &mut [f32]) {
    let (m, n, k) = (batch.m, batch.n, batch.k);
    let (a_len, b_len, c_len) = (m * k, k * n, m * n);
    if batch.tasks.is_empty() || c_len == 0 {
        return;
    }

    for t in &batch.tasks {
        assert!(t.a + a_len <= a_arena.len(), "A block out of bounds: off={} len={}", t.a, a_len);
        assert!(t.b + b_len <= b_arena.len(), "B block out of bounds: off={} len={}", t.b, b_len);
        assert!(t.c + c_len <= c_arena.len(), "C block out of bounds: off={} len={}", t.c, c_len);
    }
    debug_assert!(outputs_disjoint(&batch.tasks, c_len), "C regions of tasks must be disjoint");

    let c_ptr = SendPtr(c_arena.as_mut_ptr());
    let table = small::resolve(Op::GemmNn, [m, n, k]);

    // One small GEMM is far below the fork/join break-even point, so tasks
    // are processed in chunks sized by flops: each chunk carries roughly
    // CHUNK_FLOPS multiply-adds regardless of the per-task shape, so tiny
    // TT-slice products coalesce into few forks while big tasks still
    // spread across workers. A level of at least SPLIT_TASKS tasks gives
    // every pool thread a chunk even when its flops would fit in one:
    // tasks write disjoint C regions, so the split cannot change bits.
    let task_flops = (m * n * k).max(1);
    let mut chunk = (CHUNK_FLOPS / task_flops).max(1);
    if batch.tasks.len() >= SPLIT_TASKS {
        chunk = chunk.min(batch.tasks.len().div_ceil(rayon::current_num_threads()));
    }
    batch.tasks.par_chunks(chunk).for_each(|tasks| {
        // Tasks are pushed in slot order, so tasks reading the same A block
        // (all children of one chain slot) sit in contiguous runs. Each run
        // reuses its A block: packed once for large shapes, or simply kept
        // hot in L1 for the small TT-slice shapes.
        let mut i = 0;
        while i < tasks.len() {
            let a_off = tasks[i].a;
            let mut j = i + 1;
            while j < tasks.len() && tasks[j].a == a_off {
                j += 1;
            }
            let a = &a_arena[a_off..a_off + a_len];
            let group = &tasks[i..j];
            // Table shapes sit below PACK_CUTOFF except under Miri's
            // smaller cutoff; the guard keeps them on the table there too.
            let packable = table.is_none()
                && group.len() > 1
                && m * n * k >= micro::PACK_CUTOFF
                && k <= micro::KC;
            if packable {
                micro::with_packed_a(m, k, a, Layout::row_major(k), |a_pack| {
                    for t in group {
                        // SAFETY: bounds were validated above and C regions
                        // are disjoint by contract, so each task writes a
                        // region no other task touches.
                        let c = unsafe {
                            let base = c_ptr;
                            std::slice::from_raw_parts_mut(base.0.add(t.c), c_len)
                        };
                        micro::gemm_prepacked_a(
                            m,
                            n,
                            k,
                            1.0,
                            a_pack,
                            &b_arena[t.b..t.b + b_len],
                            Layout::row_major(n),
                            0.0,
                            c,
                        );
                    }
                });
            } else {
                for t in group {
                    // SAFETY: as above — validated bounds, disjoint outputs.
                    let c = unsafe {
                        let base = c_ptr;
                        std::slice::from_raw_parts_mut(base.0.add(t.c), c_len)
                    };
                    let b = &b_arena[t.b..t.b + b_len];
                    match table {
                        Some(kern) => kern(a, b, c),
                        None => gemm_nn(m, n, k, 1.0, a, b, 0.0, c),
                    }
                }
            }
            i = j;
        }
    });
}

/// Multiply-adds per parallel chunk of [`batched_gemm`]. Chunk boundaries
/// may split a shared-A run; the split run just packs its A block twice,
/// which is cheaper than materializing run boundaries up front.
const CHUNK_FLOPS: usize = 1 << 21;

/// Task count from which [`batched_gemm`] splits a level across every pool
/// thread whatever its flops.
const SPLIT_TASKS: usize = 256;

/// Sequential execution of the same batch, with the same per-task
/// arithmetic as [`batched_gemm`]: the test oracle that the parallel split
/// must match bit for bit.
pub fn batched_gemm_seq(batch: &GemmBatch, a_arena: &[f32], b_arena: &[f32], c_arena: &mut [f32]) {
    let (m, n, k) = (batch.m, batch.n, batch.k);
    let (a_len, b_len, c_len) = (m * k, k * n, m * n);
    let table = small::resolve(Op::GemmNn, [m, n, k]);
    for t in &batch.tasks {
        let (a, b, c) = (
            &a_arena[t.a..t.a + a_len],
            &b_arena[t.b..t.b + b_len],
            &mut c_arena[t.c..t.c + c_len],
        );
        match table {
            Some(kern) => kern(a, b, c),
            None => gemm_nn(m, n, k, 1.0, a, b, 0.0, c),
        }
    }
}

fn outputs_disjoint(tasks: &[GemmTask], c_len: usize) -> bool {
    let mut spans: Vec<(usize, usize)> = tasks.iter().map(|t| (t.c, t.c + c_len)).collect();
    spans.sort_unstable();
    spans.windows(2).all(|w| w[0].1 <= w[1].0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rand_vec(n: usize, rng: &mut impl Rng) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let (m, n, k) = (4, 6, 5);
        let count = 100;
        let a_arena = rand_vec(m * k * count, &mut rng);
        let b_arena = rand_vec(k * n * count, &mut rng);
        let mut batch = GemmBatch::new(m, n, k);
        for i in 0..count {
            // shuffle the pointer association to exercise indirection
            batch.push((count - 1 - i) * m * k, i * k * n, i * m * n);
        }
        let mut c_par = vec![0.0; m * n * count];
        let mut c_seq = vec![0.0; m * n * count];
        batched_gemm(&batch, &a_arena, &b_arena, &mut c_par);
        batched_gemm_seq(&batch, &a_arena, &b_arena, &mut c_seq);
        assert_eq!(c_par, c_seq);
    }

    #[test]
    fn shared_inputs_are_allowed() {
        // Many tasks reading the same A block (the whole point of the
        // reuse buffer) must work.
        let (m, n, k) = (2, 2, 2);
        let a_arena = vec![1.0, 2.0, 3.0, 4.0];
        let b_arena = vec![1.0, 0.0, 0.0, 1.0];
        let mut batch = GemmBatch::new(m, n, k);
        for i in 0..8 {
            batch.push(0, 0, i * m * n);
        }
        let mut c = vec![0.0; m * n * 8];
        batched_gemm(&batch, &a_arena, &b_arena, &mut c);
        for i in 0..8 {
            assert_eq!(&c[i * 4..(i + 1) * 4], &[1.0, 2.0, 3.0, 4.0]);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_task_panics() {
        let mut batch = GemmBatch::new(2, 2, 2);
        batch.push(100, 0, 0);
        let a = vec![0.0; 4];
        let b = vec![0.0; 4];
        let mut c = vec![0.0; 4];
        batched_gemm(&batch, &a, &b, &mut c);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disjoint")]
    fn overlapping_outputs_panic_in_debug() {
        let mut batch = GemmBatch::new(2, 2, 2);
        batch.push(0, 0, 0);
        batch.push(0, 0, 2); // overlaps the first 2x2 block
        let a = vec![0.0; 4];
        let b = vec![0.0; 4];
        let mut c = vec![0.0; 8];
        batched_gemm(&batch, &a, &b, &mut c);
    }

    #[test]
    fn shared_a_runs_take_packed_path() {
        // Shapes above the packing cutoff with contiguous shared-A runs of
        // varying length exercise the pack-once-per-group path against the
        // sequential oracle.
        // m*n*k >= PACK_CUTOFF (with the miri-shrunk constants a toy shape
        // already qualifies, so the packed raw-pointer path runs under Miri)
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let (m, n, k) = if cfg!(miri) { (4, 8, 8) } else { (32, 128, 64) };
        let num_a = 3;
        let count = 10;
        let a_arena = rand_vec(m * k * num_a, &mut rng);
        let b_arena = rand_vec(k * n * count, &mut rng);
        let mut batch = GemmBatch::new(m, n, k);
        // runs of length 4, 5, 1 over the three A blocks
        for (i, &a_idx) in [0, 0, 0, 0, 1, 1, 1, 1, 1, 2].iter().enumerate() {
            batch.push(a_idx * m * k, i * k * n, i * m * n);
        }
        let mut c_par = vec![0.0; m * n * count];
        let mut c_seq = vec![0.0; m * n * count];
        batched_gemm(&batch, &a_arena, &b_arena, &mut c_par);
        batched_gemm_seq(&batch, &a_arena, &b_arena, &mut c_seq);
        for (i, (x, y)) in c_par.iter().zip(&c_seq).enumerate() {
            assert!((x - y).abs() <= 1e-4 * (1.0 + y.abs()), "mismatch at {i}: {x} vs {y}");
        }
    }

    /// A TT-chain level on the small-shape table, long enough to be split
    /// across the pool: both entry points equal one generic `gemm_nn` per
    /// task bit for bit.
    #[test]
    fn table_levels_match_generic_gemm_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let (m, n, k) = (8, 4, 16);
        assert!(small::resolve(Op::GemmNn, [m, n, k]).is_some());
        let count = if cfg!(miri) { 8 } else { SPLIT_TASKS + 37 };
        let a_arena = rand_vec(m * k * 5, &mut rng);
        let b_arena = rand_vec(k * n * 7, &mut rng);
        let mut batch = GemmBatch::new(m, n, k);
        for i in 0..count {
            batch.push(i / 60 * m * k, i % 7 * k * n, i * m * n);
        }
        let mut want = vec![f32::NAN; m * n * count];
        for t in &batch.tasks {
            let (a, b) = (&a_arena[t.a..t.a + m * k], &b_arena[t.b..t.b + k * n]);
            gemm_nn(m, n, k, 1.0, a, b, 0.0, &mut want[t.c..t.c + m * n]);
        }
        let mut par = vec![f32::NAN; m * n * count];
        let mut seq = vec![f32::NAN; m * n * count];
        batched_gemm(&batch, &a_arena, &b_arena, &mut par);
        batched_gemm_seq(&batch, &a_arena, &b_arena, &mut seq);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&par), bits(&want));
        assert_eq!(bits(&seq), bits(&want));
    }

    #[test]
    fn reset_keeps_task_capacity() {
        let mut batch = GemmBatch::new(2, 2, 2);
        for i in 0..100 {
            batch.push(0, 0, i * 4);
        }
        let cap = batch.tasks.capacity();
        batch.reset(3, 4, 5);
        assert_eq!((batch.m, batch.n, batch.k), (3, 4, 5));
        assert!(batch.is_empty());
        assert_eq!(batch.tasks.capacity(), cap);
    }

    #[test]
    fn flops_accounting() {
        let mut batch = GemmBatch::new(4, 4, 4);
        batch.push(0, 0, 0);
        batch.push(0, 0, 16);
        assert_eq!(batch.flops(), 2 * 64 * 2);
    }

    #[test]
    fn empty_batch_is_noop() {
        let batch = GemmBatch::new(4, 4, 4);
        let mut c = vec![7.0; 16];
        batched_gemm(&batch, &[], &[], &mut c);
        assert!(c.iter().all(|&x| x == 7.0));
    }

    /// The SendPtr disjointness contract, checked cell by cell: every task
    /// writes its own C region through the shared raw pointer and no cell
    /// is written twice or missed. Small enough for Miri, where the
    /// `from_raw_parts_mut` offset arithmetic runs under full provenance
    /// checking.
    #[test]
    fn sendptr_disjoint_writes_cover_every_cell() {
        let (m, n, k) = (2, 3, 1);
        let count = 7;
        // A_i = [i+1, i+1]^T (2x1), B = ones (1x3) => C_i = (i+1) everywhere.
        let a_arena: Vec<f32> = (0..count).flat_map(|i| [i as f32 + 1.0; 2]).collect();
        let b_arena = vec![1.0; k * n];
        let mut batch = GemmBatch::new(m, n, k);
        for i in 0..count {
            // Reverse C placement so task order differs from memory order.
            batch.push(i * m * k, 0, (count - 1 - i) * m * n);
        }
        let mut c = vec![f32::NAN; m * n * count];
        batched_gemm(&batch, &a_arena, &b_arena, &mut c);
        for i in 0..count {
            let region = &c[(count - 1 - i) * m * n..][..m * n];
            assert!(region.iter().all(|&x| x == i as f32 + 1.0), "task {i} wrote {region:?}");
        }
    }
}
